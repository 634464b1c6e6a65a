"""Multiprocess portfolio execution (racing engines, sharded sweeps).

The paper's engines -- BDD reachability, the CEGAR loop, k-induction and
bounded model checking -- attack the same obligation with complementary
strengths.  :func:`repro.parallel.portfolio.race` runs them as a
portfolio: every strategy gets an equal slice of the caller's budget,
the slices run concurrently across ``multiprocessing`` workers, and the
first definite verdict cancels the rest.  :func:`repro.parallel.shard.shard_map`
is the companion for embarrassingly parallel sweeps (fuzz campaigns,
``repro batch``): an ordered parallel map with per-item isolation.

Strategies are engines resolved by name from
:data:`repro.engine.registry`; verdicts are the canonical
:class:`repro.engine.Verdict`.  Both entry points are policies over
:mod:`repro.parallel.pool`, the one process layer (fork, child
bootstrap, pipe poll, SIGTERM -> SIGKILL stop) that the serve daemon
uses too.  They degrade to in-process sequential execution when
``jobs <= 1`` or the platform lacks the ``fork`` start method, so every
caller can treat parallelism as optional.  See DESIGN.md section 11 for
the process layer, pool lifecycle, budget-slicing and determinism
contract.
"""

from repro.engine import Verdict
from repro.parallel.envelope import WorkerEnvelope, slice_limits
from repro.parallel.portfolio import PortfolioResult, canonical_witness, race
from repro.parallel.shard import ShardError, shard_map
from repro.parallel.worker import STRATEGY_ORDER, run_strategy

__all__ = [
    "Verdict",
    "WorkerEnvelope",
    "slice_limits",
    "PortfolioResult",
    "canonical_witness",
    "race",
    "ShardError",
    "shard_map",
    "STRATEGY_ORDER",
    "run_strategy",
]
