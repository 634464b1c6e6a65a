"""Portfolio strategy execution and the worker-process entry point.

Each strategy is an engine resolved from :data:`repro.engine.registry`
by name; all the default entries are *sound*: a definite verdict
(``verified``/``falsified``) is correct no matter which strategy
produced it, which is what licenses the race's first-definite-wins
cancellation.  The default race order is

- ``bdd``        -- BDD forward reachability on the COI reduction
  (complete; slow when the reachable set is large),
- ``rfn``        -- the full abstraction-refinement CEGAR loop,
- ``kinduction`` -- k-induction with simple-path constraints (complete
  at the recurrence diameter; instant on inductive properties),
- ``bmc``        -- plain bounded search (falsification specialist:
  never answers ``verified``).

:func:`run_strategy` runs a strategy through ``Engine.run``'s
containment, with the chaos injection sites (the site name is the
strategy name) inside it: ``EngineAbort``/``MemoryError``/
``RecursionError`` become an UNKNOWN envelope with an :class:`AbortInfo`,
crashes an ERROR envelope, so a blown-up worker degrades instead of
crashing the pool.  :func:`worker_main` is the forked child's body after
the :mod:`repro.parallel.pool` bootstrap: run, ship the envelope, exit.
"""

from __future__ import annotations

import os
import time
from typing import Optional, Tuple

from repro.core.property import UnreachabilityProperty
from repro.engine import FunctionEngine, Limits, VerifyResult, registry
from repro.engine.base import Engine, EngineBody
from repro.kernel.perf import PERF
from repro.netlist.circuit import Circuit
from repro.obs import tracer as obs
from repro.parallel.envelope import WorkerEnvelope, budget_from_limits
from repro.runtime.abort import InjectedFault
from repro.runtime.budget import Budget, process_rss_mb
from repro.runtime.chaos import ChaosMonkey, Garbage

#: Default race order: the paper's engine preference (exact reachability
#: first, then the CEGAR loop, then the SAT engines).  In sequential
#: mode this is the order the slices burn in; in parallel mode it only
#: breaks ties for scheduling.
STRATEGY_ORDER: Tuple[str, ...] = ("bdd", "rfn", "kinduction", "bmc")


def _chaotic(engine: Engine, chaos: ChaosMonkey) -> EngineBody:
    """``engine`` between the chaos points of its site: ``before`` may
    raise a fault, and a garbage verdict from ``mangle`` raises
    :class:`InjectedFault` -- both inside the caller's containment."""
    site = engine.name

    def body(circuit, prop, limits) -> VerifyResult:
        chaos.before(site)
        result = engine.run(circuit, prop, limits, contain=False)
        if isinstance(chaos.mangle(site, result.verdict), Garbage):
            raise InjectedFault(f"garbage verdict from {site!r}", engine=site)
        return result

    return body


def run_strategy(
    strategy: str,
    circuit: Circuit,
    prop: UnreachabilityProperty,
    budget: Optional[Budget] = None,
    chaos: Optional[ChaosMonkey] = None,
    fn: Optional[EngineBody] = None,
) -> WorkerEnvelope:
    """Run one strategy under ``Engine.run``'s containment; never raises
    short of ``KeyboardInterrupt`` (or ``KeyError`` for an unknown name).
    The chaos site name is the strategy name, so ``--chaos bdd=timeout``
    breaks the bdd worker exactly like it breaks an in-process supervised
    step.  ``fn`` substitutes the strategy body (an :data:`EngineBody`
    returning a ``VerifyResult``) while keeping the name, containment and
    chaos site -- the service layer uses this to run ``rfn`` with
    checkpoint/resume wired in."""
    engine = FunctionEngine(strategy, fn) if fn else registry.get(strategy)
    if chaos is not None:
        engine = FunctionEngine(strategy, _chaotic(engine, chaos))
    start = time.perf_counter()
    with obs.span(f"strategy.{strategy}") as phase:
        result = engine.run(circuit, prop, Limits(budget=budget))
        phase.set(verdict=result.verdict, detail=result.detail)
    return WorkerEnvelope(
        strategy=strategy,
        verdict=result.verdict,
        detail=result.detail,
        witness=result.witness,
        trace=result.trace,
        abort=result.abort,
        seconds=time.perf_counter() - start,
        rss_mb=process_rss_mb(),
    )


def worker_main(conn, strategy, circuit, prop, limits, chaos) -> None:
    """Body of one forked portfolio worker.

    Materializes the budget slice (the clock starts *here*, when the
    worker starts running) and ships exactly one envelope back, with
    this worker's ``PERF`` snapshot (the bootstrap zeroed it) and trace
    records.  A send failure means the parent already cancelled the
    race; exiting quietly is the correct response.
    """
    budget = budget_from_limits(limits, name=f"portfolio/{strategy}")
    envelope = run_strategy(strategy, circuit, prop, budget, chaos=chaos)
    envelope.perf = PERF.snapshot()
    if obs.TRACER.enabled:
        envelope.obs = obs.TRACER.drain()
    envelope.pid = os.getpid()
    try:
        conn.send(envelope)
        conn.close()
    except OSError:  # parent cancelled us mid-send
        pass
