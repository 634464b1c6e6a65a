"""The racing portfolio executor (first definite verdict wins).

``race`` runs every strategy on the same obligation, each inside its
own budget slice (see :mod:`repro.parallel.envelope`):

- ``jobs <= 1``: in-process reference mode -- the slices burn one after
  another in :data:`~repro.parallel.worker.STRATEGY_ORDER`, stopping at
  the first definite verdict.  This is the baseline the determinism
  suite compares against.
- ``jobs >= 2``: up to ``jobs`` forked workers run concurrently; as a
  worker returns an indefinite envelope the next pending strategy is
  backfilled into its slot.  The first definite envelope cancels every
  other worker; losers' slices overlap instead of serializing, which is
  the whole wall-clock win.

Cancellation protocol: one :mod:`repro.parallel.pool` worker per
strategy, because cancelling a loser means killing it; each writes
exactly one envelope to its pipe.  On a winner (or ``KeyboardInterrupt``)
the parent stops every live worker in a ``finally`` block, so no orphan
can outlive the call.  A worker that had already sent its envelope, or
died on its own, by then is still reported: a dying child closes its
pipe only after the kernel has torn down its address space, which can
take longer than the winner needs to answer, so whether the poll saw it
first is timing, not outcome.

Determinism contract: every strategy is sound, so *which* strategy wins
cannot change the verdict, only the latency.  Falsification witnesses
are normalized in the parent through :func:`canonical_witness` -- a
lexicographically-minimal shortest counterexample recomputed by bounded
model checking -- so the reported trace is also independent of the
winner.  What is *not* preserved in parallel mode: the winning strategy
name, per-strategy timings, and VERIFIED results carry no inductive
invariant (BDD functions cannot cross the pipe).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.property import UnreachabilityProperty
from repro.engine import DisagreeError, Verdict, join_all, registry
from repro.kernel.perf import PERF
from repro.mc.bmc import BmcOutcome, bmc
from repro.netlist.circuit import Circuit
from repro.obs import tracer as obs
from repro.parallel.envelope import (
    WorkerEnvelope,
    budget_from_limits,
    slice_limits,
)
from repro.parallel.pool import Worker, WorkerDied, fork_context, wait
from repro.parallel.worker import STRATEGY_ORDER, run_strategy, worker_main
from repro.runtime.budget import Budget
from repro.runtime.chaos import ChaosMonkey
from repro.runtime.supervisor import AbortInfo
from repro.trace import Trace


def _death_envelope(strategy: str, worker: Worker) -> WorkerEnvelope:
    """The ERROR envelope standing in for a worker that exited without
    sending one (hard crash, kill -9); ``worker`` must be joined."""
    return WorkerEnvelope(
        strategy=strategy,
        verdict=Verdict.ERROR,
        detail=f"worker exited without a result (exitcode {worker.exitcode})",
        pid=worker.pid,
    )


def canonical_witness(
    circuit: Circuit,
    prop: UnreachabilityProperty,
    witness: Trace,
) -> Trace:
    """Normalize a counterexample to *the* canonical one: shortest depth
    first, then lexicographically minimal under the circuit's signal
    declaration order (the ``bmc`` canonical-trace contract).  Bounded
    by the witness's own length, so the recomputation can never search
    deeper than what some engine already found.  It runs on the pooled
    bounded-BMC session; the minimization pins every free variable, so
    whatever that session already holds cannot change the trace."""
    result = bmc(
        circuit,
        prop,
        max_depth=max(0, witness.length - 1),
        max_conflicts=None,
        induction=False,
        canonical_trace=True,
    )
    if result.outcome is BmcOutcome.FALSE and result.trace is not None:
        return result.trace
    return witness


@dataclass
class PortfolioResult:
    """Outcome of one race."""

    verdict: Verdict
    trace: Optional[Trace] = None
    winner: Optional[str] = None
    jobs: int = 1
    strategies: Tuple[str, ...] = ()
    envelopes: List[WorkerEnvelope] = field(default_factory=list)
    seconds: float = 0.0
    canonical: bool = False
    #: set when two sound strategies answered with contradictory
    #: definite verdicts -- a soundness bug, reported as ERROR
    disagreement: Optional[str] = None

    @property
    def verified(self) -> bool:
        return self.verdict is Verdict.VERIFIED

    @property
    def falsified(self) -> bool:
        return self.verdict is Verdict.FALSIFIED

    @property
    def aborts(self) -> List[AbortInfo]:
        return [e.abort for e in self.envelopes if e.abort is not None]

    def envelope_of(self, strategy: str) -> Optional[WorkerEnvelope]:
        for envelope in self.envelopes:
            if envelope.strategy == strategy:
                return envelope
        return None

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "disagreement": self.disagreement,
            "winner": self.winner,
            "jobs": self.jobs,
            "strategies": list(self.strategies),
            "trace_length": None if self.trace is None else self.trace.length,
            "canonical": self.canonical,
            "seconds": round(self.seconds, 4),
            "envelopes": [e.to_json() for e in self.envelopes],
        }


def _finish(
    result: PortfolioResult,
    circuit: Circuit,
    prop: UnreachabilityProperty,
    winning: Optional[WorkerEnvelope],
    start: float,
) -> PortfolioResult:
    if winning is not None:
        result.verdict = winning.verdict
        result.winner = winning.strategy
        result.trace = winning.trace
    try:
        # The same fold the fuzz oracle uses for consensus: two sound
        # strategies can never definitely disagree, so a conflict is an
        # infrastructure-grade finding, not a result.
        join_all(e.verdict for e in result.envelopes)
    except DisagreeError as error:
        result.verdict = Verdict.ERROR
        result.disagreement = str(error)
        result.winner = None
        result.trace = None
        result.seconds = time.monotonic() - start
        return result
    if result.verdict is Verdict.FALSIFIED and result.trace is not None:
        result.trace = canonical_witness(circuit, prop, result.trace)
        result.canonical = True
    result.seconds = time.monotonic() - start
    return result


def race(
    circuit: Circuit,
    prop: UnreachabilityProperty,
    strategies: Sequence[str] = STRATEGY_ORDER,
    jobs: int = 1,
    budget: Optional[Budget] = None,
    chaos: Optional[ChaosMonkey] = None,
    log: Optional[Callable[[str], None]] = None,
) -> PortfolioResult:
    """Race ``strategies`` on one obligation; see the module docstring.

    Returns UNKNOWN (never raises a contained error) when no strategy
    reaches a definite verdict within its slice.  An unknown strategy
    name is a ``ValueError`` in either mode, raised before any worker
    starts.
    """
    strategies = registry.require(strategies)
    start = time.monotonic()
    limits = slice_limits(budget, len(strategies))
    result = PortfolioResult(
        verdict=Verdict.UNKNOWN, jobs=max(1, jobs), strategies=strategies
    )
    race_span = obs.span(
        "portfolio.race", jobs=max(1, jobs), strategies=",".join(strategies)
    )

    def finish_race(outcome: PortfolioResult) -> PortfolioResult:
        race_span.set(verdict=outcome.verdict, winner=outcome.winner)
        race_span.__exit__(None, None, None)
        return outcome

    def note(message: str) -> None:
        if log is not None:
            log(message)

    if jobs < 2 or fork_context() is None:
        # Sequential reference mode: burn the slices in order.
        winning = None
        for strategy in strategies:
            if budget is not None and budget.expired():
                note(f"[portfolio] parent budget expired before {strategy}")
                break
            slice_budget = budget_from_limits(
                limits, name=f"portfolio/{strategy}", parent=budget
            )
            envelope = run_strategy(
                strategy, circuit, prop, slice_budget, chaos=chaos
            )
            result.envelopes.append(envelope)
            note(
                f"[portfolio] {strategy}: {envelope.verdict} "
                f"({envelope.detail}) in {envelope.seconds:.2f}s"
            )
            if envelope.definite:
                winning = envelope
                break
        return finish_race(
            _finish(result, circuit, prop, winning, start)
        )

    pending = list(strategies)
    running: Dict[Worker, str] = {}  # worker -> the strategy it races
    winning: Optional[WorkerEnvelope] = None

    def launch(strategy: str) -> None:
        worker = Worker(worker_main, strategy, circuit, prop, limits, chaos)
        running[worker] = strategy
        note(f"[portfolio] worker {worker.pid} racing {strategy}")

    def note_worker_span(worker: Worker, strategy: str, outcome: str) -> None:
        # The parent's view of the worker's lifetime, attributed to the
        # worker's pid lane.  This also covers *cancelled* workers, whose
        # own span buffers die with them -- guaranteeing the stitched
        # trace shows every lane that raced.
        obs.TRACER.record_span(
            "portfolio.worker",
            ts=worker.started,
            dur=time.monotonic() - worker.started,
            pid=worker.pid,
            outcome=outcome,
            attrs={"strategy": strategy},
        )

    def record(envelope: WorkerEnvelope, worker: Worker) -> None:
        result.envelopes.append(envelope)
        if envelope.perf:
            PERF.merge(envelope.perf)
        if obs.TRACER.enabled:
            obs.TRACER.absorb(envelope.obs)
            note_worker_span(worker, envelope.strategy, envelope.verdict)
        note(
            f"[portfolio] {envelope.strategy}: {envelope.verdict} "
            f"({envelope.detail}) in {envelope.seconds:.2f}s"
        )

    try:
        while pending and len(running) < jobs:
            launch(pending.pop(0))
        while running and winning is None:
            ready = wait(list(running))
            for worker in ready:
                strategy = running.pop(worker)
                try:
                    envelope = worker.recv()
                except WorkerDied:
                    # The worker died without an envelope (hard crash,
                    # kill -9): degrade, don't raise.
                    envelope = _death_envelope(strategy, worker)
                worker.stop()
                record(envelope, worker)
                if envelope.definite and winning is None:
                    winning = envelope
                elif pending:
                    launch(pending.pop(0))
            if not ready and budget is not None and budget.expired():
                note("[portfolio] parent budget expired; cancelling race")
                break
    finally:
        for worker, strategy in list(running.items()):
            worker.stop()
            # What a cancelled worker left behind: the envelope it had
            # already sent, an ERROR envelope if it died on its own (a
            # positive exit code, not the race's SIGTERM), or nothing
            # when the cancellation stopped it mid-run.
            late = worker.late
            if late is None and (worker.exitcode or 0) > 0:
                late = _death_envelope(strategy, worker)
            if late is not None:
                record(late, worker)
            elif obs.TRACER.enabled:
                note_worker_span(worker, strategy, "cancelled")
        running.clear()

    # Keep the reported envelope order deterministic (strategy order,
    # not completion order).
    order = {name: i for i, name in enumerate(strategies)}
    result.envelopes.sort(key=lambda e: order.get(e.strategy, len(order)))
    return finish_race(
        _finish(result, circuit, prop, winning, start)
    )
