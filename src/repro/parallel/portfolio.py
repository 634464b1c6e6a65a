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
  other worker (``terminate`` then ``join``); losers' slices overlap
  instead of serializing, which is the whole wall-clock win.

Cancellation protocol: workers are daemonic and write exactly one
envelope to their pipe.  The parent polls with
``multiprocessing.connection.wait``; on a winner (or ``KeyboardInterrupt``)
it terminates, joins and reaps every live worker in a ``finally`` block,
so no orphan can outlive the call.  A worker that had already sent its
envelope, or died on its own, by then is still reported: a dying child
closes its pipe only after the kernel has torn down its address space,
which can take longer than the winner needs to answer, so whether the
poll saw it first is timing, not outcome.

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

import multiprocessing
import multiprocessing.connection
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.property import UnreachabilityProperty
from repro.engine import DisagreeError, Verdict, join_all
from repro.kernel.perf import PERF
from repro.mc.bmc import BmcOutcome, bmc
from repro.netlist.circuit import Circuit
from repro.obs import tracer as obs
from repro.parallel.envelope import (
    WorkerEnvelope,
    budget_from_limits,
    slice_limits,
)
from repro.parallel.worker import STRATEGY_ORDER, run_strategy, worker_main
from repro.runtime.budget import Budget
from repro.runtime.chaos import ChaosMonkey
from repro.runtime.supervisor import AbortInfo
from repro.trace import Trace


def _fork_context():
    """The fork start context, or None when the platform lacks it (then
    the race degrades to the sequential reference mode)."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        return None


def _death_envelope(strategy: str, proc) -> WorkerEnvelope:
    """The ERROR envelope standing in for a worker that exited without
    sending one (hard crash, kill -9); ``proc`` must be joined."""
    return WorkerEnvelope(
        strategy=strategy,
        verdict=Verdict.ERROR,
        detail=f"worker exited without a result (exitcode {proc.exitcode})",
        pid=proc.pid,
    )


def _late_envelope(conn, proc, strategy: str) -> Optional[WorkerEnvelope]:
    """What a worker the race is tearing down left behind: the envelope
    it had already sent, an ERROR envelope if it died on its own (a
    positive exit code, not the race's SIGTERM), or None when the
    cancellation stopped it mid-run.  ``proc`` must be joined."""
    try:
        if conn.poll():
            return conn.recv()
    except (EOFError, OSError):
        pass  # no complete envelope in the pipe
    if proc.exitcode is not None and proc.exitcode > 0:
        return _death_envelope(strategy, proc)
    return None


def canonical_witness(
    circuit: Circuit,
    prop: UnreachabilityProperty,
    witness: Trace,
) -> Trace:
    """Normalize a counterexample to *the* canonical one: shortest depth
    first, then lexicographically minimal under the circuit's signal
    declaration order (the ``bmc`` canonical-trace contract).  Bounded
    by the witness's own length, so the recomputation can never search
    deeper than what some engine already found."""
    result = bmc(
        circuit,
        prop,
        max_depth=max(0, witness.length - 1),
        max_conflicts=None,
        induction=False,
        incremental=False,
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
    canonicalize: bool,
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
    if (
        canonicalize
        and result.verdict is Verdict.FALSIFIED
        and result.trace is not None
    ):
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
    canonicalize: bool = True,
    poll_seconds: float = 0.05,
) -> PortfolioResult:
    """Race ``strategies`` on one obligation; see the module docstring.

    Returns UNKNOWN (never raises a contained error) when no strategy
    reaches a definite verdict within its slice.
    """
    strategies = tuple(strategies)
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

    ctx = _fork_context() if jobs >= 2 else None
    if ctx is None:
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
            _finish(result, circuit, prop, winning, canonicalize, start)
        )

    pending = list(strategies)
    running = {}  # conn -> (process, strategy, launch instant)
    winning: Optional[WorkerEnvelope] = None

    def launch(strategy: str) -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=worker_main,
            args=(child_conn, strategy, circuit, prop, limits, chaos),
            name=f"portfolio-{strategy}",
            daemon=True,
        )
        proc.start()
        child_conn.close()  # the child owns its end now
        running[parent_conn] = (proc, strategy, time.monotonic())
        note(f"[portfolio] worker {proc.pid} racing {strategy}")

    def note_worker_span(
        proc, strategy: str, launched: float, outcome: str
    ) -> None:
        # The parent's view of the worker's lifetime, attributed to the
        # worker's pid lane.  This also covers *cancelled* workers, whose
        # own span buffers die with them -- guaranteeing the stitched
        # trace shows every lane that raced.
        obs.TRACER.record_span(
            "portfolio.worker",
            ts=launched,
            dur=time.monotonic() - launched,
            pid=proc.pid,
            outcome=outcome,
            attrs={"strategy": strategy},
        )

    def record(
        envelope: WorkerEnvelope, proc, strategy: str, launched: float
    ) -> None:
        result.envelopes.append(envelope)
        if envelope.perf:
            PERF.merge(envelope.perf)
        if obs.TRACER.enabled:
            obs.TRACER.absorb(envelope.obs)
            note_worker_span(proc, strategy, launched, envelope.verdict)
        note(
            f"[portfolio] {strategy}: {envelope.verdict} "
            f"({envelope.detail}) in {envelope.seconds:.2f}s"
        )

    try:
        while pending and len(running) < jobs:
            launch(pending.pop(0))
        while running and winning is None:
            ready = multiprocessing.connection.wait(
                list(running), timeout=poll_seconds
            )
            for conn in ready:
                proc, strategy, launched = running.pop(conn)
                try:
                    envelope = conn.recv()
                except (EOFError, OSError):
                    # The worker died without an envelope (hard crash,
                    # kill -9): degrade, don't raise.
                    proc.join()  # exitcode is only valid after the join
                    envelope = _death_envelope(strategy, proc)
                finally:
                    conn.close()
                proc.join()
                record(envelope, proc, strategy, launched)
                if envelope.definite and winning is None:
                    winning = envelope
                elif pending:
                    launch(pending.pop(0))
            if not ready and budget is not None and budget.expired():
                note("[portfolio] parent budget expired; cancelling race")
                break
    finally:
        for conn, (proc, strategy, launched) in list(running.items()):
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - stuck in a syscall
                proc.kill()
                proc.join(timeout=5.0)
            late = _late_envelope(conn, proc, strategy)
            conn.close()
            if late is not None:
                record(late, proc, strategy, launched)
            elif obs.TRACER.enabled:
                note_worker_span(proc, strategy, launched, "cancelled")
        running.clear()

    # Keep the reported envelope order deterministic (strategy order,
    # not completion order).
    order = {name: i for i, name in enumerate(strategies)}
    result.envelopes.sort(key=lambda e: order.get(e.strategy, len(order)))
    return finish_race(
        _finish(result, circuit, prop, winning, canonicalize, start)
    )
