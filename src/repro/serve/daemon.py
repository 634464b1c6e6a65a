"""The supervised verification daemon: worker pool over the WAL queue.

One :class:`Daemon` owns a queue directory::

    QUEUE_DIR/
      journal/        write-ahead log (repro.serve.journal segments)
      inbox/          client submissions (atomic-rename JSON, one per job)
      results/        terminal job results + RETRY_LATER shed replies
      checkpoints/    per-job RFN checkpoints (resume after preemption)
      daemon.pid      single-writer guard (stale pids are reclaimed)

The main loop: scan the inbox (admit or shed), launch eligible queued
jobs, one :class:`repro.parallel.pool.Worker` per attempt (strategies
filtered through the per-engine circuit breakers), poll worker pipes,
run the heartbeat watchdog, and fold every outcome back through the
journal.  Every state transition is
journaled *before* the daemon acts on it, so ``kill -9`` at any instant
is recoverable: replay returns in-flight jobs to the queue with their
attempt counts intact, and the engines are deterministic, so a re-run
attempt reaches the same verdict the lost one would have.

Failure containment ladder, innermost first:

1. in-worker: :func:`repro.parallel.worker.run_strategy`, which runs
   each strategy through ``Engine.run``'s containment (aborts ->
   UNKNOWN envelopes, crashes -> ERROR envelopes);
2. worker death (segfault, OOM kill, ``crash`` chaos fault): pipe EOF,
   failure attributed to the strategy that was running, job requeued
   with exponential backoff + jitter under a bounded retry budget;
3. hung / frozen / RSS-runaway worker: watchdog preemption
   (:meth:`~repro.parallel.pool.Worker.stop`: SIGTERM -> SIGKILL), same
   requeue path;
4. strategy-level crash loops: circuit breaker quarantine, the job
   proceeds on the surviving engines;
5. daemon death: WAL replay on restart (the invariant the kill-restart
   test pins);
6. queue overflow: admission control sheds with ``RETRY_LATER``.

SIGTERM/SIGINT trigger a graceful drain: no new launches, in-flight
jobs get ``drain_grace`` seconds to finish (their RFN checkpoints are
already on disk), stragglers are preempted and requeued, the journal is
flushed, and the daemon exits 0.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.property import UnreachabilityProperty
from repro.kernel.perf import PERF
from repro.netlist.textio import circuit_from_text
from repro.obs import tracer as obs
from repro.engine import Verdict, VerifyResult, registry
from repro.parallel.envelope import (
    WorkerEnvelope,
    budget_from_limits,
    slice_limits,
)
from repro.parallel.pool import (
    Worker,
    WorkerDied,
    fork_context,
    kill_pid,
    wait,
)
from repro.parallel.worker import STRATEGY_ORDER, run_strategy
from repro.runtime.budget import Budget
from repro.runtime.chaos import ChaosMonkey
from repro.runtime.checkpoint import RfnCheckpoint
from repro.runtime.fsio import atomic_write_text
from repro.serve.breaker import BreakerBoard
from repro.serve.journal import Journal
from repro.serve.queue import QUEUED, RETRY_LATER, RUNNING, Job, JobStore
from repro.serve.watchdog import WatchdogPolicy, rss_of


class ServeError(RuntimeError):
    """Daemon-level misuse (double daemon on one queue, no fork, ...)."""


def journal_dir(queue_dir: str) -> str:
    return os.path.join(queue_dir, "journal")


def inbox_dir(queue_dir: str) -> str:
    return os.path.join(queue_dir, "inbox")


def results_dir(queue_dir: str) -> str:
    return os.path.join(queue_dir, "results")


def checkpoints_dir(queue_dir: str) -> str:
    return os.path.join(queue_dir, "checkpoints")


def pidfile_path(queue_dir: str) -> str:
    return os.path.join(queue_dir, "daemon.pid")


def ensure_layout(queue_dir: str) -> None:
    for path in (
        queue_dir,
        journal_dir(queue_dir),
        inbox_dir(queue_dir),
        results_dir(queue_dir),
        checkpoints_dir(queue_dir),
    ):
        os.makedirs(path, exist_ok=True)


# ----------------------------------------------------------------------
# Worker body (runs in a forked child)
# ----------------------------------------------------------------------


#: How often a worker stamps its heartbeat.
HEARTBEAT_SECONDS = 0.25


def _heartbeat_loop(value) -> None:
    while True:
        value.value = time.monotonic()
        time.sleep(HEARTBEAT_SECONDS)


def _rfn_with_checkpoint(checkpoint_path: str):
    """The ``rfn`` strategy body with checkpoint/resume wired in: every
    CEGAR iteration persists to ``checkpoint_path``, and a prior
    checkpoint (from a preempted attempt) resumes instead of redoing
    completed refinements."""

    def body(circuit, prop, limits) -> VerifyResult:
        from repro.core.rfn import RfnConfig, rfn_verify
        from repro.engine.adapters import rfn_verify_result

        resume = None
        try:
            if os.path.exists(checkpoint_path):
                resume = RfnCheckpoint.load(checkpoint_path)
                resume.validate_against(circuit, prop)
        except (OSError, ValueError):
            resume = None  # unusable checkpoint: start fresh
        config = RfnConfig(
            budget=limits.budget, checkpoint_path=checkpoint_path
        )
        result = rfn_verify(circuit, prop, config, resume=resume)
        answer = rfn_verify_result(result)
        if result.resumed_iterations:
            answer.detail += (
                f" (resumed {result.resumed_iterations} iterations)"
            )
        return answer

    return body


def job_worker_main(conn, heartbeat, payload: dict) -> None:
    """Child-process body for one job attempt; the pool bootstrap has
    restored ``SIG_DFL``, so a preempted worker dies instead of draining.

    Protocol (one pickled tuple per message, in order):
    ``("strategy", name)`` before each strategy starts -- the parent's
    crash attribution anchor; ``("envelope", WorkerEnvelope)`` after
    each strategy; ``("result", dict)`` exactly once at the end.  Death
    without a ``result`` is the parent's signal to requeue.
    """
    threading.Thread(
        target=_heartbeat_loop, args=(heartbeat,), daemon=True
    ).start()
    start = time.perf_counter()

    def send(message: Tuple) -> None:
        try:
            conn.send(message)
        except (BrokenPipeError, OSError):  # parent is gone; die quietly
            os._exit(0)

    try:
        circuit = circuit_from_text(payload["netlist"])
        prop = UnreachabilityProperty(
            payload.get("prop_name", "property"),
            {str(k): int(v) for k, v in payload["target"].items()},
        )
        prop.validate_against(circuit)
    except Exception as error:
        # Bad job payload: a *permanent* error -- retrying cannot help.
        send(
            (
                "result",
                {
                    "verdict": Verdict.ERROR,
                    "detail": f"{type(error).__name__}: {error}",
                    "permanent": True,
                    "winner": None,
                    "trace_length": None,
                    "seconds": time.perf_counter() - start,
                    "perf": PERF.snapshot(),
                    "obs": [],
                },
            )
        )
        conn.close()
        return

    strategies = list(payload["strategies"]) or ["rfn"]
    chaos = (
        ChaosMonkey.parse(payload["chaos"]) if payload.get("chaos") else None
    )
    timeout = payload.get("timeout")
    budget = Budget(max_seconds=timeout) if timeout is not None else None
    limits = slice_limits(budget, len(strategies))
    checkpoint_path = payload.get("checkpoint")

    winner: Optional[WorkerEnvelope] = None
    last: Optional[WorkerEnvelope] = None
    with obs.span("serve.attempt", job=payload.get("id", "?")) as attempt:
        for strategy in strategies:
            send(("strategy", strategy))
            slice_budget = budget_from_limits(
                limits, name=f"serve/{strategy}"
            )
            fn = None
            if strategy == "rfn" and checkpoint_path:
                fn = _rfn_with_checkpoint(checkpoint_path)
            envelope = run_strategy(
                strategy, circuit, prop, slice_budget, chaos=chaos, fn=fn
            )
            envelope.pid = os.getpid()
            last = envelope
            send(("envelope", envelope))
            if envelope.definite:
                winner = envelope
                break
        attempt.set(
            verdict=winner.verdict if winner is not None else Verdict.UNKNOWN
        )

    if winner is not None:
        verdict, detail = winner.verdict, winner.detail
        winning_strategy: Optional[str] = winner.strategy
        trace_length = (
            None if winner.trace is None else winner.trace.length
        )
    elif last is not None and last.verdict is Verdict.ERROR:
        verdict, detail = Verdict.ERROR, last.detail
        winning_strategy, trace_length = None, None
    else:
        verdict = Verdict.UNKNOWN
        detail = last.detail if last is not None else "no strategies ran"
        winning_strategy, trace_length = None, None
    send(
        (
            "result",
            {
                "verdict": verdict,
                "detail": detail,
                "permanent": False,
                "winner": winning_strategy,
                "trace_length": trace_length,
                "seconds": time.perf_counter() - start,
                "perf": PERF.snapshot(),
                "obs": obs.TRACER.drain() if obs.TRACER.enabled else [],
            },
        )
    )
    conn.close()


def _orphan_workers(
    records: List[dict],
) -> Dict[str, Tuple[int, Optional[int]]]:
    """``(pid, start time)`` of the workers in flight when the journal
    ends: spawned (``worker`` record) but never folded back
    (``done``/``requeue``).  A daemon that was SIGKILLed leaves exactly
    these as orphans."""
    live: Dict[str, Tuple[int, Optional[int]]] = {}
    for record in records:
        kind = record.get("type")
        if kind == "worker" and record.get("pid"):
            live[str(record.get("id"))] = (
                int(record["pid"]), record.get("pid_start")
            )
        elif kind in ("done", "requeue"):
            live.pop(str(record.get("id")), None)
        elif kind == "snapshot":
            live = {
                str(spec.get("id")): (int(spec["pid"]), spec.get("pid_start"))
                for spec in record.get("jobs", [])
                if spec.get("state") == RUNNING and spec.get("pid")
            }
    return live


def _start_time(pid: int) -> Optional[int]:
    """When ``pid`` started, in clock ticks after boot (field 22 of
    ``/proc/<pid>/stat``), or None when that cannot be read.  Pids get
    recycled; a pid together with its start time names one process."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            stat = handle.read()
    except OSError:
        return None
    # Field 2, the command name, is parenthesized and may hold spaces.
    return int(stat[stat.rindex(b")") + 2 :].split()[19])


# ----------------------------------------------------------------------
# The daemon
# ----------------------------------------------------------------------


@dataclass
class ServeConfig:
    queue_dir: str
    workers: int = 2
    max_queue: int = 64
    default_timeout: Optional[float] = None
    default_strategies: Tuple[str, ...] = STRATEGY_ORDER
    hang_seconds: Optional[float] = 300.0
    heartbeat_timeout: Optional[float] = 15.0
    rss_limit_mb: Optional[float] = None
    poll_seconds: float = 0.05
    drain_grace: float = 10.0
    until_idle: bool = False
    install_signals: bool = True
    backoff_base: float = 0.25
    backoff_cap: float = 30.0
    breaker_cooldown: float = 2.0
    rotate_bytes: int = 1 << 20
    fsync: bool = True
    log: Optional[callable] = None


class _Slot:
    """One in-flight worker: its handle, heartbeat and attribution."""

    def __init__(self, worker: Worker, heartbeat, job: Job,
                 admitted: List[str]) -> None:
        self.worker = worker
        self.heartbeat = heartbeat
        self.job = job
        self.admitted = admitted
        self.current_strategy: Optional[str] = None
        self.finished_strategies: List[str] = []

    def unprobed(self) -> List[str]:
        """Admitted strategies that never started (their half-open
        probes must be released back to the breaker board)."""
        ran = set(self.finished_strategies)
        if self.current_strategy is not None:
            ran.add(self.current_strategy)
        return [s for s in self.admitted if s not in ran]


class Daemon:
    """The verification service (see module docstring)."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        ensure_layout(config.queue_dir)
        self.journal = Journal(
            journal_dir(config.queue_dir),
            rotate_bytes=config.rotate_bytes,
            fsync=config.fsync,
        )
        self.store = JobStore(
            self.journal,
            max_queue=config.max_queue,
            backoff_base=config.backoff_base,
            backoff_cap=config.backoff_cap,
        )
        self.board = BreakerBoard(
            on_transition=self._breaker_transition,
            cooldown_seconds=config.breaker_cooldown,
        )
        self.policy = WatchdogPolicy(
            hang_seconds=config.hang_seconds,
            heartbeat_timeout=config.heartbeat_timeout,
            rss_limit_mb=config.rss_limit_mb,
        )
        self.slots: Dict[Worker, _Slot] = {}
        self.preemptions = 0
        self.worker_deaths = 0
        self.jobs_done = 0
        self._draining = False
        self._drain_deadline: Optional[float] = None
        self._ctx = fork_context()
        if self._ctx is None:  # pragma: no cover - non-POSIX
            raise ServeError("repro serve requires the fork start method")

    # -- plumbing -------------------------------------------------------

    def _note(self, message: str) -> None:
        if self.config.log is not None:
            self.config.log(message)

    def _breaker_transition(self, strategy: str, state: str) -> None:
        self.store.record_breaker(
            strategy, self.board.breaker(strategy).to_json()
        )
        obs.event(f"breaker.{state}", strategy=strategy)
        self._note(f"[serve] breaker {strategy}: {state}")

    def _acquire_pidfile(self) -> None:
        path = pidfile_path(self.config.queue_dir)
        if os.path.exists(path):
            try:
                with open(path) as handle:
                    other = int(handle.read().split()[0])
                os.kill(other, 0)
            except (OSError, ValueError, IndexError):
                pass  # stale or unreadable: reclaim
            else:
                raise ServeError(
                    f"another daemon (pid {other}) already serves "
                    f"{self.config.queue_dir}"
                )
        atomic_write_text(path, f"{os.getpid()}\n", durable=False)

    def _release_pidfile(self) -> None:
        try:
            os.unlink(pidfile_path(self.config.queue_dir))
        except OSError:
            pass

    def _write_result(self, payload: dict) -> None:
        path = os.path.join(
            results_dir(self.config.queue_dir), f"{payload['id']}.json"
        )
        atomic_write_text(
            path,
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            durable=self.config.fsync,
        )

    # -- signals --------------------------------------------------------

    def _request_drain(self, signum=None, _frame=None) -> None:
        if not self._draining:
            self._draining = True
            self._drain_deadline = (
                time.monotonic() + self.config.drain_grace
            )
            self._note(
                f"[serve] drain requested "
                f"(signal {signum}); finishing "
                f"{len(self.slots)} in-flight job(s)"
            )
            obs.event("serve.drain", in_flight=len(self.slots))

    # -- inbox ----------------------------------------------------------

    def _scan_inbox(self) -> None:
        directory = inbox_dir(self.config.queue_dir)
        try:
            names = sorted(os.listdir(directory))
        except OSError:
            return
        for name in names:
            if not name.endswith(".json"):
                continue
            path = os.path.join(directory, name)
            try:
                with open(path) as handle:
                    spec = json.load(handle)
                job = Job.from_spec(spec)
                # Checked here, not in Job.from_spec: journal replay
                # rebuilds jobs with it too, and must not drop any.
                registry.require(job.strategies or ())
            except (OSError, ValueError, KeyError) as error:
                self._note(f"[serve] dropping malformed submission "
                           f"{name}: {error}")
                obs.event("serve.malformed_submit", file=name)
                try:
                    os.unlink(path)
                except OSError:
                    pass
                continue
            if self.store.submit(job):
                # Clear any stale reply (e.g. an earlier shed) so
                # waiting clients cannot read an old terminal state.
                try:
                    os.unlink(
                        os.path.join(
                            results_dir(self.config.queue_dir),
                            f"{job.id}.json",
                        )
                    )
                except OSError:
                    pass
                obs.event("serve.submit", job=job.id, job_name=job.name)
                self._note(f"[serve] admitted {job.id} ({job.name})")
            else:
                self._write_result(
                    {
                        "id": job.id,
                        "name": job.name,
                        "state": "shed",
                        "verdict": None,
                        "reply": RETRY_LATER,
                        "detail": (
                            f"queue full "
                            f"({self.store.active_count()} active)"
                        ),
                    }
                )
                obs.event("serve.shed", job=job.id)
                self._note(f"[serve] shed {job.id}: {RETRY_LATER}")
            # Journal (or reply) is durable; the inbox file is now
            # redundant.  Crash between the two re-scans it, which the
            # id-idempotent submit absorbs.
            try:
                os.unlink(path)
            except OSError:
                pass

    # -- scheduling -----------------------------------------------------

    def _launch_ready(self) -> None:
        while not self._draining and len(self.slots) < self.config.workers:
            job = self.store.claim()
            if job is None:
                return
            self._launch(job)

    def _launch(self, job: Job) -> None:
        strategies = list(
            job.strategies or self.config.default_strategies
        )
        admitted = self.board.filter(strategies)
        checkpoint = os.path.join(
            checkpoints_dir(self.config.queue_dir), f"{job.id}.json"
        )
        self.store.start(job, pid=None, strategies=admitted,
                         checkpoint=checkpoint)
        payload = job.spec_json()
        payload.update(
            strategies=admitted,
            checkpoint=checkpoint,
            timeout=(
                job.timeout
                if job.timeout is not None
                else self.config.default_timeout
            ),
        )
        heartbeat = self._ctx.Value("d", time.monotonic(), lock=False)
        worker = Worker(job_worker_main, heartbeat, payload)
        self.store.note_worker(job, worker.pid, _start_time(worker.pid))
        self.slots[worker] = _Slot(worker, heartbeat, job, admitted)
        self._note(
            f"[serve] worker {worker.pid} starts {job.id} "
            f"attempt {job.attempt} [{','.join(admitted)}]"
        )

    # -- outcome folding ------------------------------------------------

    def _strategy_failed(self, envelope: WorkerEnvelope) -> bool:
        """Breaker policy: hard failures only.  A crash (ERROR) or a
        memory abort counts against the engine; a clean UNKNOWN or a
        cooperative timeout is a legitimate outcome of budget slicing,
        not a reason for quarantine."""
        if envelope.verdict is Verdict.ERROR:
            return True
        abort = envelope.abort
        return abort is not None and abort.resource == "memory"

    def _close_attempt_span(self, slot: _Slot, outcome: str) -> None:
        if obs.TRACER.enabled:
            obs.TRACER.record_span(
                "serve.job",
                ts=slot.worker.started,
                dur=time.monotonic() - slot.worker.started,
                pid=slot.worker.pid,
                outcome=outcome,
                attrs={
                    "job": slot.job.id,
                    "name": slot.job.name,
                    "attempt": slot.job.attempt,
                    "strategies": ",".join(slot.admitted),
                },
            )

    def _finish_from_result(self, slot: _Slot, result: dict) -> None:
        for strategy in slot.unprobed():
            self.board.release(strategy)
        job = slot.job
        verdict = result.get("verdict", Verdict.UNKNOWN)
        permanent = bool(result.get("permanent"))
        if verdict == Verdict.ERROR and not permanent:
            # Every strategy errored in-process: infrastructure trouble,
            # worth a bounded retry (transient chaos, OOM pressure).
            self._requeue_or_fail(
                slot, f"all strategies errored: {result.get('detail', '')}"
            )
            return
        self.store.finish(
            job,
            verdict=verdict,
            detail=result.get("detail", ""),
            winner=result.get("winner"),
            infrastructure=False,
            trace_length=result.get("trace_length"),
            seconds=float(result.get("seconds", 0.0)),
        )
        self.jobs_done += 1
        self._write_result(job.status_json())
        self._close_attempt_span(slot, verdict)
        obs.event("serve.done", job=job.id, verdict=verdict,
                  attempt=job.attempt)
        self._note(
            f"[serve] {job.id}: {verdict} "
            f"({result.get('detail', '')}) attempt {job.attempt}"
        )
        if result.get("perf"):
            PERF.merge(result["perf"])
        if obs.TRACER.enabled and result.get("obs"):
            obs.TRACER.absorb(result["obs"])

    def _requeue_or_fail(self, slot: _Slot, reason: str) -> None:
        job = slot.job
        requeued = self.store.requeue(job, reason)
        if requeued:
            obs.event("serve.requeue", job=job.id, reason=reason,
                      attempt=job.attempt)
            self._note(f"[serve] requeue {job.id}: {reason}")
        else:
            self.jobs_done += 1
            self._write_result(job.status_json())
            obs.event("serve.failed", job=job.id, reason=reason)
            self._note(f"[serve] {job.id}: retry budget exhausted")
        self._close_attempt_span(slot, f"infra:{reason.split(' ')[0]}")

    def _reap(self, slot: _Slot, reason: str,
              blame: Optional[str]) -> None:
        """Common teardown for a dead/preempted worker: record a failure
        against ``blame`` (the strategy that was running; None records
        nothing), release unused half-open probes, requeue."""
        if blame is not None:
            self.board.record(blame, ok=False)
        for strategy in slot.unprobed():
            self.board.release(strategy)
        self._requeue_or_fail(slot, reason)

    def _handle_message(self, slot: _Slot, message: Tuple) -> None:
        kind, payload = message[0], message[1]
        if kind == "strategy":
            slot.current_strategy = payload
        elif kind == "envelope":
            envelope: WorkerEnvelope = payload
            slot.finished_strategies.append(envelope.strategy)
            if slot.current_strategy == envelope.strategy:
                slot.current_strategy = None
            self.board.record(
                envelope.strategy, ok=not self._strategy_failed(envelope)
            )
        elif kind == "result":
            del self.slots[slot.worker]
            self._finish_from_result(slot, payload)
            slot.worker.stop()

    def _poll_workers(self) -> None:
        if not self.slots:
            time.sleep(self.config.poll_seconds)
            return
        for worker in wait(list(self.slots), self.config.poll_seconds):
            slot = self.slots[worker]
            try:
                message = worker.recv()
            except WorkerDied as death:
                # Hard worker death without a result message.
                del self.slots[worker]
                self.worker_deaths += 1
                during = slot.current_strategy or "startup"
                obs.event(
                    "serve.worker_death",
                    job=slot.job.id,
                    pid=worker.pid,
                    exitcode=death.exitcode,
                    strategy=during,
                )
                self._reap(
                    slot,
                    f"worker died (exitcode {death.exitcode}) "
                    f"during {during}",
                    blame=slot.current_strategy,
                )
                continue
            self._handle_message(slot, message)

    def _run_watchdog(self) -> None:
        now = time.monotonic()
        for worker, slot in list(self.slots.items()):
            if not worker.process.is_alive():
                continue  # the pipe EOF path will reap it
            violation = self.policy.check(
                started=worker.started,
                last_beat=slot.heartbeat.value,
                rss_mb=rss_of(worker.pid),
                now=now,
            )
            if violation is None:
                continue
            del self.slots[worker]
            self.preemptions += 1
            how = worker.stop()
            obs.event(
                "watchdog.preempt",
                job=slot.job.id,
                pid=worker.pid,
                reason=violation,
                how=how,
            )
            self._note(
                f"[serve] watchdog preempts worker {worker.pid} "
                f"({slot.job.id}): {violation} -> {how}"
            )
            during = slot.current_strategy
            self._reap(
                slot,
                f"watchdog preempted ({violation}) during "
                f"{during or 'startup'}",
                blame=during,
            )

    # -- lifecycle ------------------------------------------------------

    def _idle(self) -> bool:
        if self.slots:
            return False
        if any(not job.terminal for job in self.store.jobs.values()):
            return False
        try:
            names = os.listdir(inbox_dir(self.config.queue_dir))
        except OSError:
            names = []
        return not any(name.endswith(".json") for name in names)

    def _drain_expired(self) -> bool:
        return (
            self._draining
            and self._drain_deadline is not None
            and time.monotonic() > self._drain_deadline
        )

    def _shutdown(self) -> None:
        """Preempt and requeue whatever is still in flight (drain-grace
        expiry or an exception unwinding the loop)."""
        for worker, slot in list(self.slots.items()):
            del self.slots[worker]
            how = worker.stop()
            obs.event(
                "watchdog.preempt",
                job=slot.job.id,
                pid=worker.pid,
                reason="drain",
                how=how,
            )
            # Drain preemption is the daemon's choice, not the engine's
            # fault: requeue without blaming a strategy.
            self._reap(slot, "preempted by drain", blame=None)

    def run(self) -> int:
        """Serve until drained (or until idle with ``until_idle``).

        Returns 0 on a clean exit; raises :class:`ServeError` on setup
        problems (another live daemon, no fork support).
        """
        self._acquire_pidfile()
        previous_handlers = {}
        try:
            records = self.store.open()
            self.board.load_json(self.store.breaker_payload)
            for job_id, (pid, start) in _orphan_workers(records).items():
                # Only the very process the dead daemon journaled: a
                # recycled pid has another start time, and a record
                # without one identifies nothing.
                if start is None or _start_time(pid) != start:
                    continue
                kill_pid(pid)
                obs.event("serve.orphan_killed", job=job_id, pid=pid)
                self._note(
                    f"[serve] killed orphan worker {pid} ({job_id}) "
                    f"left by a dead daemon"
                )
            if self.journal.torn_tail:
                self._note("[serve] journal: torn tail dropped")
            resumed = sum(
                1 for j in self.store.jobs.values() if j.state == QUEUED
            )
            self._note(
                f"[serve] queue {self.config.queue_dir}: "
                f"{len(self.store.jobs)} job(s) replayed, "
                f"{resumed} pending, {self.config.workers} worker(s)"
            )
            obs.event(
                "serve.start",
                jobs_replayed=len(self.store.jobs),
                pending=resumed,
                workers=self.config.workers,
            )
            if self.config.install_signals:
                for signum in (signal.SIGTERM, signal.SIGINT):
                    previous_handlers[signum] = signal.signal(
                        signum, self._request_drain
                    )
            while True:
                if not self._draining:
                    self._scan_inbox()
                    self._launch_ready()
                self._poll_workers()
                self._run_watchdog()
                self.store.maybe_rotate()
                if self._draining and (
                    not self.slots or self._drain_expired()
                ):
                    self._shutdown()
                    break
                if (
                    self.config.until_idle
                    and not self._draining
                    and self._idle()
                ):
                    break
            obs.event(
                "serve.stop",
                done=self.jobs_done,
                preemptions=self.preemptions,
                worker_deaths=self.worker_deaths,
            )
            self._note(
                f"[serve] exiting: {self.jobs_done} job(s) done, "
                f"{self.preemptions} preemption(s), "
                f"{self.worker_deaths} worker death(s)"
            )
            return 0
        finally:
            self._shutdown()
            self.journal.close()
            self._release_pidfile()
            for signum, handler in previous_handlers.items():
                signal.signal(signum, handler)
