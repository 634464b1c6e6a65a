"""Durable job model, queue state, and admission control.

A :class:`Job` is one verification obligation: an embedded netlist (the
text travels in the job record, so the queue is self-contained even if
the submitting file changes), an unreachability property, an optional
strategy subset / budget / chaos spec, and a retry allowance.

The :class:`JobStore` is the daemon's in-memory fold of the journal:
every mutation appends a WAL record *first* (see
:mod:`repro.serve.journal`), then updates the fold -- so the fold is
always reconstructible by replay.  Replay is idempotent: duplicate
``submit`` records are dropped by job id (the crash window between
journaling an inbox file and unlinking it re-scans the same submission),
duplicate ``done`` records keep the first verdict, and a ``start``
without a matching ``done``/``requeue`` means the daemon died with the
job in flight -- it folds back to *queued* with its attempt count
preserved, which is exactly the crash-recovery semantics the
kill-restart invariant test pins.

Admission control is a bounded queue: when ``queued + running`` reaches
``max_queue`` a submission is *shed* with a structured ``RETRY_LATER``
reply (written to the results directory so the submitting client sees
it) instead of growing without bound.

Requeue backoff is exponential with deterministic jitter (hashed from
the job id and attempt number, so tests can predict it) and a bounded
retry budget; a job that exhausts its attempts terminates with an
``error`` verdict flagged ``infrastructure: true`` -- infrastructure
failure is *reported*, never silently retried forever, and never
conflated with a property FAIL.
"""

from __future__ import annotations

import hashlib
import time
import uuid
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.serve.journal import Journal

# Job fold states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"

#: Structured load-shed reply (the client's cue to back off and retry).
RETRY_LATER = "RETRY_LATER"

#: Default retry allowance: first run + four retries.  High enough that
#: a crash-looping strategy trips its breaker (3 consecutive failures)
#: while the *job* still has attempts left to finish on the surviving
#: engines.
DEFAULT_MAX_ATTEMPTS = 5


def new_job_id() -> str:
    return "j" + uuid.uuid4().hex[:12]


def backoff_seconds(
    job_id: str,
    attempt: int,
    base: float = 0.25,
    cap: float = 30.0,
) -> float:
    """Exponential backoff with deterministic jitter.

    ``base * 2^(attempt-1)`` plus up to 50% jitter derived from
    ``sha256(job_id, attempt)`` -- deterministic for tests, decorrelated
    across jobs so a requeue storm spreads out instead of thundering
    back in lockstep.
    """
    attempt = max(1, attempt)
    raw = min(cap, base * (2.0 ** (attempt - 1)))
    digest = hashlib.sha256(f"{job_id}:{attempt}".encode()).digest()
    jitter = digest[0] / 255.0  # [0, 1]
    return min(cap, raw * (1.0 + 0.5 * jitter))


@dataclass
class Job:
    """One verification obligation plus its folded queue state."""

    id: str
    name: str
    netlist: str
    prop_name: str = "property"
    target: Dict[str, int] = field(default_factory=dict)
    strategies: Optional[List[str]] = None
    timeout: Optional[float] = None
    chaos: Optional[str] = None
    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    submitted: float = 0.0

    # -- folded state (not part of the submit payload) ------------------
    state: str = QUEUED
    attempt: int = 0
    pid: Optional[int] = None
    #: start time of ``pid`` (clock ticks after boot): with the pid it
    #: names the worker process for orphan cleanup after a restart
    pid_start: Optional[int] = None
    verdict: Optional[str] = None
    detail: str = ""
    winner: Optional[str] = None
    infrastructure: bool = False
    trace_length: Optional[int] = None
    seconds: float = 0.0
    checkpoint: Optional[str] = None
    #: monotonic instant before which the job may not be claimed
    #: (requeue backoff).  Not persisted: a restart re-anchors it to
    #: "now", which only *delays* a retry, never skips the backoff.
    not_before: float = 0.0

    @property
    def terminal(self) -> bool:
        return self.state == DONE

    def spec_json(self) -> dict:
        """The durable submit payload (everything replay needs)."""
        return {
            "id": self.id,
            "name": self.name,
            "netlist": self.netlist,
            "prop_name": self.prop_name,
            "target": dict(self.target),
            "strategies": (
                None if self.strategies is None else list(self.strategies)
            ),
            "timeout": self.timeout,
            "chaos": self.chaos,
            "max_attempts": self.max_attempts,
            "submitted": self.submitted,
        }

    @classmethod
    def from_spec(cls, payload: dict) -> "Job":
        return cls(
            id=str(payload["id"]),
            name=str(payload.get("name", "")),
            netlist=str(payload.get("netlist", "")),
            prop_name=str(payload.get("prop_name", "property")),
            target={
                str(k): int(v)
                for k, v in (payload.get("target") or {}).items()
            },
            strategies=(
                None
                if payload.get("strategies") is None
                else [str(s) for s in payload["strategies"]]
            ),
            timeout=payload.get("timeout"),
            chaos=payload.get("chaos"),
            max_attempts=int(
                payload.get("max_attempts", DEFAULT_MAX_ATTEMPTS)
            ),
            submitted=float(payload.get("submitted", 0.0)),
        )

    def status_json(self) -> dict:
        """The client-visible view (status tables, result files)."""
        return {
            "id": self.id,
            "name": self.name,
            "state": self.state,
            "attempt": self.attempt,
            "verdict": self.verdict,
            "detail": self.detail,
            "winner": self.winner,
            "infrastructure": self.infrastructure,
            "trace_length": self.trace_length,
            "seconds": round(self.seconds, 4),
            "checkpoint": self.checkpoint,
        }


def fold_records(records: List[dict]) -> Dict[str, Job]:
    """Replay journal records into job states (insertion-ordered).

    Shared by the daemon's :class:`JobStore` and the read-only status
    client, so both always agree on what the WAL means.
    """
    jobs: Dict[str, Job] = {}
    for record in records:
        kind = record.get("type")
        if kind == "snapshot":
            jobs = {}
            for spec in record.get("jobs", []):
                job = Job.from_spec(spec)
                job.state = spec.get("state", QUEUED)
                job.attempt = int(spec.get("attempt", 0))
                job.verdict = spec.get("verdict")
                job.detail = spec.get("detail", "")
                job.winner = spec.get("winner")
                job.infrastructure = bool(spec.get("infrastructure", False))
                job.trace_length = spec.get("trace_length")
                job.seconds = float(spec.get("seconds", 0.0))
                job.checkpoint = spec.get("checkpoint")
                if job.state == RUNNING:  # in flight at snapshot time
                    job.state = QUEUED
                jobs[job.id] = job
        elif kind == "submit":
            spec = record.get("job", {})
            job_id = str(spec.get("id", ""))
            if job_id and job_id not in jobs:  # idempotent re-submit
                jobs[job_id] = Job.from_spec(spec)
        elif kind == "start":
            job = jobs.get(record.get("id"))
            if job is not None and not job.terminal:
                job.state = RUNNING
                job.attempt = int(record.get("attempt", job.attempt + 1))
                job.pid = record.get("pid")
                job.checkpoint = record.get("checkpoint", job.checkpoint)
        elif kind == "worker":
            # Informational: the real worker pid, journaled right after
            # the spawn (the ``start`` record is written *before* the
            # fork, so it cannot carry one).  Lets a restarted daemon
            # hunt down orphaned workers.
            job = jobs.get(record.get("id"))
            if job is not None and not job.terminal:
                job.pid = record.get("pid")
        elif kind == "requeue":
            job = jobs.get(record.get("id"))
            if job is not None and not job.terminal:
                job.state = QUEUED
                job.pid = None
                job.detail = record.get("reason", job.detail)
        elif kind == "done":
            job = jobs.get(record.get("id"))
            if job is not None and not job.terminal:  # first done wins
                job.state = DONE
                job.pid = None
                job.verdict = record.get("verdict")
                job.detail = record.get("detail", "")
                job.winner = record.get("winner")
                job.infrastructure = bool(
                    record.get("infrastructure", False)
                )
                job.trace_length = record.get("trace_length")
                job.seconds = float(record.get("seconds", 0.0))
        # breaker / unknown record types are folded elsewhere / ignored,
        # so the journal format can grow without breaking old readers.
    # A job that was RUNNING when the tail of the journal was written
    # was in flight at crash time: it goes back to the queue with its
    # attempt count preserved (the crashed attempt stays consumed).
    for job in jobs.values():
        if job.state == RUNNING:
            job.state = QUEUED
            job.pid = None
    return jobs


class JobStore:
    """The daemon's journal-backed queue (see module docstring).

    Every mutator appends to the journal before touching the fold;
    ``open()`` replays the journal so a restarted daemon starts exactly
    where the dead one stopped.
    """

    def __init__(
        self,
        journal: Journal,
        max_queue: int = 64,
        backoff_base: float = 0.25,
        backoff_cap: float = 30.0,
    ) -> None:
        self.journal = journal
        self.max_queue = max_queue
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.jobs: Dict[str, Job] = {}
        self.breaker_payload: Dict[str, dict] = {}
        self.shed = 0

    # ------------------------------------------------------------------

    def open(self) -> List[dict]:
        records = self.journal.open()
        self.jobs = fold_records(records)
        for record in records:
            if record.get("type") == "breaker":
                payload = record.get("payload")
                if isinstance(payload, dict):
                    self.breaker_payload[record.get("strategy")] = payload
            elif record.get("type") == "snapshot":
                self.breaker_payload = dict(record.get("breakers", {}))
        return records

    # -- admission ------------------------------------------------------

    def active_count(self) -> int:
        return sum(1 for job in self.jobs.values() if not job.terminal)

    def submit(self, job: Job) -> bool:
        """Admit one job; False means load-shed (``RETRY_LATER``).

        Idempotent on job id: re-admitting a known id (inbox re-scan
        after a crash) succeeds without a duplicate record.
        """
        if job.id in self.jobs:
            return True
        if self.active_count() >= self.max_queue:
            self.shed += 1
            return False
        self.journal.append({"type": "submit", "job": job.spec_json()})
        self.jobs[job.id] = job
        return True

    # -- scheduling -----------------------------------------------------

    def claim(self, now: Optional[float] = None) -> Optional[Job]:
        """Oldest eligible queued job (FIFO, respecting backoff)."""
        now = time.monotonic() if now is None else now
        for job in self.jobs.values():
            if job.state == QUEUED and job.not_before <= now:
                return job
        return None

    def start(
        self,
        job: Job,
        pid: Optional[int],
        strategies: List[str],
        checkpoint: Optional[str] = None,
    ) -> None:
        job.attempt += 1
        job.state = RUNNING
        job.pid = pid
        job.checkpoint = checkpoint or job.checkpoint
        self.journal.append(
            {
                "type": "start",
                "id": job.id,
                "attempt": job.attempt,
                "pid": pid,
                "strategies": list(strategies),
                "checkpoint": job.checkpoint,
            }
        )

    def note_worker(
        self, job: Job, pid: int, pid_start: Optional[int]
    ) -> None:
        """Journal the spawned worker's pid and start time (orphan-cleanup
        anchor for the next daemon if this one is SIGKILLed mid-flight)."""
        job.pid = pid
        job.pid_start = pid_start
        self.journal.append(
            {"type": "worker", "id": job.id, "pid": pid,
             "pid_start": pid_start}
        )

    def requeue(self, job: Job, reason: str) -> bool:
        """Return a failed attempt to the queue with backoff.

        Returns False when the retry budget is exhausted -- the job is
        then *finished* as an infrastructure error instead (bounded
        retries, never an invisible crash loop).
        """
        if job.attempt >= job.max_attempts:
            from repro.engine import Verdict

            self.finish(
                job,
                verdict=Verdict.ERROR,
                detail=(
                    f"retry budget exhausted after {job.attempt} "
                    f"attempts (last: {reason})"
                ),
                infrastructure=True,
            )
            return False
        delay = backoff_seconds(
            job.id, job.attempt, self.backoff_base, self.backoff_cap
        )
        job.state = QUEUED
        job.pid = None
        job.detail = reason
        job.not_before = time.monotonic() + delay
        self.journal.append(
            {
                "type": "requeue",
                "id": job.id,
                "attempt": job.attempt,
                "reason": reason,
                "delay": round(delay, 3),
            }
        )
        return True

    def finish(
        self,
        job: Job,
        verdict: str,
        detail: str = "",
        winner: Optional[str] = None,
        infrastructure: bool = False,
        trace_length: Optional[int] = None,
        seconds: float = 0.0,
    ) -> None:
        job.state = DONE
        job.pid = None
        job.verdict = verdict
        job.detail = detail
        job.winner = winner
        job.infrastructure = infrastructure
        job.trace_length = trace_length
        job.seconds = seconds
        self.journal.append(
            {
                "type": "done",
                "id": job.id,
                "verdict": verdict,
                "detail": detail,
                "winner": winner,
                "infrastructure": infrastructure,
                "trace_length": trace_length,
                "seconds": round(seconds, 4),
            }
        )

    def record_breaker(self, strategy: str, payload: dict) -> None:
        self.breaker_payload[strategy] = payload
        self.journal.append(
            {"type": "breaker", "strategy": strategy, "payload": payload}
        )

    # -- compaction -----------------------------------------------------

    def snapshot_records(self) -> List[dict]:
        """One snapshot record reconstructing the entire fold (used by
        journal rotation)."""
        jobs = []
        for job in self.jobs.values():
            spec = job.spec_json()
            spec.update(
                state=job.state,
                attempt=job.attempt,
                pid=job.pid,
                pid_start=job.pid_start,
                verdict=job.verdict,
                detail=job.detail,
                winner=job.winner,
                infrastructure=job.infrastructure,
                trace_length=job.trace_length,
                seconds=round(job.seconds, 4),
                checkpoint=job.checkpoint,
            )
            jobs.append(spec)
        return [
            {
                "type": "snapshot",
                "jobs": jobs,
                "breakers": dict(self.breaker_payload),
            }
        ]

    def maybe_rotate(self) -> bool:
        return self.journal.maybe_rotate(self.snapshot_records)
