"""Tests for the durable job model (:mod:`repro.serve.queue`):
journal fold semantics, admission control, backoff, retry budgets.
"""

from repro.serve.journal import Journal, replay_dir
from repro.serve.queue import (
    DEFAULT_MAX_ATTEMPTS,
    DONE,
    QUEUED,
    Job,
    JobStore,
    backoff_seconds,
    fold_records,
    new_job_id,
)


def make_job(job_id="j1", **kwargs):
    kwargs.setdefault("name", "demo")
    kwargs.setdefault("netlist", "circuit c\n")
    kwargs.setdefault("target", {"bad": 1})
    return Job(id=job_id, **kwargs)


def make_store(tmp_path, **kwargs):
    journal = Journal(str(tmp_path / "journal"), fsync=False)
    store = JobStore(journal, **kwargs)
    store.open()
    return store


class TestBackoff:
    def test_deterministic(self):
        assert backoff_seconds("j1", 2) == backoff_seconds("j1", 2)

    def test_exponential_growth(self):
        base = [backoff_seconds("j1", a, base=1.0, cap=1e9)
                for a in (1, 2, 3, 4)]
        for earlier, later in zip(base, base[1:]):
            assert later > earlier

    def test_jitter_within_half(self):
        for attempt in (1, 2, 3):
            raw = 0.25 * 2.0 ** (attempt - 1)
            value = backoff_seconds("jx", attempt, cap=1e9)
            assert raw <= value <= raw * 1.5

    def test_cap(self):
        assert backoff_seconds("j1", 30, base=1.0, cap=7.0) == 7.0

    def test_decorrelated_across_jobs(self):
        values = {backoff_seconds(new_job_id(), 3) for _ in range(16)}
        assert len(values) > 1


class TestJobSpec:
    def test_roundtrip(self):
        job = make_job(strategies=["bmc"], timeout=2.5, chaos="rfn=crash",
                       max_attempts=3, submitted=123.0)
        clone = Job.from_spec(job.spec_json())
        assert clone.spec_json() == job.spec_json()

    def test_status_json_fields(self):
        job = make_job()
        job.verdict = "verified"
        status = job.status_json()
        assert status["id"] == "j1"
        assert status["verdict"] == "verified"
        assert status["infrastructure"] is False
        assert "netlist" not in status  # client view stays small


class TestFold:
    def submit_record(self, job):
        return {"type": "submit", "job": job.spec_json()}

    def test_submit_start_done(self):
        job = make_job()
        jobs = fold_records([
            self.submit_record(job),
            {"type": "start", "id": "j1", "attempt": 1, "pid": 7},
            {"type": "done", "id": "j1", "verdict": "verified",
             "winner": "bdd", "seconds": 0.5},
        ])
        folded = jobs["j1"]
        assert folded.state == DONE
        assert folded.verdict == "verified"
        assert folded.winner == "bdd"
        assert folded.attempt == 1

    def test_duplicate_submit_is_idempotent(self):
        job = make_job()
        jobs = fold_records(
            [self.submit_record(job), self.submit_record(job)]
        )
        assert len(jobs) == 1

    def test_first_done_wins(self):
        job = make_job()
        jobs = fold_records([
            self.submit_record(job),
            {"type": "done", "id": "j1", "verdict": "verified"},
            {"type": "done", "id": "j1", "verdict": "falsified"},
        ])
        assert jobs["j1"].verdict == "verified"

    def test_inflight_at_crash_folds_back_to_queued(self):
        """The crash-recovery semantics the kill-restart invariant
        rests on: a trailing ``start`` means the daemon died with the
        job running -- it returns to the queue, attempt consumed."""
        job = make_job()
        jobs = fold_records([
            self.submit_record(job),
            {"type": "start", "id": "j1", "attempt": 3, "pid": 7},
        ])
        folded = jobs["j1"]
        assert folded.state == QUEUED
        assert folded.attempt == 3
        assert folded.pid is None

    def test_worker_record_carries_pid_until_folded_back(self):
        job = make_job()
        jobs = fold_records([
            self.submit_record(job),
            {"type": "start", "id": "j1", "attempt": 1, "pid": None},
            {"type": "worker", "id": "j1", "pid": 4242},
            {"type": "done", "id": "j1", "verdict": "verified"},
        ])
        assert jobs["j1"].pid is None  # terminal: worker is gone

    def test_requeue_returns_to_queue(self):
        job = make_job()
        jobs = fold_records([
            self.submit_record(job),
            {"type": "start", "id": "j1", "attempt": 1, "pid": 7},
            {"type": "requeue", "id": "j1", "attempt": 1,
             "reason": "worker died"},
        ])
        assert jobs["j1"].state == QUEUED
        assert jobs["j1"].detail == "worker died"

    def test_snapshot_resets_fold(self):
        old = make_job("jold")
        spec = make_job("jnew").spec_json()
        spec.update(state=QUEUED, attempt=2)
        jobs = fold_records([
            self.submit_record(old),
            {"type": "snapshot", "jobs": [spec], "breakers": {}},
        ])
        assert set(jobs) == {"jnew"}
        assert jobs["jnew"].attempt == 2

    def test_snapshot_running_job_returns_to_queue(self):
        spec = make_job().spec_json()
        spec.update(state="running", attempt=1)
        jobs = fold_records([{"type": "snapshot", "jobs": [spec]}])
        assert jobs["j1"].state == QUEUED

    def test_unknown_record_types_ignored(self):
        jobs = fold_records([{"type": "from-the-future", "id": "x"}])
        assert jobs == {}


class TestJobStore:
    def test_submit_claim_finish(self, tmp_path):
        store = make_store(tmp_path)
        assert store.submit(make_job())
        job = store.claim(now=0.0)
        assert job is not None and job.id == "j1"
        store.start(job, pid=77, strategies=["bmc"])
        store.finish(job, verdict="verified", winner="bmc", seconds=0.1)
        assert store.claim(now=1.0) is None
        assert job.terminal

    def test_resubmit_known_id_is_noop(self, tmp_path):
        store = make_store(tmp_path)
        store.submit(make_job())
        appended = store.journal.appended
        assert store.submit(make_job())  # same id
        assert store.journal.appended == appended

    def test_admission_sheds_at_max_queue(self, tmp_path):
        store = make_store(tmp_path, max_queue=2)
        assert store.submit(make_job("a"))
        assert store.submit(make_job("b"))
        assert not store.submit(make_job("c"))
        assert store.shed == 1
        # Terminal jobs free their slot.
        job = store.claim(now=0.0)
        store.start(job, pid=1, strategies=["bmc"])
        store.finish(job, verdict="verified")
        assert store.submit(make_job("c"))

    def test_claim_is_fifo_and_respects_backoff(self, tmp_path):
        store = make_store(tmp_path)
        store.submit(make_job("a"))
        store.submit(make_job("b"))
        first = store.claim(now=0.0)
        assert first.id == "a"
        first.not_before = 100.0  # backing off
        assert store.claim(now=0.0).id == "b"
        assert store.claim(now=200.0).id == "a"

    def test_requeue_applies_backoff_and_budget(self, tmp_path):
        store = make_store(tmp_path, backoff_base=1000.0)
        store.submit(make_job(max_attempts=2))
        job = store.claim(now=0.0)
        store.start(job, pid=1, strategies=["bmc"])
        assert store.requeue(job, "worker died")
        assert job.state == QUEUED
        assert store.claim(now=0.0) is None  # not_before in the future

    def test_retry_exhaustion_is_infrastructure_error(self, tmp_path):
        store = make_store(tmp_path, backoff_base=0.0, backoff_cap=0.0)
        store.submit(make_job(max_attempts=2))
        job = store.claim(now=0.0)
        store.start(job, pid=1, strategies=["bmc"])
        assert store.requeue(job, "worker died")  # attempt 1 of 2
        job.not_before = 0.0
        job = store.claim(now=0.0)
        store.start(job, pid=1, strategies=["bmc"])
        assert not store.requeue(job, "worker died")
        assert job.terminal
        assert job.verdict == "error"
        assert job.infrastructure
        assert "retry budget exhausted" in job.detail

    def test_default_max_attempts_allows_breaker_trip(self):
        # The breaker trips after 3 consecutive failures; the job must
        # still have attempts left to finish on surviving engines.
        assert DEFAULT_MAX_ATTEMPTS > 3

    def test_reopen_replays_identical_fold(self, tmp_path):
        store = make_store(tmp_path)
        store.submit(make_job("a"))
        store.submit(make_job("b"))
        job = store.claim(now=0.0)
        store.start(job, pid=9, strategies=["bmc"])
        store.record_breaker("rfn", {"state": "open"})
        store.journal.close()

        reopened = make_store(tmp_path)
        assert set(reopened.jobs) == {"a", "b"}
        assert reopened.jobs["a"].state == QUEUED  # in flight at crash
        assert reopened.jobs["a"].attempt == 1
        assert reopened.jobs["b"].state == QUEUED
        assert reopened.breaker_payload == {"rfn": {"state": "open"}}
        reopened.journal.close()

    def test_snapshot_rotation_preserves_fold(self, tmp_path):
        store = make_store(tmp_path)
        store.submit(make_job("a"))
        job = store.claim(now=0.0)
        store.start(job, pid=2, strategies=["bmc"])
        store.finish(job, verdict="falsified", seconds=0.2)
        store.submit(make_job("b"))
        store.record_breaker("bdd", {"state": "closed"})
        store.journal.rotate(store.snapshot_records())
        store.journal.close()

        reopened = make_store(tmp_path)
        assert reopened.jobs["a"].verdict == "falsified"
        assert reopened.jobs["b"].state == QUEUED
        assert reopened.breaker_payload == {"bdd": {"state": "closed"}}
        records = replay_dir(str(tmp_path / "journal"))
        assert records[0]["type"] == "snapshot"
        reopened.journal.close()
