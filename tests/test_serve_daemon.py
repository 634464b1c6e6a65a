"""Integration tests for the verification service
(:mod:`repro.serve.daemon`).

The expensive guarantees are pinned here:

- the **kill-restart invariant**: SIGKILL the daemon at a random
  instant, restart it, and every job still reaches exactly the verdict
  an uninterrupted run would have produced -- no lost jobs, no
  duplicate results;
- **graceful drain**: SIGTERM finishes/requeues in-flight work and
  exits 0;
- **watchdog preemption**: a worker hung by a ``sleep`` chaos fault is
  SIGTERM/SIGKILLed and the job retried;
- **breaker degradation**: a 100%-crashing strategy is quarantined
  within 3 attempts while the job still completes on the surviving
  engines.

In-process daemons run with ``fsync=False`` and tight poll intervals
for speed; the subprocess tests use the real CLI entry point with
default durability.
"""

import json
import os
import random
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.fuzz.gen import GenConfig, generate_instance
from repro.fuzz.shrink import instance_to_text
from repro.netlist import circuit_to_text
from repro.obs.report import render_report
from repro.parallel.worker import run_strategy
from repro.serve import (
    OPEN,
    RETRY_LATER,
    Daemon,
    Job,
    ServeConfig,
    ServeError,
    make_job,
    queue_status,
    read_result,
    render_status,
    submit_job,
)
from repro.serve.daemon import checkpoints_dir, pidfile_path
from repro.serve.journal import replay_dir
from tests.conftest import buggy_counter, saturating_counter

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="repro serve requires fork"
)


def fast_config(queue_dir, **kwargs):
    base = dict(
        queue_dir=queue_dir,
        workers=2,
        poll_seconds=0.02,
        drain_grace=2.0,
        until_idle=True,
        install_signals=False,
        fsync=False,
        backoff_base=0.01,
        backoff_cap=0.05,
        breaker_cooldown=60.0,  # stays open for the whole test
    )
    base.update(kwargs)
    return ServeConfig(**base)


def design_job(design_fn, name, **kwargs):
    circuit, prop = design_fn()
    return make_job(
        circuit_to_text(circuit),
        name=name,
        target=dict(prop.target),
        prop_name=prop.name,
        **kwargs,
    )


class TestVerdicts:
    def test_until_idle_resolves_queue(self, tmp_path):
        queue_dir = str(tmp_path / "q")
        true_id = submit_job(
            queue_dir, design_job(saturating_counter, "sat")
        )
        false_id = submit_job(queue_dir, design_job(buggy_counter, "cnt"))
        daemon = Daemon(fast_config(queue_dir))
        assert daemon.run() == 0
        assert daemon.jobs_done == 2

        true_result = read_result(queue_dir, true_id)
        assert true_result["verdict"] == "verified"
        assert true_result["winner"] is not None
        assert not true_result["infrastructure"]
        false_result = read_result(queue_dir, false_id)
        assert false_result["verdict"] == "falsified"
        assert false_result["trace_length"] is not None
        # A clean exit releases the pidfile.
        assert not os.path.exists(pidfile_path(queue_dir))

    def test_rfn_strategy_writes_checkpoint(self, tmp_path):
        queue_dir = str(tmp_path / "q")
        job_id = submit_job(
            queue_dir,
            design_job(buggy_counter, "cnt", strategies=["rfn"]),
        )
        assert Daemon(fast_config(queue_dir)).run() == 0
        assert read_result(queue_dir, job_id)["verdict"] == "falsified"
        assert os.path.exists(
            os.path.join(checkpoints_dir(queue_dir), f"{job_id}.json")
        )

    def test_status_client_reads_live_journal(self, tmp_path):
        queue_dir = str(tmp_path / "q")
        job_id = submit_job(
            queue_dir, design_job(saturating_counter, "sat")
        )
        Daemon(fast_config(queue_dir)).run()
        status = queue_status(queue_dir)
        assert status["counts"] == {"verified": 1}
        assert status["inbox_pending"] == 0
        rendered = render_status(status)
        assert job_id in rendered
        assert "verified" in rendered


class TestBadSubmissions:
    def test_malformed_netlist_is_permanent_error(self, tmp_path):
        """A job whose payload cannot even parse must fail once,
        cleanly -- retrying cannot help."""
        queue_dir = str(tmp_path / "q")
        job = Job(id="jbad", name="bad", netlist="this is not a netlist",
                  target={"x": 1})
        submit_job(queue_dir, job)
        daemon = Daemon(fast_config(queue_dir))
        assert daemon.run() == 0
        result = read_result(queue_dir, "jbad")
        assert result["verdict"] == "error"
        assert result["attempt"] == 1  # no retry storm

    def test_malformed_inbox_file_is_dropped(self, tmp_path):
        queue_dir = str(tmp_path / "q")
        inbox = os.path.join(queue_dir, "inbox")
        os.makedirs(inbox)
        with open(os.path.join(inbox, "junk.json"), "w") as handle:
            handle.write("{truncated")
        assert Daemon(fast_config(queue_dir)).run() == 0
        assert os.listdir(inbox) == []

    def test_inbox_job_naming_unknown_strategy_is_dropped(self, tmp_path):
        """A hand-written submission naming an engine the registry does
        not know is malformed: dropped at the inbox, never run."""
        queue_dir = str(tmp_path / "q")
        job = design_job(saturating_counter, "sat")
        job.strategies = ["nope", "bmc"]
        submit_job(queue_dir, job)
        daemon = Daemon(fast_config(queue_dir))
        assert daemon.run() == 0
        assert os.listdir(os.path.join(queue_dir, "inbox")) == []
        assert daemon.store.jobs == {}
        assert read_result(queue_dir, job.id) is None

    def test_replay_keeps_job_naming_unknown_strategy(self):
        """Journal replay rebuilds jobs through ``Job.from_spec``, which
        must not check names: a journaled job is never dropped."""
        spec = design_job(saturating_counter, "sat").spec_json()
        spec["strategies"] = ["nope"]
        assert Job.from_spec(spec).strategies == ["nope"]

    def test_client_rejects_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown engine 'nope'"):
            design_job(saturating_counter, "sat", strategies=["nope"])

    def test_client_rejects_malformed_netlist(self):
        with pytest.raises(Exception):
            make_job("gibberish {", name="x", target={"a": 1})

    def test_client_requires_property_source(self):
        with pytest.raises(ValueError):
            make_job("circuit c\n", name="x")  # no target, no directive


class TestAdmissionControl:
    def test_overflow_sheds_with_retry_later(self, tmp_path):
        queue_dir = str(tmp_path / "q")
        ids = [
            submit_job(
                queue_dir, design_job(saturating_counter, f"sat{i}")
            )
            for i in range(3)
        ]
        daemon = Daemon(fast_config(queue_dir, max_queue=1, workers=1))
        assert daemon.run() == 0
        results = [read_result(queue_dir, job_id) for job_id in ids]
        shed = [r for r in results if r.get("reply") == RETRY_LATER]
        done = [r for r in results if r.get("verdict") == "verified"]
        # One admitted; the inbox scan sheds the rest in the same pass.
        assert len(done) == 1
        assert len(shed) == 2
        assert all("queue full" in r["detail"] for r in shed)
        assert daemon.store.shed == 2


class TestPidfile:
    def test_second_daemon_refused(self, tmp_path):
        queue_dir = str(tmp_path / "q")
        os.makedirs(queue_dir)
        with open(pidfile_path(queue_dir), "w") as handle:
            handle.write(f"{os.getpid()}\n")  # a very alive process
        with pytest.raises(ServeError):
            Daemon(fast_config(queue_dir)).run()

    def test_stale_pidfile_reclaimed(self, tmp_path):
        queue_dir = str(tmp_path / "q")
        os.makedirs(queue_dir)
        with open(pidfile_path(queue_dir), "w") as handle:
            handle.write("99999999\n")  # beyond pid_max: never alive
        assert Daemon(fast_config(queue_dir)).run() == 0


class TestBreakerDegradation:
    def test_crash_strategy_quarantined_within_three_attempts(
        self, tmp_path
    ):
        """The acceptance scenario: a strategy that kills its worker on
        every attempt trips its breaker by attempt 3, and the job still
        reaches a definite verdict on the surviving engines."""
        queue_dir = str(tmp_path / "q")
        job_id = submit_job(
            queue_dir,
            design_job(
                saturating_counter,
                "sat",
                strategies=["rfn", "kinduction"],
                chaos="rfn=crash",
            ),
        )
        daemon = Daemon(fast_config(queue_dir, workers=1))
        assert daemon.run() == 0
        assert daemon.worker_deaths == 3
        assert daemon.board.breaker("rfn").state == OPEN
        result = read_result(queue_dir, job_id)
        assert result["verdict"] == "verified"
        assert result["winner"] == "kinduction"
        assert result["attempt"] == 4  # 3 crashes + 1 degraded success
        assert not result["infrastructure"]
        # The trip is journaled, so a restart remembers the quarantine.
        records = replay_dir(os.path.join(queue_dir, "journal"))
        trips = [r for r in records if r.get("type") == "breaker"
                 and r.get("strategy") == "rfn"]
        assert any(t["payload"]["state"] == OPEN for t in trips)

    def test_all_crashing_exhausts_retry_budget(self, tmp_path):
        """No surviving engine: the retry budget bounds the crash loop
        and the job terminates as an *infrastructure* error, never a
        property verdict."""
        queue_dir = str(tmp_path / "q")
        job_id = submit_job(
            queue_dir,
            design_job(
                saturating_counter,
                "sat",
                strategies=["bmc"],
                chaos="bmc=crash",
                max_attempts=3,
            ),
        )
        daemon = Daemon(fast_config(queue_dir, workers=1))
        assert daemon.run() == 0
        result = read_result(queue_dir, job_id)
        assert result["verdict"] == "error"
        assert result["infrastructure"] is True
        assert "retry budget exhausted" in result["detail"]


class TestWatchdog:
    def test_hung_worker_preempted_and_job_recovers(self, tmp_path):
        """A ``sleep`` chaos fault wedges the first strategy forever;
        the watchdog preempts the worker on its runtime lease, the
        breaker quarantines the hanging engine, and the job finishes
        on the fallback."""
        queue_dir = str(tmp_path / "q")
        job_id = submit_job(
            queue_dir,
            design_job(
                buggy_counter,
                "cnt",
                strategies=["kinduction", "bmc"],
                chaos="kinduction=sleep",
            ),
        )
        daemon = Daemon(
            fast_config(
                queue_dir,
                workers=1,
                hang_seconds=0.4,
                heartbeat_timeout=None,
            )
        )
        assert daemon.run() == 0
        assert daemon.preemptions == 3
        assert daemon.board.breaker("kinduction").state == OPEN
        result = read_result(queue_dir, job_id)
        assert result["verdict"] == "falsified"
        assert result["winner"] == "bmc"


class TestDrain:
    def test_drain_requeues_without_blaming_the_strategy(self, tmp_path):
        """A graceful drain preempts a job mid-strategy by the daemon's
        choice, not the engine's fault: the running strategy's breaker
        window stays empty, and the job goes back to the queue with the
        attempt it consumed."""
        queue_dir = str(tmp_path / "q")
        job_id = submit_job(
            queue_dir,
            design_job(
                buggy_counter,
                "cnt",
                strategies=["kinduction", "bmc"],
                chaos="kinduction=sleep",
            ),
        )
        daemon = Daemon(
            fast_config(
                queue_dir,
                workers=1,
                until_idle=False,
                drain_grace=0.1,
                hang_seconds=None,
                heartbeat_timeout=None,
            )
        )

        def drain_once_kinduction_runs():
            _wait_for(lambda: any(
                slot.current_strategy == "kinduction"
                for slot in list(daemon.slots.values())
            ))
            daemon._request_drain()

        trigger = threading.Thread(target=drain_once_kinduction_runs)
        trigger.start()
        try:
            assert daemon.run() == 0
        finally:
            trigger.join(timeout=60)
        assert list(daemon.board.breaker("kinduction").window) == []
        assert read_result(queue_dir, job_id) is None
        (job,) = queue_status(queue_dir)["jobs"]
        assert job["id"] == job_id
        assert job["state"] == "queued"
        assert job["attempt"] == 1


def _orphan_pids(records):
    """Job id -> pid of each worker the journal leaves in flight."""
    from repro.serve.daemon import _orphan_workers

    return {job_id: pid for job_id, (pid, _) in _orphan_workers(records).items()}


def _journal_orphan(queue_dir, job, pid, pid_start):
    """The journal a daemon SIGKILLed mid-job leaves: ``job`` started,
    its worker journaled as ``pid`` with ``pid_start``."""
    from repro.serve.journal import Journal

    os.makedirs(os.path.join(queue_dir, "journal"))
    journal = Journal(os.path.join(queue_dir, "journal"), fsync=False)
    journal.open()
    journal.append({"type": "submit", "job": job.spec_json()})
    journal.append({"type": "start", "id": job.id, "attempt": 1,
                    "pid": None, "strategies": ["bdd"],
                    "checkpoint": None})
    record = {"type": "worker", "id": job.id, "pid": pid}
    if pid_start is not None:
        record["pid_start"] = pid_start
    journal.append(record)
    journal.close()


class TestOrphanCleanup:
    def test_restart_kills_worker_left_by_dead_daemon(self, tmp_path):
        """A SIGKILLed daemon cannot reap its workers.  The journal
        carries each spawned worker's pid and start time, so the *next*
        daemon hunts the stragglers down before re-running their jobs."""
        from repro.serve.daemon import _start_time

        queue_dir = str(tmp_path / "q")
        job = design_job(saturating_counter, "sat")
        # A stand-in orphan that sleeps forever, journaled with the start
        # time read right after it was spawned, as the daemon does.
        orphan = subprocess.Popen(
            [sys.executable, "-c", "import time; time.sleep(600)"],
        )
        try:
            _journal_orphan(queue_dir, job, orphan.pid, _start_time(orphan.pid))
            assert _orphan_pids(replay_dir(
                os.path.join(queue_dir, "journal")
            )) == {job.id: orphan.pid}

            assert Daemon(fast_config(queue_dir)).run() == 0
            # The orphan is dead and the job still completed.
            assert orphan.wait(timeout=10) != 0
            assert read_result(queue_dir, job.id)["verdict"] == "verified"
        finally:
            if orphan.poll() is None:
                orphan.kill()
                orphan.wait()

    @pytest.mark.parametrize("journaled", ["other start time", "no start time"])
    def test_restart_spares_process_that_is_not_the_worker(
        self, tmp_path, journaled
    ):
        """The journaled pid is alive but does not carry the journaled
        start time (a recycled pid), or the record has no start time:
        the restarted daemon must leave that process alone."""
        from repro.serve.daemon import _start_time

        queue_dir = str(tmp_path / "q")
        job = design_job(saturating_counter, "sat")
        bystander = subprocess.Popen(
            [sys.executable, "-c", "import time; time.sleep(600)"],
        )
        try:
            start = _start_time(bystander.pid)
            assert start is not None
            _journal_orphan(
                queue_dir, job, bystander.pid,
                start + 1 if journaled == "other start time" else None,
            )
            assert Daemon(fast_config(queue_dir)).run() == 0
            assert bystander.poll() is None
            assert read_result(queue_dir, job.id)["verdict"] == "verified"
        finally:
            bystander.kill()
            bystander.wait()

    def test_snapshot_carries_worker_start_time(self, tmp_path):
        """Journal rotation folds the ``worker`` record into a snapshot;
        the orphan's identity must survive it."""
        from repro.serve.daemon import _orphan_workers
        from repro.serve.journal import Journal
        from repro.serve.queue import JobStore

        job = design_job(saturating_counter, "sat")
        store = JobStore(Journal(str(tmp_path / "j"), fsync=False))
        store.open()
        store.submit(job)
        store.start(store.claim(), pid=None, strategies=["bdd"])
        store.note_worker(job, 4242, 987654)
        assert _orphan_workers(store.snapshot_records()) == {
            job.id: (4242, 987654)
        }

    def test_finished_workers_are_not_orphans(self, tmp_path):
        records = [
            {"type": "worker", "id": "a", "pid": 100},
            {"type": "done", "id": "a", "verdict": "verified"},
            {"type": "worker", "id": "b", "pid": 200},
            {"type": "requeue", "id": "b", "attempt": 1},
            {"type": "worker", "id": "c", "pid": 300},
        ]
        assert _orphan_pids(records) == {"c": 300}


# ----------------------------------------------------------------------
# Subprocess tests: the real CLI daemon under real signals.
# ----------------------------------------------------------------------


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (env.get("PYTHONPATH"), "src") if p
    )
    return env


def _serve_argv(queue_dir, *extra):
    return [
        sys.executable, "-m", "repro", "serve",
        "--queue-dir", queue_dir, "--workers", "2", "--poll", "0.02",
        *extra,
    ]


def _wait_for(predicate, timeout=30.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestSignals:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        queue_dir = str(tmp_path / "q")
        job_id = submit_job(
            queue_dir, design_job(saturating_counter, "sat")
        )
        daemon = subprocess.Popen(
            _serve_argv(queue_dir), env=_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            assert _wait_for(
                lambda: read_result(queue_dir, job_id) is not None
            ), "daemon never produced the job result"
            daemon.send_signal(signal.SIGTERM)
            assert daemon.wait(timeout=30) == 0
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()
        assert read_result(queue_dir, job_id)["verdict"] == "verified"
        assert not os.path.exists(pidfile_path(queue_dir))

    def test_kill_restart_invariant(self, tmp_path):
        """The headline guarantee: 25 fuzz-seeded jobs, SIGKILL the
        daemon at a random instant mid-run, restart it -- and the
        final verdict set is exactly what an uninterrupted run
        produces (computed in-process from the same deterministic
        engines).  No lost jobs, no duplicates, no verdict flips."""
        gen_config = GenConfig(max_registers=3, max_gates=8)
        expected = {}
        jobs = []
        for seed in range(25):
            instance = generate_instance(seed, gen_config)
            envelope = run_strategy(
                "kinduction", instance.circuit, instance.prop, None
            )
            job = make_job(
                instance_to_text(instance),
                name=f"fuzz{seed}",
                strategies=["kinduction"],
            )
            expected[job.id] = envelope.verdict
            jobs.append(job)

        queue_dir = str(tmp_path / "q")
        for job in jobs:
            submit_job(queue_dir, job)

        daemon = subprocess.Popen(
            _serve_argv(queue_dir), env=_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            # Kill at an arbitrary instant: possibly mid-journal-append,
            # mid-result-write, or with workers in flight.
            time.sleep(random.Random(99).uniform(1.0, 3.0))
            daemon.send_signal(signal.SIGKILL)
        finally:
            daemon.wait()

        restarted = subprocess.run(
            _serve_argv(queue_dir, "--until-idle"),
            env=_env(), timeout=300,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        assert restarted.returncode == 0  # incl. stale-pidfile reclaim

        for job_id, verdict in expected.items():
            result = read_result(queue_dir, job_id)
            assert result is not None, f"{job_id}: no result after restart"
            assert result["verdict"] == verdict
            assert not result["infrastructure"]
        status = queue_status(queue_dir)
        assert len(status["jobs"]) == len(jobs)  # replay deduplicated
        assert sum(
            1 for job in status["jobs"] if job["state"] == "done"
        ) == len(jobs)
        assert status["inbox_pending"] == 0


class TestServeReport:
    def test_service_digest_renders(self):
        records = [
            {"type": "span", "name": "serve.job", "ts": 1.0, "dur": 0.5,
             "pid": 42, "outcome": "verified",
             "attrs": {"job": "j1", "attempt": 1, "name": "demo",
                       "strategies": "bdd,bmc"}},
            {"type": "event", "name": "watchdog.preempt",
             "attrs": {"pid": 43, "job": "j1", "reason": "hang",
                       "how": "sigkill"}},
            {"type": "event", "name": "serve.worker_death",
             "attrs": {"pid": 44, "job": "j1", "exitcode": -9,
                       "strategy": "rfn"}},
            {"type": "event", "name": "breaker.open",
             "attrs": {"strategy": "rfn"}},
            {"type": "event", "name": "serve.shed", "attrs": {}},
        ]
        report = render_report(records)
        assert "Service digest" in report
        assert "j1" in report
        assert "hang" in report
        assert "breaker rfn: open" in report
        assert "RETRY_LATER" in report

    def test_no_serve_records_no_section(self):
        assert "Service digest" not in render_report(
            [{"type": "span", "name": "rfn.iteration", "ts": 0.0,
              "dur": 0.1, "attrs": {"iter": 1}}]
        )
