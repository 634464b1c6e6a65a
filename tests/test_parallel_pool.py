"""The process layer under race, shard and serve (``repro.parallel.pool``).

Each test pins one piece of the pool: the child bootstrap (default
signal handlers, zeroed ``PERF``, a fresh tracer, no inherited parent
pipe ends), ``recv``'s death report, ``stop``'s escalation and the late
message it keeps, and ``wait``'s readiness filter.
"""

import os
import signal
import time

import pytest

from repro.kernel.perf import PERF
from repro.obs import tracer as obs
from repro.parallel.pool import (
    GRACE_SECONDS,
    Worker,
    WorkerDied,
    fork_context,
    wait,
)

pytestmark = pytest.mark.skipif(
    fork_context() is None, reason="needs the fork start method"
)


def _sleep(conn):
    time.sleep(60)


def _ignore_sigterm(conn):
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    conn.send("ignoring SIGTERM")
    time.sleep(60)


def _exit_now(conn):
    pass


def _exit_17(conn):
    conn.close()  # the parent reads EOF before the exit happens
    time.sleep(0.3)
    os._exit(17)


def _last_words(conn):
    conn.send("last words")
    time.sleep(60)


def _until_eof(conn):
    try:
        while True:
            conn.recv()
    except EOFError:
        pass


def test_stop_sigterm_ends_a_sleeping_worker():
    worker = Worker(_sleep)
    assert worker.stop() == "sigterm"
    assert worker.exitcode == -signal.SIGTERM


def test_stop_escalates_to_sigkill():
    worker = Worker(_ignore_sigterm)
    assert worker.recv() == "ignoring SIGTERM"
    start = time.monotonic()
    assert worker.stop() == "sigkill"
    assert worker.exitcode == -signal.SIGKILL
    assert time.monotonic() - start >= GRACE_SECONDS


def test_stop_on_exited_worker_is_dead_and_idempotent():
    worker = Worker(_exit_now)
    worker.process.join(10)
    assert worker.stop() == "dead"
    assert worker.stop() == "dead"
    assert worker.exitcode == 0


def test_recv_reports_death_with_exit_code():
    worker = Worker(_exit_17)
    with pytest.raises(WorkerDied) as died:
        worker.recv()
    assert died.value.exitcode == 17
    assert worker.stop() == "dead"


def test_stop_keeps_a_message_sent_before_teardown():
    worker = Worker(_last_words)
    assert wait([worker], timeout=10.0) == [worker]
    assert worker.stop() == "sigterm"
    assert worker.late == "last words"


def test_wait_returns_only_ready_workers():
    sleeper, talker = Worker(_sleep), Worker(_last_words)
    try:
        assert wait([sleeper, talker], timeout=10.0) == [talker]
    finally:
        sleeper.stop()
        talker.stop()


def test_bootstrap_zeroes_perf():
    PERF.reset()
    PERF.bump("pool.test_bump", 5)
    try:
        worker = Worker(
            lambda conn: conn.send(
                PERF.snapshot()["counters"].get("pool.test_bump", 0)
            )
        )
        assert worker.recv() == 0
        worker.stop()
    finally:
        PERF.reset()


def test_bootstrap_restores_default_signal_handlers():
    """The daemon installs drain handlers before it forks; a worker must
    still die on SIGTERM and SIGINT."""

    def drain(signum, frame):
        pass

    watched = (signal.SIGTERM, signal.SIGINT)
    previous = {signum: signal.signal(signum, drain) for signum in watched}
    try:
        worker = Worker(
            lambda conn: conn.send(
                [signal.getsignal(signum) == signal.SIG_DFL
                 for signum in watched]
            )
        )
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    assert worker.recv() == [True, True]
    worker.stop()


def test_bootstrap_drops_the_inherited_trace():
    obs.TRACER.enable()
    try:
        worker = Worker(lambda conn: conn.send(obs.TRACER.drain()))
        assert worker.recv() == []
        worker.stop()
    finally:
        obs.TRACER.close()
        obs.TRACER.drain()


def test_bootstrap_closes_the_parent_ends_it_inherited():
    """B is forked while A runs, so B inherits A's parent end; A still
    sees EOF when the parent closes its end."""
    a = Worker(_until_eof)
    b = Worker(_sleep)
    try:
        a.conn.close()
        a.process.join(10)
        assert a.exitcode == 0
    finally:
        a.stop()
        b.stop()
