"""``repro.serve``: the crash-tolerant verification service.

A supervised daemon (:mod:`repro.serve.daemon`) turns the one-shot CLI
into a long-running engine farm: a write-ahead-logged job queue
(:mod:`repro.serve.journal`, :mod:`repro.serve.queue`) survives
``kill -9``; a heartbeat watchdog policy (:mod:`repro.serve.watchdog`)
decides when to preempt hung and RSS-runaway workers, which run and
stop through :mod:`repro.parallel.pool`; per-strategy circuit breakers
(:mod:`repro.serve.breaker`) quarantine crash-looping engines so the
portfolio degrades to the survivors; and admission control sheds load
with a structured ``RETRY_LATER`` reply instead of accepting unbounded
work.  :mod:`repro.serve.client` is the sockets-free file protocol
(`repro submit` / `repro status`).
"""

from repro.serve.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerBoard,
    CircuitBreaker,
)
from repro.serve.client import (
    make_job,
    queue_status,
    read_result,
    render_status,
    submit_job,
    wait_for,
)
from repro.serve.daemon import (
    Daemon,
    ServeConfig,
    ServeError,
    ensure_layout,
    job_worker_main,
)
from repro.serve.journal import Journal, JournalCorrupt, replay_dir
from repro.serve.queue import (
    DEFAULT_MAX_ATTEMPTS,
    DONE,
    QUEUED,
    RETRY_LATER,
    RUNNING,
    Job,
    JobStore,
    backoff_seconds,
    fold_records,
    new_job_id,
)
from repro.serve.watchdog import (
    HANG,
    RSS_RUNAWAY,
    STALE_HEARTBEAT,
    WatchdogPolicy,
    rss_of,
)

__all__ = [
    "BreakerBoard",
    "CLOSED",
    "CircuitBreaker",
    "DEFAULT_MAX_ATTEMPTS",
    "DONE",
    "Daemon",
    "HALF_OPEN",
    "HANG",
    "Job",
    "JobStore",
    "Journal",
    "JournalCorrupt",
    "OPEN",
    "QUEUED",
    "RETRY_LATER",
    "RSS_RUNAWAY",
    "RUNNING",
    "STALE_HEARTBEAT",
    "ServeConfig",
    "ServeError",
    "WatchdogPolicy",
    "backoff_seconds",
    "ensure_layout",
    "fold_records",
    "job_worker_main",
    "make_job",
    "new_job_id",
    "queue_status",
    "read_result",
    "render_status",
    "replay_dir",
    "rss_of",
    "submit_job",
    "wait_for",
]
