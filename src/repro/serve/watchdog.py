"""Heartbeat watchdog: detect and preempt wedged or runaway workers.

A worker that segfaults closes its result pipe -- the daemon's poll
loop sees EOF and recovers without any help.  The watchdog exists for
the failures that *don't* announce themselves:

- a **hung** engine (solver wedged in an uninterruptible loop, or a
  ``sleep`` chaos fault): the process is alive, heartbeating, and will
  never return.  Caught by the per-attempt runtime lease
  (``hang_seconds``).
- a **frozen** process (SIGSTOP, swap death): the heartbeat thread
  stops updating the shared timestamp.  Caught by
  ``heartbeat_timeout``.
- a **memory-runaway** worker heading for the kernel OOM killer:
  caught by polling ``/proc/<pid>/status`` RSS against
  ``rss_limit_mb`` and preempting *before* the kernel picks a victim
  at random.

Policy (:class:`WatchdogPolicy`, pure and clock-injectable for tests)
is separated from mechanism (:meth:`repro.parallel.pool.Worker.stop`):
preemption sends SIGTERM, waits the pool's grace for a clean death,
then escalates to SIGKILL -- a worker stuck in an uninterruptible
syscall cannot dodge it.  The daemon then requeues the job with backoff
and feeds the failure to the responsible strategy's circuit breaker.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

#: Watchdog violation kinds (the ``reason`` on preempt events).
HANG = "hang"
STALE_HEARTBEAT = "stale-heartbeat"
RSS_RUNAWAY = "rss-runaway"


def rss_of(pid: int) -> Optional[float]:
    """Resident set size of another process in MB via ``/proc``;
    None when unreadable (non-Linux, or the process is gone)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return float(line.split()[1]) / 1024.0
    except (OSError, ValueError, IndexError):
        return None
    return None


@dataclass
class WatchdogPolicy:
    """When is a live worker considered lost?  (Pure; test-friendly.)

    ``hang_seconds`` is the per-attempt runtime lease; ``None`` disables
    that check (likewise the other two).
    """

    hang_seconds: Optional[float] = 300.0
    heartbeat_timeout: Optional[float] = 15.0
    rss_limit_mb: Optional[float] = None

    def check(
        self,
        started: float,
        last_beat: float,
        rss_mb: Optional[float],
        now: Optional[float] = None,
    ) -> Optional[str]:
        """Violation kind, or None while the worker is healthy."""
        now = time.monotonic() if now is None else now
        if (
            self.hang_seconds is not None
            and now - started > self.hang_seconds
        ):
            return HANG
        if (
            self.heartbeat_timeout is not None
            and now - last_beat > self.heartbeat_timeout
        ):
            return STALE_HEARTBEAT
        if (
            self.rss_limit_mb is not None
            and rss_mb is not None
            and rss_mb > self.rss_limit_mb
        ):
            return RSS_RUNAWAY
        return None
