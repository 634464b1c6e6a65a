"""The one process layer: forked workers on a pipe, and how they stop.

The portfolio race, the sharded map and the serve daemon fork, read and
stop their workers through this module; who forks when, and what a
message or a death means, stay with them (DESIGN.md section 11).  Every
child runs one bootstrap before its target: SIGTERM and SIGINT back to
``SIG_DFL`` (a parent's drain or Ctrl-C handler must not make a worker
immortal), ``PERF`` zeroed (a worker's counters are its own delta), the
tracer's inherited sink dropped, and the parent ends of every live
worker's pipe closed, so a parent's death reads as EOF in each child.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import signal
import time
from typing import Any, Callable, List, Optional, Sequence, Set

from repro.kernel.perf import PERF
from repro.obs import tracer as obs

#: How long :func:`wait` blocks before its caller gets control back.
POLL_SECONDS = 0.05

#: How long a worker gets to die after SIGTERM, and again after SIGKILL.
GRACE_SECONDS = 2.0


def fork_context():
    """The fork start context, or None when the platform lacks it."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        return None


class WorkerDied(Exception):
    """A worker's pipe hit EOF: it exited without sending a message."""

    def __init__(self, exitcode: Optional[int]) -> None:
        super().__init__(f"worker exited (exitcode {exitcode})")
        self.exitcode = exitcode


#: Workers whose parent ends are still open in this process.  It is
#: process-wide on purpose: a fork copies every open pipe end, whichever
#: caller made it.
_LIVE: Set["Worker"] = set()


def _bootstrap(target: Callable, child_end, parent_end, args) -> None:
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    PERF.reset()
    obs.TRACER.fork_child()
    parent_end.close()
    for other in _LIVE:
        other.conn.close()
    _LIVE.clear()
    target(child_end, *args)


class Worker:
    """One forked child running ``target(conn, *args)``; the parent
    holds the other end of ``conn``."""

    def __init__(self, target: Callable, *args: Any) -> None:
        ctx = fork_context()
        self.conn, child_end = ctx.Pipe()
        self.process = ctx.Process(
            target=_bootstrap,
            args=(target, child_end, self.conn, args),
            daemon=True,
        )
        self.process.start()
        child_end.close()  # the child owns its end now
        self.pid: int = self.process.pid
        self.started = time.monotonic()
        #: the complete message :meth:`stop` found in the pipe, if any
        self.late: Any = None
        _LIVE.add(self)

    @property
    def exitcode(self) -> Optional[int]:
        return self.process.exitcode

    def _close(self) -> None:
        self.conn.close()
        _LIVE.discard(self)

    def recv(self) -> Any:
        """The next message; :class:`WorkerDied` (after joining the
        worker, so the exit code is known) when the pipe hits EOF."""
        try:
            return self.conn.recv()
        except (EOFError, OSError):
            self.process.join()
            self._close()
            raise WorkerDied(self.exitcode) from None

    def stop(self) -> str:
        """End the worker: SIGTERM, up to :data:`GRACE_SECONDS` to die,
        then SIGKILL.  Returns ``"dead"`` when it had already exited
        (so a second call is harmless), else ``"sigterm"`` or
        ``"sigkill"``.  A complete message the worker sent before it
        died is kept in :attr:`late`."""
        process = self.process
        how = "dead"
        if process.is_alive():
            process.terminate()
            process.join(GRACE_SECONDS)
            how = "sigterm"
            if process.is_alive():  # stopped, or stuck in the kernel
                process.kill()
                process.join(GRACE_SECONDS)
                how = "sigkill"
        if not self.conn.closed:
            try:
                if self.conn.poll():
                    self.late = self.conn.recv()
            except (EOFError, OSError):
                pass  # no complete message in the pipe
        self._close()
        return how


def wait(workers: Sequence[Worker],
         timeout: float = POLL_SECONDS) -> List[Worker]:
    """The workers (in the given order) with a message or EOF waiting,
    after at most ``timeout`` seconds."""
    conns = [worker.conn for worker in workers]
    ready = set(multiprocessing.connection.wait(conns, timeout=timeout))
    return [worker for worker in workers if worker.conn in ready]


def kill_pid(pid: int) -> None:
    """:meth:`Worker.stop` for a raw pid -- a worker a dead daemon left
    behind, which no handle survives.  Best effort."""
    try:
        os.kill(pid, signal.SIGTERM)
    except OSError:
        return
    deadline = time.monotonic() + GRACE_SECONDS
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except OSError:
            return
        time.sleep(POLL_SECONDS)
    try:
        os.kill(pid, signal.SIGKILL)
    except OSError:
        pass
