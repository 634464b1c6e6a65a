"""Ordered sharded map over a pool of warm forked workers.

``shard_map`` is the parallel primitive behind ``repro fuzz --jobs`` and
``repro batch``: apply ``fn`` to every item, at most ``jobs`` at a time,
and return results **in item order** regardless of completion order.
That ordering rule is what keeps sharded runs byte-comparable with
sequential ones: downstream consumers (campaign merging, batch reports)
never observe scheduling.

Workers are forked once per call, ``min(jobs, len(items))`` of them,
after ``items`` is materialized, so each one already holds ``fn`` and
every item (the ``fork`` start method: ``fn`` may be a closure over
in-memory data, nothing of it is pickled).  The parent sends a worker an
item index over a duplex pipe, reads back one ``(status, value, trace
records)`` reply, and hands that worker the next index.  A worker
therefore pays the fork and its page faults once per map, not once per
item.

Isolation stays per item.  An exception in ``fn``, or a value that
cannot be pickled, becomes a :class:`ShardError` in that item's slot and
the same worker takes the next item.  A worker that dies mid-item
(segfault, OOM kill, ``os._exit``) becomes a :class:`ShardError` carrying
its exit code in the slot of the item it held, and a freshly forked
replacement takes the remaining items.  Each item starts from empty
``kernel.scache`` caches, so its work and its cache counts do not depend
on which items its worker ran before; what does carry over is the
lazily filled engine registry, the imported modules and the process's
peak RSS.  With ``jobs <= 1``, a single item, or no ``fork`` start
method, the map runs in-process (plain loop), so callers treat
parallelism as optional.

A ``deadline`` (absolute ``time.monotonic()`` instant) stops the map
early: busy workers are cancelled and their slots -- plus all
unlaunched ones -- read ``skipped``.  On every exit, ``KeyboardInterrupt``
included, idle workers are told to stop and busy ones are terminated,
joined and if need be killed, so Ctrl-C never leaks processes.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import multiprocessing.connection
import time
import traceback
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.kernel.scache import clear_caches
from repro.obs import tracer as obs


class ShardError(RuntimeError):
    """An item raised, its value could not be sent, or its worker died;
    carries the worker's traceback or exit code."""


#: Slot marker for items never run because the deadline hit first.
SKIPPED = "skipped"


def _worker_main(
    conn: Connection, fn: Callable, items: List, parent_ends: List[Connection]
) -> None:
    """One warm worker: run each item index the parent sends until it
    sends ``None`` or is gone."""
    obs.TRACER.fork_child()
    # Drop the inherited copies of the parent's pipe ends, this worker's
    # own included, so that the parent's death reads here as EOF.
    for end in parent_ends:
        end.close()
    while True:
        try:
            index = conn.recv()
        except EOFError:
            return
        if index is None:
            return
        # Every item starts from empty kernel caches, as it would in a
        # fork of its own: what an item costs and counts never depends
        # on which items this worker happened to run before it.
        clear_caches()
        try:
            with obs.span("shard.item"):
                reply = ("ok", fn(items[index]))
        except Exception as error:
            reply = ("error", f"{error}\n{traceback.format_exc()}")
        records = obs.TRACER.drain() if obs.TRACER.enabled else []
        try:
            conn.send(reply + (records,))
        except OSError:  # the parent is gone
            return
        except Exception as error:  # the value does not pickle
            conn.send((
                "error",
                f"result of item {index} cannot be sent: {error}\n"
                f"{traceback.format_exc()}",
                records,
            ))


def _run_inline(
    fn: Callable, items: Sequence, deadline: Optional[float]
) -> List:
    results: List = []
    for item in items:
        if deadline is not None and time.monotonic() >= deadline:
            results.append(SKIPPED)
            continue
        results.append(fn(item))
    return results


def shard_map(
    fn: Callable,
    items: Sequence,
    jobs: int = 1,
    deadline: Optional[float] = None,
    log: Optional[Callable[[str], None]] = None,
    poll_seconds: float = 0.05,
) -> List:
    """Ordered parallel map (see module docstring).

    Each result slot holds the item's return value, a :class:`ShardError`
    (the item raised, its value did not pickle, or its worker died), or
    the :data:`SKIPPED` marker (deadline).  Errors are returned, not
    raised, so one bad item cannot hide the other shards' results;
    callers decide whether to re-raise.
    """
    items = list(items)
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        ctx = None
    if jobs <= 1 or len(items) <= 1 or ctx is None:
        return _run_inline(fn, items, deadline)

    results: List = [SKIPPED] * len(items)
    next_index = 0
    # conn -> (worker, index of the item it holds)
    busy: Dict[Connection, Tuple[BaseProcess, int]] = {}
    # (worker, conn) of workers left with nothing to run
    idle: List[Tuple[BaseProcess, Connection]] = []

    def note(message: str) -> None:
        if log is not None:
            log(message)

    def more() -> bool:
        return next_index < len(items) and (
            deadline is None or time.monotonic() < deadline
        )

    def fork_worker() -> Tuple[BaseProcess, Connection]:
        parent_conn, child_conn = ctx.Pipe()
        parent_ends = [parent_conn, *busy, *(end for _, end in idle)]
        proc = ctx.Process(
            target=_worker_main,
            args=(child_conn, fn, items, parent_ends),
            name="shard-worker",
            daemon=True,
        )
        proc.start()
        child_conn.close()  # the worker owns its end now
        return proc, parent_conn

    def hand_out(proc: BaseProcess, conn: Connection) -> None:
        nonlocal next_index
        if not more():
            idle.append((proc, conn))
            return
        busy[conn] = (proc, next_index)
        # A worker that died since its last reply reads as EOF below,
        # in the slot of the item it was handed.
        with contextlib.suppress(OSError):
            conn.send(next_index)
        next_index += 1

    try:
        for _ in range(min(jobs, len(items))):
            hand_out(*fork_worker())
        while busy:
            if deadline is not None and time.monotonic() >= deadline:
                note(f"[shard] deadline hit with {len(busy)} running")
                break
            ready = multiprocessing.connection.wait(
                list(busy), timeout=poll_seconds
            )
            for conn in ready:
                proc, index = busy.pop(conn)
                try:
                    status, payload, records = conn.recv()
                except (EOFError, OSError):
                    proc.join()  # exitcode is only valid after the join
                    conn.close()
                    results[index] = ShardError(
                        f"shard worker for item {index} died "
                        f"(exitcode {proc.exitcode})"
                    )
                    if more():
                        hand_out(*fork_worker())
                    continue
                obs.TRACER.absorb(records)
                results[index] = (
                    payload if status == "ok" else ShardError(payload)
                )
                hand_out(proc, conn)
    finally:
        for proc, conn in idle:
            with contextlib.suppress(OSError):
                conn.send(None)
        for proc, _index in busy.values():
            proc.terminate()
        for proc, conn in idle + [
            (proc, conn) for conn, (proc, _index) in busy.items()
        ]:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - stuck in a syscall
                proc.kill()
                proc.join(timeout=5.0)
            conn.close()
    return results
