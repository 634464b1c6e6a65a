"""Ordered sharded map over a pool of warm forked workers.

``shard_map`` is the parallel primitive behind ``repro fuzz --jobs`` and
``repro batch``: apply ``fn`` to every item, at most ``jobs`` at a time,
and return results **in item order** regardless of completion order.
That ordering rule is what keeps sharded runs byte-comparable with
sequential ones: downstream consumers (campaign merging, batch reports)
never observe scheduling.

Workers (:class:`repro.parallel.pool.Worker`) are forked once per
call, ``min(jobs, len(items))`` of them, after ``items`` is
materialized, so each one already holds ``fn`` and every item (the
``fork`` start method: ``fn`` may be a closure over in-memory data,
nothing of it is pickled).  The parent sends a worker an item index
over its pipe, reads back one ``(status, value, trace records)`` reply,
and hands that worker the next index.  A worker therefore pays the fork
and its page faults once per map, not once per item.

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
included, every worker is stopped (SIGTERM, then SIGKILL after the
pool's grace), so Ctrl-C never leaks processes.
"""

from __future__ import annotations

import contextlib
import time
import traceback
from typing import Callable, Dict, List, Optional, Sequence

from repro.kernel.scache import clear_caches
from repro.obs import tracer as obs
from repro.parallel.pool import Worker, WorkerDied, fork_context, wait


class ShardError(RuntimeError):
    """An item raised, its value could not be sent, or its worker died;
    carries the worker's traceback or exit code."""


#: Slot marker for items never run because the deadline hit first.
SKIPPED = "skipped"


def _worker_main(conn, fn: Callable, items: List) -> None:
    """One warm worker: run each item index the parent sends until the
    parent is gone."""
    while True:
        try:
            index = conn.recv()
        except EOFError:
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
) -> List:
    """Ordered parallel map (see module docstring).

    Each result slot holds the item's return value, a :class:`ShardError`
    (the item raised, its value did not pickle, or its worker died), or
    the :data:`SKIPPED` marker (deadline).  Errors are returned, not
    raised, so one bad item cannot hide the other shards' results;
    callers decide whether to re-raise.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1 or fork_context() is None:
        return _run_inline(fn, items, deadline)

    results: List = [SKIPPED] * len(items)
    next_index = 0
    workers: List[Worker] = []  # every worker forked, for the teardown
    busy: Dict[Worker, int] = {}  # worker -> index of the item it holds

    def note(message: str) -> None:
        if log is not None:
            log(message)

    def more() -> bool:
        return next_index < len(items) and (
            deadline is None or time.monotonic() < deadline
        )

    def fork_worker() -> Worker:
        worker = Worker(_worker_main, fn, items)
        workers.append(worker)
        return worker

    def hand_out(worker: Worker) -> None:
        nonlocal next_index
        if not more():
            return  # idle until the teardown
        busy[worker] = next_index
        # A worker that died since its last reply reads as EOF below,
        # in the slot of the item it was handed.
        with contextlib.suppress(OSError):
            worker.conn.send(next_index)
        next_index += 1

    try:
        for _ in range(min(jobs, len(items))):
            hand_out(fork_worker())
        while busy:
            if deadline is not None and time.monotonic() >= deadline:
                note(f"[shard] deadline hit with {len(busy)} running")
                break
            for worker in wait(list(busy)):
                index = busy.pop(worker)
                try:
                    status, payload, records = worker.recv()
                except WorkerDied as death:
                    results[index] = ShardError(
                        f"shard worker for item {index} died "
                        f"(exitcode {death.exitcode})"
                    )
                    if more():
                        hand_out(fork_worker())
                    continue
                obs.TRACER.absorb(records)
                results[index] = (
                    payload if status == "ok" else ShardError(payload)
                )
                hand_out(worker)
    finally:
        for worker in workers:
            worker.stop()
    return results
