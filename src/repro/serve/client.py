"""File-protocol clients: submit jobs, poll results, render status.

The client side of :mod:`repro.serve` needs no sockets and no daemon
library: a submission is one JSON file atomically renamed into
``QUEUE_DIR/inbox/`` (so the daemon can never read a half-written
spec), a terminal result is one JSON file the daemon atomically renames
into ``QUEUE_DIR/results/``, and live status is a *read-only* replay of
the daemon's own journal -- the client and the daemon fold the same WAL
with the same code, so they cannot disagree about queue state.

The netlist text is embedded in the job spec at submit time: the queue
stays self-contained even if the submitted file is edited or deleted
while the job waits.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Optional, Sequence

from repro.engine import registry
from repro.fuzz.shrink import PROPERTY_DIRECTIVE, instance_from_text
from repro.netlist.textio import circuit_from_text
from repro.runtime.fsio import atomic_write_text
from repro.serve.journal import replay_dir
from repro.serve.queue import Job, fold_records, new_job_id


def _queue_paths(queue_dir: str) -> Dict[str, str]:
    # Local copies of the layout helpers: the client must not import
    # the daemon module (which drags in every engine).
    return {
        "inbox": os.path.join(queue_dir, "inbox"),
        "results": os.path.join(queue_dir, "results"),
        "journal": os.path.join(queue_dir, "journal"),
    }


def make_job(
    netlist_text: str,
    name: str,
    target: Optional[Dict[str, int]] = None,
    prop_name: str = "property",
    strategies: Optional[Sequence[str]] = None,
    timeout: Optional[float] = None,
    chaos: Optional[str] = None,
    max_attempts: Optional[int] = None,
    job_id: Optional[str] = None,
) -> Job:
    """Build a job spec from netlist text.

    With no explicit ``target`` the netlist must carry a
    ``# !property`` directive (the corpus convention); the property is
    derived from it.  Either way the netlist is parsed *now*, and the
    strategy names are checked against the engine registry, so a
    malformed submission fails at the client with a clean diagnostic
    instead of poisoning the queue.
    """
    if strategies is not None:
        strategies = list(registry.require(strategies))
    if target is None:
        if PROPERTY_DIRECTIVE not in netlist_text:
            raise ValueError(
                "no --target given and the netlist has no "
                "'# !property' directive"
            )
        instance = instance_from_text(netlist_text)
        target = dict(instance.prop.target)
        prop_name = instance.prop.name
    else:
        circuit = circuit_from_text(netlist_text)
        from repro.core.property import UnreachabilityProperty

        UnreachabilityProperty(prop_name, target).validate_against(circuit)
    job = Job(
        id=job_id or new_job_id(),
        name=name,
        netlist=netlist_text,
        prop_name=prop_name,
        target=dict(target),
        strategies=strategies,
        timeout=timeout,
        chaos=chaos,
        submitted=time.time(),
    )
    if max_attempts is not None:
        job.max_attempts = max_attempts
    return job


def submit_job(queue_dir: str, job: Job) -> str:
    """Atomically drop one job spec into the inbox; returns the job id.

    The daemon may be down: the submission waits in the inbox and is
    admitted on the next startup (that durability is the point)."""
    paths = _queue_paths(queue_dir)
    os.makedirs(paths["inbox"], exist_ok=True)
    atomic_write_text(
        os.path.join(paths["inbox"], f"{job.id}.json"),
        json.dumps(job.spec_json(), indent=2, sort_keys=True) + "\n",
    )
    return job.id


def read_result(queue_dir: str, job_id: str) -> Optional[dict]:
    """The terminal result (or shed reply) for a job, if present."""
    path = os.path.join(_queue_paths(queue_dir)["results"],
                        f"{job_id}.json")
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def wait_for(
    queue_dir: str,
    job_ids: List[str],
    timeout: Optional[float] = None,
    poll_seconds: float = 0.1,
) -> Dict[str, Optional[dict]]:
    """Poll until every job has a terminal result file (or a
    ``RETRY_LATER`` shed reply), or the timeout lapses.  Missing
    entries map to None."""
    deadline = None if timeout is None else time.monotonic() + timeout
    results: Dict[str, Optional[dict]] = {jid: None for jid in job_ids}
    while True:
        for job_id in job_ids:
            if results[job_id] is None:
                results[job_id] = read_result(queue_dir, job_id)
        if all(value is not None for value in results.values()):
            return results
        if deadline is not None and time.monotonic() > deadline:
            return results
        time.sleep(poll_seconds)


def queue_status(queue_dir: str) -> dict:
    """Read-only queue snapshot: journal replay + inbox backlog.

    Safe to run next to a live daemon (it never writes, and tolerates a
    torn journal tail)."""
    paths = _queue_paths(queue_dir)
    jobs = fold_records(replay_dir(paths["journal"]))
    try:
        inbox = sorted(
            name
            for name in os.listdir(paths["inbox"])
            if name.endswith(".json")
        )
    except OSError:
        inbox = []
    counts: Dict[str, int] = {}
    for job in jobs.values():
        key = job.verdict if job.terminal and job.verdict else job.state
        counts[key] = counts.get(key, 0) + 1
    return {
        "jobs": [job.status_json() for job in jobs.values()],
        "counts": counts,
        "inbox_pending": len(inbox),
    }


def render_status(status: dict) -> str:
    """Human-readable status table."""
    lines = []
    header = (
        f"{'job':<15} {'state':<8} {'att':>3} {'verdict':<10} "
        f"{'infra':<5} name"
    )
    lines.append(header)
    for job in status["jobs"]:
        lines.append(
            f"{job['id']:<15} {job['state']:<8} {job['attempt']:>3} "
            f"{(job['verdict'] or '-'):<10} "
            f"{('yes' if job['infrastructure'] else '-'):<5} "
            f"{job['name']}"
        )
    counts = ", ".join(
        f"{name}={count}"
        for name, count in sorted(status["counts"].items())
    )
    lines.append(
        f"{len(status['jobs'])} job(s); {counts or 'none'}; "
        f"{status['inbox_pending']} inbox pending"
    )
    return "\n".join(lines) + "\n"
