"""The parallel portfolio executor: determinism, containment, teardown.

Three layers of guarantees, in rough order of importance:

1. **Determinism** -- racing with 2..4 workers produces the same verdict
   *and the same canonical counterexample* as the sequential reference
   mode, across a 25-seed sweep of generated designs covering both
   property polarities.  Sharded fuzz campaigns merge back to a report
   byte-comparable with the sequential one.
2. **Containment** -- chaos faults, strategy crashes and hard worker
   deaths degrade to structured envelopes (UNKNOWN/ERROR + AbortInfo);
   the race itself never raises, and memory aborts record the RSS
   watermark for post-mortems.
3. **Teardown** -- the first definite verdict cancels every loser, and a
   ``KeyboardInterrupt`` mid-race or mid-``shard_map`` reaps all worker
   processes before propagating (checked end-to-end through a real
   subprocess + SIGINT).
"""

import contextlib
import os
import pickle
import re
import select
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.fuzz.campaign import run_campaign
from repro.fuzz.gen import generate_instance
from repro.kernel.perf import PERF
from repro.engine import FunctionEngine, Verdict, VerifyResult, registry
from repro.parallel.envelope import (
    WorkerEnvelope,
    budget_from_limits,
    slice_limits,
)
from repro.parallel import portfolio
from repro.parallel.portfolio import race
from repro.parallel.shard import SKIPPED, ShardError, shard_map
from repro.parallel.worker import STRATEGY_ORDER, run_strategy
from repro.runtime.abort import EngineAbort, MemoryOut
from repro.runtime.budget import Budget
from repro.runtime.chaos import ChaosMonkey
from repro.runtime.supervisor import AbortInfo

from tests.conftest import buggy_counter, toggle_design

SEEDS = range(25)

#: seed -> (instance, sequential PortfolioResult); computed once, reused
#: by every determinism test.
_BASELINE = {}


def _baseline(seed):
    if seed not in _BASELINE:
        instance = generate_instance(seed)
        _BASELINE[seed] = (
            instance, race(instance.circuit, instance.prop)
        )
    return _BASELINE[seed]


# --------------------------------------------------------------------
# Determinism: parallel == sequential, verdicts and canonical traces
# --------------------------------------------------------------------


def test_seed_sweep_covers_both_polarities():
    verdicts = {_baseline(seed)[1].verdict for seed in SEEDS}
    assert {Verdict.VERIFIED, Verdict.FALSIFIED} <= verdicts, (
        f"seed sweep must exercise both polarities, got {verdicts}"
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_parallel_race_matches_sequential(seed):
    instance, sequential = _baseline(seed)
    for jobs in (2, 3, 4):
        parallel = race(instance.circuit, instance.prop, jobs=jobs)
        assert parallel.verdict == sequential.verdict, (
            f"seed {seed} jobs {jobs}: {parallel.verdict} != "
            f"sequential {sequential.verdict}"
        )
        if sequential.verdict is Verdict.FALSIFIED:
            assert parallel.canonical and sequential.canonical
            assert parallel.trace.states == sequential.trace.states
            assert parallel.trace.inputs == sequential.trace.inputs


def test_sequential_race_stops_at_first_definite():
    circuit, prop = toggle_design()
    result = race(circuit, prop)
    assert result.verified
    assert result.winner == result.envelopes[0].strategy == "bdd"
    # Strategies after the winner never ran.
    assert len(result.envelopes) == 1


def test_envelope_report_order_is_strategy_order():
    instance, _ = _baseline(0)
    result = race(instance.circuit, instance.prop, jobs=4)
    reported = [e.strategy for e in result.envelopes]
    order = {name: i for i, name in enumerate(STRATEGY_ORDER)}
    assert reported == sorted(reported, key=order.__getitem__)


def test_race_to_json_is_serializable():
    import json

    instance, _ = _baseline(1)
    result = race(instance.circuit, instance.prop, jobs=2)
    payload = json.dumps(result.to_json())
    assert result.verdict in payload


# --------------------------------------------------------------------
# Budget slicing
# --------------------------------------------------------------------


def test_slice_limits_divides_countable_resources():
    budget = Budget(
        max_seconds=8.0, max_conflicts=1000, max_memory_mb=512
    )
    limits = slice_limits(budget, 4)
    assert limits.max_seconds == pytest.approx(2.0, abs=0.1)
    assert limits.max_conflicts == 250
    assert limits.max_memory_mb == 512  # watermark passes through

    child = budget_from_limits(limits, name="slice")
    assert child.remaining_conflicts() == 250


def test_slice_limits_without_budget_is_unlimited():
    limits = slice_limits(None, 4)
    assert limits.unlimited()
    assert budget_from_limits(limits, name="free") is None


def test_expired_parent_budget_yields_unknown():
    circuit, prop = toggle_design()
    budget = Budget(max_seconds=0.0)
    time.sleep(0.01)
    result = race(circuit, prop, budget=budget)
    assert result.verdict is Verdict.UNKNOWN
    assert result.envelopes == []


@pytest.mark.parametrize("jobs", [1, 2])
def test_unknown_strategy_rejected_before_any_worker(monkeypatch, jobs):
    """Both modes reject an unknown name with the same usage error, and
    nothing runs: no forked worker, no in-process strategy."""
    started = []
    monkeypatch.setattr(
        portfolio, "Worker", lambda *args: started.append(args[1])
    )
    monkeypatch.setattr(
        portfolio, "run_strategy", lambda *args, **kw: started.append(args[0])
    )
    circuit, prop = toggle_design()
    with pytest.raises(ValueError, match="unknown engine 'nosuch'"):
        race(circuit, prop, strategies=("bdd", "nosuch"), jobs=jobs)
    assert started == []


# --------------------------------------------------------------------
# Containment: chaos faults, crashes, hard deaths
# --------------------------------------------------------------------


@pytest.mark.parametrize("jobs", [1, 2])
def test_chaos_timeout_in_one_worker_is_contained(jobs):
    """An injected bdd timeout degrades that strategy; the race still
    verifies through another one."""
    circuit, prop = toggle_design()
    chaos = ChaosMonkey.parse("bdd=timeout")
    result = race(circuit, prop, jobs=jobs, chaos=chaos)
    assert result.verified
    assert result.winner != "bdd"
    bdd = result.envelope_of("bdd")
    assert bdd is not None and bdd.verdict is Verdict.UNKNOWN
    assert bdd.abort is not None and bdd.abort.injected
    assert bdd.abort.resource == "time"


def test_chaos_garbage_verdict_is_contained():
    """A forked worker's garbage verdict comes back UNKNOWN with an
    injected abort.  bdd races alone: in the full race another strategy
    may answer first and cancel bdd before it reports."""
    circuit, prop = toggle_design()
    chaos = ChaosMonkey.parse("bdd=garbage")
    result = race(circuit, prop, strategies=("bdd",), jobs=2, chaos=chaos)
    assert result.verdict is Verdict.UNKNOWN
    bdd = result.envelope_of("bdd")
    assert bdd.pid != os.getpid()
    assert bdd.verdict is Verdict.UNKNOWN
    assert bdd.abort is not None and bdd.abort.injected


def test_chaos_garbage_verdict_does_not_decide_the_race():
    circuit, prop = toggle_design()
    chaos = ChaosMonkey.parse("bdd=garbage")
    result = race(circuit, prop, jobs=2, chaos=chaos)
    assert result.verified


def test_strategy_crash_degrades_to_error_envelope():
    def exploding(circuit, prop, limits):
        raise RuntimeError("kaboom")

    circuit, prop = toggle_design()
    with registry.overlay(FunctionEngine("bmc", exploding)):
        envelope = run_strategy("bmc", circuit, prop)
    assert envelope.verdict is Verdict.ERROR
    assert "kaboom" in envelope.detail


def test_hard_worker_death_synthesizes_error_envelope():
    """A worker that dies without sending (os._exit) must surface as an
    ERROR envelope, not hang or crash the race.  The fork start method
    means a registry overlay in the parent reaches the child."""

    def dying(circuit, prop, limits):
        os._exit(17)

    circuit, prop = toggle_design()
    with registry.overlay(FunctionEngine("bmc", dying)):
        result = race(
            circuit, prop, strategies=("bmc", "kinduction"), jobs=2
        )
    assert result.verified  # kinduction still wins
    bmc_env = result.envelope_of("bmc")
    assert bmc_env is not None
    assert bmc_env.verdict is Verdict.ERROR
    assert "exitcode 17" in bmc_env.detail


def test_memory_abort_records_rss_watermark():
    info = AbortInfo.from_exception("bdd", MemoryError("heap exhausted"))
    assert info.resource == "memory"
    assert info.rss_mb is not None and info.rss_mb > 0
    payload = info.to_json()
    assert payload["rss_mb"] == pytest.approx(info.rss_mb, abs=0.1)
    # Round-trips through JSON.
    assert AbortInfo.from_json(payload).rss_mb == payload["rss_mb"]


def test_injected_memory_abort_has_no_rss_watermark():
    """A chaos-injected MemoryOut never snapshots RSS: the number would
    describe the healthy process, not an OOM."""
    fault = MemoryOut("chaos", engine="bdd", injected=True)
    info = AbortInfo.from_exception("bdd", fault)
    assert info.injected and info.rss_mb is None
    assert "rss_mb" not in info.to_json()


def test_non_memory_abort_has_no_rss_watermark():
    info = AbortInfo.from_exception(
        "sat", EngineAbort("deadline", resource="time")
    )
    assert info.rss_mb is None
    assert "rss_mb" not in info.to_json()


def test_envelope_pickles_with_abort_and_trace():
    instance, sequential = _baseline(0)
    chaos = ChaosMonkey.parse("bdd=memory")
    envelope = run_strategy("bdd", instance.circuit, instance.prop,
                            chaos=chaos)
    clone = pickle.loads(pickle.dumps(envelope))
    assert clone.verdict is envelope.verdict is Verdict.UNKNOWN
    assert clone.abort.resource == "memory"
    assert clone.rss_mb == envelope.rss_mb


# --------------------------------------------------------------------
# PERF counter merging across the pipe
# --------------------------------------------------------------------


def test_perf_merge_folds_worker_snapshot():
    PERF.reset()
    snapshot = {
        "gate_evals": 10,
        "pattern_gate_evals": 640,
        "patterns_simulated": 64,
        "sim_seconds": 0.5,
        "counters": {"sat.conflicts": 3},
        "caches": {"scache": {"hits": 2, "misses": 1}},
        "phases": {"reach": {"seconds": 0.25, "calls": 4}},
    }
    PERF.merge(snapshot)
    PERF.merge(snapshot)
    merged = PERF.snapshot()
    assert merged["gate_evals"] == 20
    assert merged["counters"]["sat.conflicts"] == 6
    assert merged["caches"]["scache"]["hits"] == 4
    # An older worker's phase timers are accepted and dropped: tracer
    # spans are the one timing mechanism.
    assert "phases" not in merged
    PERF.reset()


def test_parallel_race_merges_worker_perf():
    """A counter bumped inside a forked worker lands in the parent's
    PERF after the race (via the envelope's snapshot)."""

    def counting(circuit, prop, limits):
        PERF.bump("portfolio.test_bump", 7)
        return VerifyResult(
            engine="bmc", verdict=Verdict.VERIFIED, detail="counted"
        )

    circuit, prop = toggle_design()
    PERF.reset()
    with registry.overlay(FunctionEngine("bmc", counting)):
        result = race(circuit, prop, strategies=("bmc",), jobs=2)
    assert result.verified
    assert PERF.snapshot()["counters"]["portfolio.test_bump"] == 7
    PERF.reset()


# --------------------------------------------------------------------
# shard_map
# --------------------------------------------------------------------


def test_shard_map_preserves_item_order():
    # Earlier items sleep longer, so completion order inverts item
    # order; the result list must not.
    def work(item):
        time.sleep(0.05 * (3 - item))
        return item * item

    assert shard_map(work, [0, 1, 2, 3], jobs=4) == [0, 1, 4, 9]


def test_shard_map_inline_path_matches_forked():
    items = list(range(5))
    assert shard_map(len_of := (lambda x: x + 1), items, jobs=1) == \
        shard_map(len_of, items, jobs=3)


def test_shard_map_contains_item_errors():
    def work(item):
        if item == 1:
            raise ValueError("poison item")
        return item

    results = shard_map(work, [0, 1, 2], jobs=2)
    assert results[0] == 0 and results[2] == 2
    assert isinstance(results[1], ShardError)
    assert "poison item" in str(results[1])


def test_shard_map_deadline_skips_remaining_items():
    def work(item):
        time.sleep(0.4)
        return item

    start = time.monotonic()
    results = shard_map(
        work, list(range(6)), jobs=2, deadline=time.monotonic() + 0.15
    )
    assert time.monotonic() - start < 5.0
    assert SKIPPED in results
    assert all(
        r is SKIPPED or isinstance(r, (int, ShardError)) for r in results
    )


def test_shard_map_worker_death_is_a_shard_error():
    def work(item):
        if item == 0:
            os._exit(3)
        return item

    results = shard_map(work, [0, 1], jobs=2)
    assert isinstance(results[0], ShardError)
    assert "exitcode 3" in str(results[0])
    assert results[1] == 1


def test_shard_map_reuses_forked_workers():
    pids = shard_map(lambda item: os.getpid(), list(range(8)), jobs=2)
    assert os.getpid() not in pids
    assert len(set(pids)) <= 2


@pytest.mark.parametrize(
    "dying", [{1}, {0, 1}], ids=["item1", "items0and1"]
)
def test_shard_map_replaces_a_dead_worker(dying):
    """With ``{0, 1}`` both first workers die on their first item, so
    items 2-5 run only if each death forks a replacement."""

    def work(item):
        if item in dying:
            os._exit(3)
        return item

    results = shard_map(work, list(range(6)), jobs=2)
    for index, result in enumerate(results):
        if index in dying:
            assert isinstance(result, ShardError)
            assert "exitcode 3" in str(result)
        else:
            assert result == index


def test_shard_map_exception_keeps_the_worker():
    # Items 0 and 1 are the first items of the two workers.
    def work(item):
        if item < 2:
            raise ValueError(f"poison in pid {os.getpid()}")
        return os.getpid()

    results = shard_map(work, list(range(6)), jobs=2)
    raised_in = {
        int(re.search(r"poison in pid (\d+)", str(error)).group(1))
        for error in results[:2]
    }
    assert set(results[2:]) <= raised_in


def test_shard_map_items_start_from_empty_kernel_caches():
    """Every item builds the same frame template, yet none finds it
    cached: not from an earlier item in its worker, nor from this
    process, whose caches each worker inherits."""
    from repro.kernel.scache import frame_template

    circuit, _prop = toggle_design()
    frame_template(circuit)

    def hits():
        caches = PERF.snapshot()["caches"]
        return caches.get("frame_template", {}).get("hits", 0)

    def work(item):
        before = hits()
        frame_template(circuit)
        return hits() - before

    assert shard_map(work, list(range(6)), jobs=2) == [0] * 6


def test_shard_map_unpicklable_result_stays_in_its_slot():
    def work(item):
        return threading.Lock() if item == 1 else item

    results = shard_map(work, [0, 1, 2, 3], jobs=2)
    assert isinstance(results[1], ShardError)
    assert "cannot be sent" in str(results[1])
    assert [results[index] for index in (0, 2, 3)] == [0, 2, 3]


def test_shard_map_more_workers_than_cores():
    jobs = (os.cpu_count() or 1) + 2
    start = time.monotonic()
    results = shard_map(lambda item: item * item, list(range(200)), jobs=jobs)
    assert results == [item * item for item in range(200)]
    assert time.monotonic() - start < 20.0


def test_batch_report_does_not_depend_on_jobs(tmp_path):
    """``repro batch --jobs 2`` and ``--jobs 1`` agree on every instance
    of a 40-instance generated corpus, timings and worker pids aside."""
    import json

    from repro.cli import main
    from repro.fuzz.shrink import save_reproducer

    corpus = tmp_path / "corpus"
    for seed in range(40):
        save_reproducer(
            generate_instance(seed), str(corpus), stem=f"i{seed:02d}"
        )

    def strip(obj):
        if isinstance(obj, dict):
            return {
                k: strip(v) for k, v in obj.items()
                if k not in ("seconds", "rss_mb", "pid")
            }
        if isinstance(obj, list):
            return [strip(v) for v in obj]
        return obj

    outcomes = []
    for jobs in (1, 2):
        report = tmp_path / f"jobs{jobs}.json"
        code = main(["batch", str(corpus), "--jobs", str(jobs),
                     "--report", str(report)])
        payload = json.loads(report.read_text())
        assert payload.pop("jobs") == jobs
        outcomes.append((code, strip(payload)))
    assert outcomes[0] == outcomes[1]
    counts = outcomes[0][1]["verdict_counts"]
    assert counts.get("verified") and counts.get("falsified"), counts


# --------------------------------------------------------------------
# Sharded fuzz campaigns
# --------------------------------------------------------------------


def test_sharded_campaign_matches_sequential_report():
    def strip(obj):
        if isinstance(obj, dict):
            return {
                k: strip(v) for k, v in obj.items() if k != "seconds"
            }
        if isinstance(obj, list):
            return [strip(v) for v in obj]
        return obj

    sequential = run_campaign(seed=0, iters=6, shrink=False)
    sharded = run_campaign(seed=0, iters=6, shrink=False, jobs=3)
    assert strip(sequential.to_json()) == strip(sharded.to_json())
    assert sequential.verdict_counts  # the sweep actually ran engines


def test_sharded_campaign_saves_reproducers_in_parent(tmp_path):
    """Findings shrunk in workers still land in the corpus, written
    serially by the parent."""
    corpus = tmp_path / "corpus"
    # A seed range with no real findings writes nothing; force one by
    # checking the plumbing end-to-end only when findings exist.
    sequential = run_campaign(
        seed=0, iters=6, shrink=True, corpus_dir=str(corpus)
    )
    expected = sorted(os.listdir(corpus)) if corpus.exists() else []
    for path in list(corpus.glob("*.net")) if corpus.exists() else []:
        path.unlink()
    sharded = run_campaign(
        seed=0, iters=6, shrink=True, corpus_dir=str(corpus), jobs=2
    )
    produced = sorted(os.listdir(corpus)) if corpus.exists() else []
    assert produced == expected
    assert len(sharded.findings) == len(sequential.findings)


# --------------------------------------------------------------------
# RFN integration: RfnConfig.parallel
# --------------------------------------------------------------------


@pytest.mark.parametrize("builder", [toggle_design, buggy_counter])
def test_rfn_parallel_matches_sequential_status(builder):
    from repro.core import RfnConfig, rfn_verify

    circuit, prop = builder()
    sequential = rfn_verify(circuit, prop, RfnConfig())
    parallel = rfn_verify(circuit, prop, RfnConfig(parallel=2))
    assert parallel.status == sequential.status
    assert any(
        record.reach_outcome.startswith("race_")
        for record in parallel.iterations
    )
    if parallel.trace is not None:
        assert sequential.trace is not None
        assert parallel.trace.length == sequential.trace.length


# --------------------------------------------------------------------
# KeyboardInterrupt teardown: no orphan workers
# --------------------------------------------------------------------


_INTERRUPT_CHILD = """
import sys
sys.path.insert(0, {src!r})
from repro.designs.counters import lfsr
from repro.parallel import race
from repro.runtime.budget import Budget

circuit, prop = lfsr(14)
race(
    circuit, prop,
    strategies=("bdd", "bmc"),
    jobs=2,
    budget=Budget(max_seconds=120.0),
    log=lambda m: print(m, flush=True),
)
print("RACE-DONE", flush=True)
"""


def _pids_after_signal(script, sig):
    """Run ``script`` in a subprocess, wait until it has printed two
    distinct ``worker <pid>`` lines, send it ``sig`` and collect it.
    Returns (return code, stdout, the two worker pids).

    Every read is bounded by the time left, and a line may carry more
    than one ``worker <pid>`` (two processes writing one pipe).  The
    child leads its own session, so a failure can kill it together with
    every worker it forked before collecting its output."""
    src = os.path.join(os.path.dirname(repro.__file__), os.pardir)
    child = subprocess.Popen(
        [sys.executable, "-c", script.format(src=os.path.abspath(src))],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    pids = []
    try:
        deadline = time.monotonic() + 30.0
        pending = b""
        while len(pids) < 2 and time.monotonic() < deadline:
            left = deadline - time.monotonic()
            if not select.select([child.stdout], [], [], max(0.0, left))[0]:
                continue
            chunk = os.read(child.stdout.fileno(), 4096)
            assert chunk, "process exited before launching workers"
            *lines, pending = (pending + chunk).split(b"\n")
            for line in lines:
                for match in re.findall(rb"worker (\d+)", line):
                    if int(match) not in pids:
                        pids.append(int(match))
        assert len(pids) == 2, f"never saw both workers: {pids}"
        child.send_signal(sig)
        out, _ = child.communicate(timeout=20.0)
    except BaseException:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(child.pid, signal.SIGKILL)
        child.communicate(timeout=20.0)
        raise
    return child.returncode, out.decode(), pids


def _running(pid):
    """Whether ``pid`` still runs.  An orphan that has exited stays a
    zombie until its reaper collects it, which some init processes never
    do; a zombie does not run."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _surviving(pids, seconds=5.0):
    """The ``pids`` still running after up to ``seconds``; any found are
    killed before returning, so a failing check leaks nothing."""
    deadline = time.monotonic() + seconds
    remaining = set(pids)
    while remaining and time.monotonic() < deadline:
        remaining = {pid for pid in remaining if _running(pid)}
        if remaining:
            time.sleep(0.1)
    for pid in remaining:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
    return remaining


def test_keyboard_interrupt_reaps_all_workers():
    code, out, pids = _pids_after_signal(_INTERRUPT_CHILD, signal.SIGINT)
    assert code != 0
    assert "RACE-DONE" not in out
    # The workers must be gone (reaped by the race's finally block).
    deadline = time.monotonic() + 5.0
    remaining = set(pids)
    while remaining and time.monotonic() < deadline:
        for pid in list(remaining):
            try:
                os.kill(pid, 0)
            except (ProcessLookupError, PermissionError):
                remaining.discard(pid)
        if remaining:
            time.sleep(0.1)
    assert not remaining, f"orphaned portfolio workers: {remaining}"


_SHARD_CHILD = """
import os
import sys
import time
sys.path.insert(0, {src!r})
from repro.parallel.shard import shard_map

def work(item):
    # One write per line: two workers share the pipe.
    os.write(1, f"worker {{os.getpid()}} took item {{item}}\\n".encode())
    time.sleep(ITEM_SECONDS)
    return item

shard_map(work, list(range(100)), jobs=2)
print("MAP-DONE", flush=True)
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc/<pid>/stat"
)
@pytest.mark.parametrize(
    "sig, item_seconds",
    [(signal.SIGINT, 120.0), (signal.SIGKILL, 0.3)],
    ids=["SIGINT", "SIGKILL"],
)
def test_shard_map_leaves_no_orphans(sig, item_seconds):
    """SIGINT: the map's finally block terminates both busy workers.
    SIGKILL: nothing runs in the parent, so each worker finishes its
    item, finds its pipe closed and exits."""
    script = _SHARD_CHILD.replace("ITEM_SECONDS", repr(item_seconds))
    code, out, pids = _pids_after_signal(script, sig)
    assert code != 0
    assert "MAP-DONE" not in out
    remaining = _surviving(pids)
    assert not remaining, f"orphaned shard workers: {remaining}"
