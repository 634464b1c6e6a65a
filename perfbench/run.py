"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload table1 --seed 0 --seconds 30 --trace 0

Run from the repository root.  The process sets up the workload
(imports, inputs, one untimed warm-up request), runs a timed phase of a
fixed number of passes (``--seconds`` / the workload's nominal pass
time), checks every result outside the timed phase, and prints a
human-readable table, a ``record`` line with the run's counts, and one
JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Timed metrics are in seconds at the reference host speed: between
stretches of work the run times a fixed pure-Python probe, in this
process or, where the requests run in forked workers, in a forked
child, and scales each stretch by the probe's reference time over the
probe times measured at its two ends (see ``HostClock``).  The measured
seconds and the probe times are printed beside them.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` reports its per-layer metrics instead: it alternates
untraced passes with passes run under the layer wrappers of
``layers.py``, so the two kinds also give the tracing overhead.

The exit code is 0 when every result is correct, 1 when any is wrong,
and 2 when the benchmark cannot run at all (for example, no ``src/repro``
next to it).
"""

import time

_STARTED = time.monotonic()

import argparse  # noqa: E402  (the clock above must start first)
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import layers as layer_trace  # noqa: E402  (this directory; no repro imports)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(HERE, "_work")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

#: Set-ups per run (this process plus fresh-interpreter probes);
#: ``setup_s`` is their median.
SETUP_SAMPLES = 7
#: ``verdict_tail_s`` is the highest percentile with this many samples
#: beyond it, and is undefined below twice as many requests.
TAIL_BEYOND = 10
#: Requests per tail group: a phase with more is split into groups of
#: whole passes, each's tail taken, and the median of those reported.
#: One ``batch`` pass (250 requests) is a group; ``table1``'s whole
#: phase is one.
TAIL_GROUP = 250
#: What ``host_probe`` takes at the reference host speed.  Timed metrics
#: are reported at this speed, so the constant never changes: changing
#: it would rescale every timing against every earlier run.
REFERENCE_PROBE_S = 0.002
#: What ``fork_probe`` takes at the reference host speed; fixed for the
#: same reason.  On the 2-vCPU development host its median reading was
#: 4.7 ms beside ``host_probe``'s 1.9 ms.
REFERENCE_FORK_PROBE_S = 0.005
#: Repeats of the probe loop per reading; the reading is their median.
PROBE_REPEATS = 5
#: Repeats for the two readings around a set-up, which alone scale it.
SETUP_PROBE_REPEATS = 15

#: Entry points each workload is expected to reach (the layer table's
#: "should move" column).  Zero calls on one of these is reported as
#: unmeasured rather than as a measured 0.
EXPECTED = {
    "table1": (
        "core.rfn", "core.hybrid", "core.guided", "core.refine_sim3",
        "core.refine_minimize", "atpg.session", "atpg.unroll",
        "atpg.sequential", "atpg.combinational", "sat.solve", "mc.reach",
        "mc.image", "mc.encode", "bdd.sift", "mincut", "netlist.extract",
        "sim.interp",
    ),
    "batch": (
        "netlist.parse", "engine.bdd", "parallel.canonical", "mc.bmc",
        "bdd.sift", "sim.interp",
    ),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("table1", "batch"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="nominal length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)  # one set-up probe
    return parser.parse_args(argv)


def _probe_loop() -> None:
    acc = 0
    for i in range(20_000):
        acc += i * i % 7


def host_probe(repeats: int = PROBE_REPEATS) -> float:
    """The host's speed right now: median time of a fixed pure-Python
    loop that shares nothing with the program under test."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _probe_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def fork_probe(repeats: int = PROBE_REPEATS) -> float:
    """The host's speed right now for work done in forked children:
    median time to fork a child that runs ``host_probe``'s loop, and to
    reap it.  Fork, page faults and exit are kernel work that the loop
    alone does not see."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        pid = os.fork()
        if pid == 0:
            try:
                _probe_loop()
            finally:
                os._exit(0)
        os.waitpid(pid, 0)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class HostClock:
    """The timed phase's clock, at the reference host speed.

    The host's speed drifts by half or more over minutes, for work and
    probe alike.  So the phase is cut into stretches of work, and at the
    end of each, ``lap()`` runs the probe outside the timed work and
    scales the stretch's seconds by the probe's reference time over the
    mean of the probe readings at its two ends.  With ``forked`` the
    probe is ``fork_probe``: forked work's speed barely follows the
    in-process loop (see README, *Host-speed calibration*).
    """

    def __init__(self, forked: bool = False) -> None:
        self.probe, self.reference = (
            (fork_probe, REFERENCE_FORK_PROBE_S) if forked
            else (host_probe, REFERENCE_PROBE_S)
        )
        self.probe_cpu = [0.0, 0.0]  # CPU seconds of probes: self, children
        self.probes = [self._read()]
        self.raw = 0.0  # measured seconds of work
        self.wall = 0.0  # the same stretches, at the reference speed
        self._start = time.perf_counter()

    def _read(self) -> float:
        before = _usage()
        reading = self.probe()
        after = _usage()
        for index in range(2):
            self.probe_cpu[index] += _cpu(after[index]) - _cpu(before[index])
        return reading

    def lap(self) -> float:
        """End the current stretch; return its speed factor."""
        elapsed = time.perf_counter() - self._start
        self.probes.append(self._read())
        factor = 2 * self.reference / (self.probes[-2] + self.probes[-1])
        self.raw += elapsed
        self.wall += elapsed * factor
        self._start = time.perf_counter()
        return factor


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def _usage():
    return (resource.getrusage(resource.RUSAGE_SELF),
            resource.getrusage(resource.RUSAGE_CHILDREN))


def timed_phase(workload, passes: int, tracing=None) -> tuple:
    """Run ``passes`` passes and return ``(untraced, traced)`` tallies.

    With ``tracing``, every second round runs inside it (wrappers
    installed), so traced and untraced passes meet the same host modes
    and the same inputs."""
    phases = tuple(
        {"passes": 0, "raw": 0.0, "wall": 0.0, "per_pass": [],
         "raw_per_pass": [], "cpu_self": 0.0, "cpu_children": 0.0,
         "worker_wall": 0.0}
        for _ in range(2)
    )
    gc.collect()
    clock = HostClock(forked=workload.forked)
    for index in range(passes):
        traced = (tracing is not None
                  and index // workload.round_passes % 2 == 1)
        phase = phases[traced]
        raw, wall = clock.raw, clock.wall
        probe_self, probe_kids = clock.probe_cpu
        (self0, kids0) = _usage()
        if traced:
            with tracing:
                pairs = workload.run_pass(clock.lap)
        else:
            pairs = workload.run_pass(clock.lap)
        (self1, kids1) = _usage()
        phase["passes"] += 1
        phase["worker_wall"] += workload.worker_wall
        phase["raw"] += clock.raw - raw
        phase["wall"] += clock.wall - wall
        phase["per_pass"].append([seconds * factor for seconds, factor in pairs])
        phase["raw_per_pass"].append([seconds for seconds, _ in pairs])
        phase["cpu_self"] += (
            _cpu(self1) - _cpu(self0) - (clock.probe_cpu[0] - probe_self)
        )
        phase["cpu_children"] += (
            _cpu(kids1) - _cpu(kids0) - (clock.probe_cpu[1] - probe_kids)
        )
    for phase in phases:
        phase["samples"] = [x for samples in phase["per_pass"] for x in samples]
        phase["raw_samples"] = [
            x for samples in phase["raw_per_pass"] for x in samples
        ]
    phases[0]["probes"] = clock.probes
    phases[0]["probe_reference"] = clock.reference
    phases[0]["probe_name"] = clock.probe.__name__
    return phases


class Tracing:
    """Installs the layer wrappers around one pass and adds up what they
    and ``PERF`` record; batch workers ship their part home through the
    race timer."""

    def __init__(self, perf, timer) -> None:
        self.perf = perf
        self.timer = timer
        self.layers = layer_trace.LayerTrace()
        self.perf_total = {}

    def __enter__(self):
        self.layers.install()
        self.timer.layers = self.layers
        self.perf.reset()
        return self

    def __exit__(self, *exc) -> None:
        self.layers.uninstall()
        self.timer.layers = None
        layer_trace.merge_perf(
            self.perf_total, layer_trace.perf_state(self.perf)
        )

    def merge_workers(self, records) -> None:
        for record in records:
            self.layers.merge(record.get("layers", {}))
            layer_trace.merge_perf(self.perf_total, record.get("perf", {}))


def tail(samples):
    """(value, percentile, defined): the highest percentile that leaves
    TAIL_BEYOND samples beyond it; below 2 * TAIL_BEYOND samples it is
    undefined and the maximum stands in."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0, False
    index = n - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / n, True


def tail_groups(per_pass):
    """Consecutive passes merged into groups of at least TAIL_GROUP
    requests; one group when the phase holds fewer."""
    groups, current = [], []
    for samples in per_pass:
        current = current + samples
        if len(current) >= TAIL_GROUP:
            groups.append(current)
            current = []
    if current:
        if groups:
            groups[-1] = groups[-1] + current
        else:
            groups.append(current)
    return groups


def grouped_tail(per_pass):
    """(value, note): the median over request groups of each group's
    ``tail``.  Ten samples beyond a percentile make a noisy estimate;
    the median of several is steadier and still rests on ten each."""
    groups = tail_groups(per_pass)
    results = [tail(group) for group in groups]
    value = statistics.median(result[0] for result in results)
    sizes = sorted({len(group) for group in groups})
    if not all(result[2] for result in results):
        return value, f"undefined below {2 * TAIL_BEYOND} requests: maximum"
    percentiles = ", ".join(f"p{result[1]:.1f}" for result in results)
    return value, (f"median of {len(results)} group(s) of "
                   f"{'/'.join(map(str, sizes))}: {percentiles}")


def setup_probes(args) -> list:
    """Set the workload up again in fresh interpreters."""
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=150,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"set-up probe exited {proc.returncode}: {proc.stderr[-2000:]}"
            )
        setups.append(tuple(json.loads(proc.stdout.strip().splitlines()[-1])))
    return setups


def peak_rss_mb() -> float:
    """Peak RSS of this process or its largest reaped child (Linux: KiB)."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def end_to_end(setups, phase, rss_mb, outcome, round_passes) -> dict:
    """Every end-to-end metric: value, sample count and a note."""
    samples = phase["samples"]
    tail_value, tail_note = grouped_tail(phase["per_pass"])
    requests = max(1, outcome.requests)
    return {
        "setup_s": (
            statistics.median(scaled for _, scaled in setups), len(setups),
            "median set-up",
        ),
        "wall_s": (phase["wall"], 1, f"{phase['passes']} passes"),
        "verdict_p50_s": (statistics.median(samples), len(samples), ""),
        "verdict_tail_s": (tail_value, len(samples), tail_note),
        "peak_rss_mb": (rss_mb, 1, "self and reaped workers"),
        "definite_share": (outcome.definite / requests, outcome.requests, ""),
        "trace_cycles": (
            outcome.quality.get("trace_cycles", 0),
            phase["passes"] // round_passes,
            f"per round of {round_passes} pass(es); the correctness gate "
            f"holds it exactly",
        ),
    }


def measured(setups, phase) -> dict:
    """The timed metrics in measured seconds, printed beside the
    declared ones."""
    return {
        "setup_s": statistics.median(seconds for seconds, _ in setups),
        "wall_s": phase["raw"],
        "verdict_p50_s": statistics.median(phase["raw_samples"]),
        "verdict_tail_s": grouped_tail(phase["raw_per_pass"])[0],
    }


def per_layer(args, tracing, untraced, traced) -> dict:
    """Every per-layer metric: wrapper and ``PERF`` figures from the
    traced passes, worker timings and rusage from the untraced ones.
    Seconds here are measured seconds, except in the overhead share."""
    layers, perf_total = tracing.layers, tracing.perf_total
    s, c, k = layers.self_s, layers.calls, layers.counts
    jobs = 2 if args.workload == "batch" else 1

    def share(part, whole):
        return part / whole if whole else 0.0

    def hit_share(cache):
        hits = perf_total.get(f"hits.{cache}", 0.0)
        return share(hits, hits + perf_total.get(f"misses.{cache}", 0.0))

    atpg_calls = c["atpg.sequential"] + c["atpg.combinational"]
    batch = args.workload == "batch"
    worker_s = untraced["worker_wall"]
    items = len(untraced["raw_samples"]) if batch else 0
    cpu = untraced["cpu_self"] + untraced["cpu_children"]
    values = {
        "core.iterations": k["core.iterations"],
        "core.rfn_self_s": s["core.rfn"],
        "core.hybrid_s": s["core.hybrid"],
        "core.hybrid_calls": c["core.hybrid"],
        "core.guided_s": s["core.guided"],
        "core.guided_calls": c["core.guided"],
        "core.guided_found_share": share(k["core.guided_found"], c["core.guided"]),
        "core.refine_sim3_s": s["core.refine_sim3"],
        "core.refine_minimize_s": s["core.refine_minimize"],
        "core.refine_minimize_calls": c["core.refine_minimize"],
        "core.refine_kept_share": share(
            k["core.refine_added"], k["core.refine_candidates"]
        ),
        "atpg.session_s": s["atpg.session"],
        "atpg.session_calls": c["atpg.session"],
        "atpg.unroll_s": s["atpg.unroll"],
        "atpg.unroll_calls": c["atpg.unroll"],
        "atpg.sequential_s": s["atpg.sequential"],
        "atpg.sequential_calls": c["atpg.sequential"],
        "atpg.combinational_s": s["atpg.combinational"],
        "atpg.combinational_calls": c["atpg.combinational"],
        "atpg.abort_share": share(k["atpg.aborted"], atpg_calls),
        "sat.solve_s": s["sat.solve"],
        "sat.solve_calls": c["sat.solve"],
        "sat.conflicts": k["sat.conflicts"],
        "sat.clauses": k["sat.clauses"],
        "mc.reach_s": s["mc.reach"],
        "mc.reach_calls": c["mc.reach"],
        "mc.image_s": s["mc.image"],
        "mc.image_calls": c["mc.image"],
        "mc.encode_s": s["mc.encode"],
        "mc.encode_calls": c["mc.encode"],
        "mc.bmc_s": s["mc.bmc"],
        "mc.bmc_calls": c["mc.bmc"],
        "bdd.peak_nodes": perf_total.get("bdd.nodes", 0.0),
        "bdd.sift_s": s["bdd.sift"],
        "bdd.sift_calls": c["bdd.sift"],
        "mincut.s": s["mincut"],
        "mincut.calls": c["mincut"],
        "netlist.extract_s": s["netlist.extract"],
        "netlist.extract_calls": c["netlist.extract"],
        "netlist.parse_s": s["netlist.parse"],
        "netlist.parse_calls": c["netlist.parse"],
        "kernel.pattern_gate_evals": perf_total.get("pattern_gate_evals", 0.0),
        "sim.interp_steps": c["sim.interp"],
        "parallel.items": items,
        "parallel.worker_s": worker_s,
        "parallel.overhead_per_item_s": (
            share(jobs * untraced["raw"] - worker_s, items)
        ),
        "parallel.canonical_s": s["parallel.canonical"],
        "parallel.canonical_calls": c["parallel.canonical"],
        "parallel.cpu_s": untraced["cpu_children"],
        "runtime.retries": k["runtime.retries"],
        "runtime.fallbacks": k["runtime.fallbacks"],
        "runtime.aborts": k["runtime.aborts"],
        "obs.overhead_share": share(traced["wall"], untraced["wall"]) - 1.0,
        "repro.cpu_s": cpu,
        "repro.wait_s": untraced["raw"] - cpu,
    }
    for cache in layer_trace.CACHES:
        values[f"kernel.hit_share.{cache}"] = hit_share(cache)
    for engine in layer_trace.ENGINES:
        values[f"engine.{engine}_s"] = s[f"engine.{engine}"]
        values[f"engine.{engine}_calls"] = c[f"engine.{engine}"]
    return values


def _is_count(name: str) -> bool:
    """Per-layer values the exact-repeat check compares."""
    return (
        name.endswith("_calls")
        or name.startswith("kernel.")
        or name in (
            "core.iterations", "sat.conflicts", "sat.clauses",
            "bdd.peak_nodes", "mincut.calls", "sim.interp_steps",
            "parallel.items", "runtime.retries", "runtime.fallbacks",
            "runtime.aborts",
        )
    )


#: Result-quality counts the correctness gate holds, and their direction.
QUALITY_BETTER = {"abstract_regs": "lower", "trace_cycles": "lower"}


def print_table(header, declared, metrics, samples, notes, unmeasured,
                outcome, rounds, phase, raw) -> None:
    """The human-readable report: every metric with its unit, direction,
    sample count and note, then the measured seconds, the gated counts,
    the host probe and any wrong result."""
    lines = [header, f"{'metric':<34} {'value':>14} {'unit':<6} "
                     f"{'better':<6} {'samples':>7}  note"]
    for entry in declared:
        name = entry["name"]
        note = notes.get(name, "")
        if any(name.startswith((key + "_", key + ".")) for key in unmeasured):
            note = "unmeasured: no calls where the layer table expects work"
        lines.append(
            f"{name:<34} {metrics[name]['value']:>14.6g} {entry['unit']:<6} "
            f"{entry['better']:<6} {samples.get(name, 1):>7}  {note}"
        )
    for name, value in raw.items():
        lines.append(f"{'measured ' + name:<34} {value:>14.6g} {'s':<6} "
                     f"{'lower':<6} {samples.get(name, 1):>7}  "
                     f"printed beside: seconds as measured")
    failed_share = outcome.failed / max(1, outcome.requests)
    lines.append(f"{'failed_share':<34} {failed_share:>14.6g} {'ratio':<6} "
                 f"{'lower':<6} {outcome.requests:>7}  "
                 f"reported as 'failed' / 'attempted'")
    for name, value in sorted(outcome.quality.items()):
        if name in metrics:
            continue
        lines.append(f"{name:<34} {value:>14} {'count':<6} "
                     f"{QUALITY_BETTER[name]:<6} {rounds:>7}  "
                     f"per round; gated by the correctness check")
    probes = phase["probes"]
    lines.append(
        f"host probe ({phase['probe_name']}): {probes[0]:.6f} s before, "
        f"{probes[-1]:.6f} s after the timed phase; "
        f"{min(probes):.6f}-{max(probes):.6f} s over {len(probes)} "
        f"readings (reference {phase['probe_reference']} s)"
    )
    lines.append("verdicts: " + ", ".join(
        f"{name}={count}" for name, count in sorted(outcome.tallies.items())
    ))
    if unmeasured:
        lines.append("unmeasured entry points: " + ", ".join(unmeasured))
    lines.extend(f"WRONG: {problem}" for problem in outcome.problems)
    print("\n".join(lines))


def run(args, spec, workdir) -> int:
    # Set-up is scaled like a stretch of the timed phase, by probes just
    # before and after it; the first one's time is not set-up.
    probe_start = time.monotonic()
    probe_before = host_probe(SETUP_PROBE_REPEATS)
    probing = time.monotonic() - probe_start
    import workloads  # imports repro: only once src/ is on the path
    from repro.kernel.perf import PERF

    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    timer = layer_trace.RaceTimer(PERF, os.path.join(workdir, "races.jsonl"))
    if args.workload == "batch":
        timer.install()
        workload.timer = timer
    workload.setup()
    workload.warm_up()
    setup_s = time.monotonic() - _STARTED - probing
    probe_after = host_probe(SETUP_PROBE_REPEATS)
    setup = (
        setup_s, setup_s * 2 * REFERENCE_PROBE_S / (probe_before + probe_after)
    )
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    passes = workloads.nominal_passes(workload, args.seconds)
    tracing = None
    if args.trace:
        tracing = Tracing(PERF, timer)
        per_round = workload.round_passes
        passes = 2 * per_round * max(1, passes // (2 * per_round))
    untraced, traced = timed_phase(workload, passes, tracing)
    if tracing is not None:
        tracing.merge_workers(getattr(workload, "worker_records", []))
    # Read before the checks and the set-up probes (reaped children too).
    rss_mb = peak_rss_mb()

    outcome = workload.check()
    if args.trace:
        section = "per_layer"
        values = per_layer(args, tracing, untraced, traced)
        samples = {name: 1 for name in values}
        notes, raw = {}, {}
        unmeasured = [
            key for key in EXPECTED[args.workload]
            if tracing.layers.calls.get(key, 0) == 0
        ]
    else:
        setups = [setup] + setup_probes(args)
        section = "end_to_end"
        triples = end_to_end(setups, untraced, rss_mb, outcome,
                             workload.round_passes)
        values = {name: triple[0] for name, triple in triples.items()}
        samples = {name: triple[1] for name, triple in triples.items()}
        notes = {name: triple[2] for name, triple in triples.items()}
        raw = measured(setups, untraced)
        unmeasured = []

    metrics = {
        entry["name"]: {"value": float(values[entry["name"]]),
                        "unit": entry["unit"]}
        for entry in spec[section]
    }
    header = (
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"passes {untraced['passes']}"
        + (f"+{traced['passes']} traced" if traced["passes"] else "")
        + f"  requests {outcome.requests}"
    )
    probes = untraced["probes"]
    print_table(header, spec[section], metrics, samples, notes, unmeasured,
                outcome, len(workload.summaries) // workload.round_passes,
                untraced, raw)
    correct = outcome.failed == 0 and not outcome.problems
    counts = {
        "requests": outcome.requests,
        "failed": outcome.failed,
        "definite": outcome.definite,
        "tallies": outcome.tallies,
        "quality": outcome.quality,
    }
    if args.trace:
        counts["layers"] = {
            name: value for name, value in values.items() if _is_count(name)
        }
    # Everything the helper scripts need beyond the metrics.
    print("record " + json.dumps({
        "counts": counts,
        "host_probe_s": [probes[0], probes[-1]],
        "measured": raw,
        "unmeasured": unmeasured,
        "problems": outcome.problems,
    }, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.requests,
        "failed": outcome.failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0 if correct else 1


def main() -> int:
    args = parse_args(sys.argv[1:])
    if not os.path.isdir(os.path.join(SRC, "repro")) or not os.path.isfile(SPEC):
        print(f"error: {ROOT} holds no src/repro or no BENCHMARK.json; "
              f"run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    with open(SPEC) as handle:
        spec = json.load(handle)
    os.makedirs(WORKDIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR)
    try:
        return run(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
