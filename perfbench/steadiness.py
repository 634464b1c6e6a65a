"""Steadiness check: how much the end-to-end metrics spread over seeds.

    python3 perfbench/steadiness.py --seeds 10          # every workload
    python3 perfbench/steadiness.py --workloads batch --seeds 5 --first-seed 100

Runs ``run.py`` once per (workload, seed), one after another, and for
every end-to-end metric prints the median of the runs and the spread:
the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  A
metric is steady when its spread is within its bound in BENCHMARK.json;
this benchmark aims for a third of the bound.

``--save PATH`` writes every run's metrics as JSON; ``--compare PATH``
reads such a file as a first set and reports, per metric, whether this
set's median is worse than the first set's by more than the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    """One run's metric values, plus its host probe and measured seconds."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} exited {proc.returncode}:\n"
            f"{proc.stdout[-3000:]}\n{proc.stderr[-3000:]}"
        )
    *_, record, result = proc.stdout.strip().splitlines()
    result = json.loads(result)
    values = {name: item["value"] for name, item in result["metrics"].items()}
    record = json.loads(record[len("record "):])
    values["host_probe_s"] = max(record["host_probe_s"])
    values.update(
        (f"measured_{name}", value) for name, value in record["measured"].items()
    )
    print(f"  seed {seed}: " + "  ".join(
        f"{name} {value:.4g}" for name, value in values.items()
    ), flush=True)
    return values


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("inf")


def worse_by(metric, first, second):
    """How much worse the second median is than the first, as a share."""
    if metric["better"] == "lower":
        return second / first - 1.0
    return 1.0 - second / first


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        help="comma-separated (default: those BENCHMARK.json "
                        "declares)")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--save", metavar="PATH")
    parser.add_argument("--compare", metavar="PATH")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    metrics = spec["end_to_end"]
    first = {}
    if args.compare:
        with open(args.compare) as handle:
            first = json.load(handle)

    names = (args.workloads.split(",") if args.workloads
             else [workload["name"] for workload in spec["workloads"]])
    runs = {}
    steady = True
    for workload in names:
        runs[workload] = [
            run_once(workload, seed, spec["run_seconds"])
            for seed in range(args.first_seed, args.first_seed + args.seeds)
        ]
        print(f"{workload}: {len(runs[workload])} runs")
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            values = [run[name] for run in runs[workload]]
            median, share = statistics.median(values), spread(values)
            verdict = "ok" if share <= bound / 3 else (
                "within bound" if share <= bound else "TOO NOISY"
            )
            steady = steady and share <= bound
            line = (f"  {name:<16} median {median:<12.6g} spread "
                    f"{share:7.4f}  bound {bound:<6} {verdict}")
            earlier = first.get(workload)
            if earlier:
                then = statistics.median(run[name] for run in earlier)
                worse = worse_by(metric, then, median)
                line += f"  vs first set {worse:+.4f}"
                if worse > bound:
                    line += " WORSE"
                    steady = False
            print(line)
        for name in runs[workload][0]:
            if name.startswith(("measured_", "host_")):
                values = [run[name] for run in runs[workload]]
                print(f"  {name:<28} median {statistics.median(values):<12.6g} "
                      f"spread {spread(values):7.4f}  (printed beside)")
    if args.save:
        with open(args.save, "w") as handle:
            json.dump(runs, handle, indent=2)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
