"""Exact-repeat check: two runs with the same seed must count the same.

    python3 perfbench/repeat_check.py                 # every workload
    python3 perfbench/repeat_check.py --workloads batch --seed 3

Runs every workload twice at reduced size (``--seconds 2``: one untraced
and one traced pass) with the same seed and the traced run switched on,
and compares the counts each run records: verdict tallies, the
result-quality counts, and every per-layer call count, ``sat.conflicts``,
``sat.clauses``, ``bdd.peak_nodes`` and ``kernel.*`` value.  Any
difference is nondeterminism -- for example a race winner leaking into
results -- that would otherwise read as noise.  Exits 1 on a difference
or a wrong result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def counts_of(workload, seed, seconds, attempt):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(
            f"{workload} run {attempt} exited {proc.returncode}:\n"
            f"{proc.stdout[-3000:]}\n{proc.stderr[-3000:]}"
        )
    record = proc.stdout.strip().splitlines()[-2]
    return json.loads(record[len("record "):])["counts"]


def flatten(counts, prefix=""):
    flat = {}
    for name, value in counts.items():
        if isinstance(value, dict):
            flat.update(flatten(value, f"{prefix}{name}."))
        else:
            flat[f"{prefix}{name}"] = value
    return flat


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="table1,batch")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args(argv)

    differences = 0
    for workload in args.workloads.split(","):
        first, second = (
            flatten(counts_of(workload, args.seed, args.seconds, attempt))
            for attempt in (1, 2)
        )
        diff = sorted(
            name for name in set(first) | set(second)
            if first.get(name) != second.get(name)
        )
        differences += len(diff)
        print(f"{workload}: {len(first)} counts, "
              f"{'identical' if not diff else f'{len(diff)} differ'}")
        for name in diff:
            print(f"  {name}: {first.get(name)} != {second.get(name)}")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
