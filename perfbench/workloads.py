"""The benchmark's two workloads.

Each workload is a closed loop: one request at a time, the next sent
when the previous one returns.  A *pass* is one fixed unit of work; the
timed phase runs a whole number of passes, so ``wall_s`` always times
the same work for the same ``--seconds``.  Results are kept as compact
summaries during the timed phase and checked only after it.

``run_pass(lap)`` returns one ``(seconds, factor)`` pair per request,
and sets ``worker_wall`` to the wall seconds its requests spent in
forked workers (0 where none fork).
The workload calls ``lap()`` at the end of each stretch of work (a
request on ``table1``, a pass on ``batch``); ``lap`` probes the host's
speed and returns the factor that scales the stretch's seconds to the
reference speed (see ``run.HostClock``).

- ``table1``: the paper's Table 1 at CI scale -- RFN on the five
  properties, a fresh ``repro verify``'s worth of work per pass.  It
  runs the paper's fixed designs, whatever ``--seed`` says.
- ``batch``: ``repro batch <shard> --jobs 2`` in-process through
  ``repro.cli.main``, one shard of a corpus generated from the seed per
  pass.

A *round* is the run of passes that covers the workload's inputs once
(``round_passes``: one pass on ``table1``, one per shard on ``batch``);
the result-quality counts are summed over a round and every round must
match the first.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

# Import ``repro.core`` before anything that reaches ``repro.engine`` or
# ``repro.parallel``: importing either of those first runs into the
# cycle engine.base -> core.property -> core/__init__ -> core.rfn ->
# engine and fails with ImportError.
import repro.core  # noqa: F401  (import order matters, see above)
from repro.core import RFN, RfnConfig
from repro.core.certify import certify_error_trace
from repro.designs import table1_workloads
from repro.kernel.scache import clear_caches

#: One request's measured seconds and the host-speed factor of its stretch.
Sample = Tuple[float, float]


@dataclass
class Outcome:
    """What the correctness gate found, over every pass run so far."""

    requests: int = 0
    failed: int = 0
    definite: int = 0
    problems: List[str] = field(default_factory=list)
    #: result-quality counts per round (identical in every round)
    quality: Dict[str, int] = field(default_factory=dict)
    tallies: Dict[str, int] = field(default_factory=dict)

    def fail(self, message: str, requests: int = 1) -> None:
        self.failed += requests
        if len(self.problems) < 20:
            self.problems.append(message)


def _same_every_round(outcome: Outcome, per_pass: List[Dict[str, int]],
                      round_passes: int) -> None:
    """Record the quality counts summed over a round; rounds must agree
    exactly."""
    rounds = []
    for first in range(0, len(per_pass) - round_passes + 1, round_passes):
        total: Dict[str, int] = {}
        for counts in per_pass[first:first + round_passes]:
            for name, value in counts.items():
                total[name] = total.get(name, 0) + value
        rounds.append(total)
    if not rounds:
        return
    outcome.quality = dict(rounds[0])
    for index, counts in enumerate(rounds[1:], start=1):
        if counts != rounds[0]:
            outcome.fail(
                f"round {index} counts {counts} differ from round 0 "
                f"{rounds[0]}",
                requests=0,
            )


class Table1:
    """RFN on the paper's five Table 1 properties."""

    name = "table1"
    #: About one pass's time on a 2-vCPU x86 host at the commit that
    #: introduced the benchmark.  It only turns ``--seconds`` into a pass
    #: count: 13 at 30 s, so the median lands among the FIFO properties
    #: and the tail among ``error_flag``'s samples, not on a boundary
    #: between two properties.
    pass_seconds = 2.3
    round_passes = 1
    worker_wall = 0.0
    #: Requests run in this process, so the host is probed here.
    forked = False
    #: Registers in each final abstract model and the counterexample
    #: length, as committed in benchmarks/out/table1.txt.  More
    #: registers or a longer trace is a worse answer.
    abstract_regs = {
        "mutex": 3, "error_flag": 5, "psh_hf": 6, "psh_af": 6, "psh_full": 6,
    }
    trace_cycles = {"error_flag": 10}

    def __init__(self, seed: int, workdir: str) -> None:
        self.summaries: List[List[Dict]] = []

    def setup(self) -> None:
        self.built = table1_workloads()

    def warm_up(self) -> None:
        row = self.built[0]
        RFN(row.circuit, row.prop, RfnConfig()).run()

    def run_pass(self, lap: Callable[[], float]) -> List[Sample]:
        rows = table1_workloads()
        clear_caches()
        samples, summary = [], []
        for row in rows:
            start = time.perf_counter()
            result = RFN(row.circuit, row.prop, RfnConfig()).run()
            elapsed = time.perf_counter() - start
            # Only plain data outlives the request: a pass that kept its
            # designs alive would slow every later pass's collections.
            summary.append({
                "name": row.name,
                "verdict": result.status.value,
                "abstract_regs": result.abstract_model_registers,
                "trace": result.trace,
            })
            samples.append((elapsed, lap()))
        self.summaries.append(summary)
        return samples

    def check(self) -> Outcome:
        outcome = Outcome()
        rows = {row.name: row for row in table1_workloads()}
        per_pass = []
        for index, summary in enumerate(self.summaries):
            counts = {"abstract_regs": 0, "trace_cycles": 0}
            for item in summary:
                row, verdict = rows[item["name"]], item["verdict"]
                outcome.requests += 1
                outcome.tallies[verdict] = outcome.tallies.get(verdict, 0) + 1
                if verdict in ("verified", "falsified"):
                    outcome.definite += 1
                counts["abstract_regs"] += item["abstract_regs"]
                trace = item["trace"]
                if trace is not None:
                    counts["trace_cycles"] += trace.length
                expected = "verified" if row.expected else "falsified"
                where = f"pass {index} {row.name}"
                if verdict != expected:
                    outcome.fail(f"{where}: {verdict}, expected {expected}")
                elif verdict == "falsified" and (
                    trace is None
                    or certify_error_trace(row.circuit, row.prop, trace)
                    .status.value != "certified"
                ):
                    outcome.fail(f"{where}: error trace does not certify")
                elif item["abstract_regs"] > self.abstract_regs[row.name]:
                    outcome.fail(
                        f"{where}: {item['abstract_regs']} abstract registers, "
                        f"committed {self.abstract_regs[row.name]}"
                    )
                elif trace is not None and (
                    trace.length > self.trace_cycles[row.name]
                ):
                    outcome.fail(
                        f"{where}: {trace.length}-cycle trace, committed "
                        f"{self.trace_cycles[row.name]}"
                    )
            per_pass.append(counts)
        _same_every_round(outcome, per_pass, self.round_passes)
        return outcome


class Batch:
    """``repro batch <shard> --jobs 2`` over the shards of a generated
    corpus, one shard per pass."""

    name = "batch"
    #: 16 passes at 30 s, each over one 250-instance shard of a
    #: 1000-instance corpus: four rounds, 4000 requests, with the host's
    #: speed probed between passes.  A run's tail is the median of its
    #: passes' tails, so the shards spread it over 1000 distinct
    #: instances; over one 250-instance corpus every pass's tail fell on
    #: the same few slow instances, and the run's tail moved with the
    #: seed's draw of them.
    pass_seconds = 1.9
    shard_size = 250
    round_passes = 4
    jobs = 2
    #: Requests run in forked workers, so the host is probed in a forked
    #: child (``run.fork_probe``).
    forked = True
    #: Instance seeds of one benchmark seed never overlap another's.
    seed_stride = 100_000

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.shard_dirs = [
            os.path.join(workdir, f"shard{shard}")
            for shard in range(self.round_passes)
        ]
        self.warm_dir = os.path.join(workdir, "warm")
        self.report_path = os.path.join(workdir, "batch-report.json")
        self.timer = None  # layers.RaceTimer, set by the runner
        self.worker_wall = 0.0
        self.summaries: List[Dict] = []
        #: traced races' layer deltas, shipped home from the workers
        self.worker_records: List[Dict] = []

    def setup(self) -> None:
        from repro.fuzz.gen import generate_instance
        from repro.fuzz.shrink import save_reproducer

        for index in range(self.shard_size * self.round_passes):
            instance = generate_instance(self.seed * self.seed_stride + index)
            stem = f"inst{index:04d}"
            shard = self.shard_dirs[index // self.shard_size]
            save_reproducer(instance, shard, stem=stem)
            if index < 4:
                save_reproducer(instance, self.warm_dir, stem=stem)

    def _batch(self, directory: str) -> int:
        from repro import cli

        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main([
                "batch", directory, "--jobs", str(self.jobs),
                "--report", self.report_path,
            ])

    def warm_up(self) -> None:
        self._batch(self.warm_dir)
        self.timer.collect()

    def run_pass(self, lap: Callable[[], float]) -> List[Sample]:
        shard = len(self.summaries) % self.round_passes
        code = self._batch(self.shard_dirs[shard])
        records = self.timer.collect()
        self.worker_records.extend(r for r in records if "layers" in r)
        with open(self.report_path) as handle:
            report = json.load(handle)
        self.summaries.append({
            "shard": shard,
            "exit": code,
            "races": len(records),
            "instances": [
                {
                    "file": os.path.basename(item["path"]),
                    "verdict": item["verdict"],
                    "trace_length": item.get("trace_length"),
                    "infrastructure": bool(item.get("infrastructure")),
                }
                for item in report["instances"]
            ],
        })
        factor = lap()
        self.worker_wall = sum(record["t"] for record in records)
        # A request's time is its race's CPU seconds: the race runs
        # sequentially in its worker, so this is its wall time less the
        # time it waited for a vCPU, which the other worker, this
        # process and the host's other tenants share.  That wait is the
        # host's, not the program's, and it spread the median request's
        # wall time over seeds nearly four times as far as its CPU time
        # (README, "Why batch requests are timed in CPU seconds").
        return [(record["cpu"], factor) for record in records]

    def reference(self) -> List[Dict[str, tuple]]:
        """Verdict and counterexample length of the exhaustive ``kernel``
        engine per corpus file, one table per shard.  Computed once,
        after the timed phase, so that during it this process holds no
        more than ``repro batch`` itself would (every forked worker
        inherits this heap)."""
        from repro.engine import Limits, registry
        from repro.fuzz.shrink import load_corpus

        kernel = registry.get("kernel")
        answers: List[Dict[str, tuple]] = []
        for directory in self.shard_dirs:
            answers.append({})
            for path, instance in load_corpus(directory):
                result = kernel.run(instance.circuit, instance.prop, Limits())
                length = None if result.trace is None else result.trace.length
                answers[-1][os.path.basename(path)] = (
                    result.verdict.value, length
                )
        return answers

    def check(self) -> Outcome:
        outcome = Outcome()
        reference = self.reference()
        per_pass = []
        for index, summary in enumerate(self.summaries):
            instances = summary["instances"]
            shard = reference[summary["shard"]]
            counts = {"trace_cycles": 0}
            outcome.requests += len(instances)
            if summary["races"] != len(instances):
                outcome.fail(
                    f"pass {index}: {summary['races']} timed races for "
                    f"{len(instances)} instances", requests=0,
                )
            falsified = any(i["verdict"] == "falsified" for i in instances)
            expected_exit = 1 if falsified else 0
            if summary["exit"] != expected_exit or len(instances) != len(
                shard
            ):
                outcome.fail(
                    f"pass {index}: exit {summary['exit']} over "
                    f"{len(instances)} instances, expected exit "
                    f"{expected_exit} over {len(shard)}",
                    requests=len(instances),
                )
                continue
            for item in instances:
                verdict = item["verdict"]
                outcome.tallies[verdict] = outcome.tallies.get(verdict, 0) + 1
                if verdict in ("verified", "falsified"):
                    outcome.definite += 1
                if item["trace_length"] is not None:
                    counts["trace_cycles"] += item["trace_length"]
                want = shard.get(item["file"])
                got = (verdict, item["trace_length"])
                if item["infrastructure"] or verdict == "error":
                    outcome.fail(f"pass {index} {item['file']}: {verdict} "
                                 f"(infrastructure failure)")
                elif got != want:
                    outcome.fail(f"pass {index} {item['file']}: {got}, "
                                 f"kernel engine says {want}")
            per_pass.append(counts)
        _same_every_round(outcome, per_pass, self.round_passes)
        return outcome


WORKLOADS = {cls.name: cls for cls in (Table1, Batch)}


def nominal_passes(workload, seconds: float) -> int:
    """The fixed pass count, whole rounds, that fills about ``seconds``
    at the parent."""
    per_round = workload.round_passes
    return per_round * max(
        1, round(seconds / (workload.pass_seconds * per_round))
    )
