"""The fuzz-loop driver behind ``repro fuzz`` and the CI smoke job.

One campaign is a seeded sequence of generate -> oracle -> (on finding)
shrink -> persist iterations.  The per-iteration seed is ``seed + i``,
so ``--seed 0 --iters 50`` names the exact same 50 instances on every
machine, and a reproducer's filename records the seed that produced it.

Findings are shrunk with a *focused* predicate: only the engines
involved in the disagreement (plus the kernel ground truth) are re-run
while delta-debugging, which keeps shrinking fast even though the full
oracle runs four engines.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.fuzz.gen import FuzzInstance, GenConfig, generate_instance
from repro.fuzz.oracle import (
    DEFAULT_ENGINES,
    OracleReport,
    Verdict,
    run_oracle,
)
from repro.fuzz.shrink import save_reproducer, shrink_instance
from repro.obs import tracer as obs
from repro.runtime.budget import Budget


@dataclass
class Finding:
    seed: int
    #: the full report, or its ``to_json`` dict when the finding crossed
    #: a worker pipe (OracleReports carry BDD invariants, which cannot)
    report: "OracleReport | dict"
    reproducer_path: Optional[str] = None
    shrunk_stats: Optional[dict] = None

    def report_json(self) -> dict:
        report = self.report
        return report if isinstance(report, dict) else report.to_json()

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "report": self.report_json(),
            "reproducer": self.reproducer_path,
            "shrunk": self.shrunk_stats,
        }


@dataclass
class CampaignResult:
    seed: int
    iterations_run: int = 0
    instances: List[dict] = field(default_factory=list)
    findings: List[Finding] = field(default_factory=list)
    verdict_counts: Dict[str, int] = field(default_factory=dict)
    budget_exhausted: bool = False
    #: instances cut short by the per-instance budget (not findings)
    resource_out_count: int = 0
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "iterations_run": self.iterations_run,
            "ok": self.ok,
            "verdict_counts": dict(self.verdict_counts),
            "findings": [f.to_json() for f in self.findings],
            "instances": list(self.instances),
            "budget_exhausted": self.budget_exhausted,
            "resource_out": self.resource_out_count,
            "seconds": round(self.seconds, 3),
        }


def _finding_engines(report: OracleReport) -> List[str]:
    """Engines to re-run while shrinking: the ones with definite or
    broken verdicts, plus the kernel ground truth."""
    involved = {
        v.engine
        for v in report.verdicts
        if v.verdict in (Verdict.VERIFIED, Verdict.FALSIFIED, Verdict.ERROR)
        or v.certificate == "failed"
    }
    involved.add("kernel")
    return [name for name in DEFAULT_ENGINES if name in involved]


def _reproduces(reference: OracleReport, candidate: OracleReport) -> bool:
    """Does the candidate report show the same *kind* of finding?"""
    if reference.disagreements and candidate.disagreements:
        return True
    if reference.failed_certificates and candidate.failed_certificates:
        return True
    if reference.errors and candidate.errors:
        return True
    return False


def shrink_finding(
    instance: FuzzInstance,
    report: OracleReport,
    engines: Optional[Sequence[str]] = None,
    max_checks: int = 400,
    log: Optional[Callable[[str], None]] = None,
) -> FuzzInstance:
    """Delta-debug a flagged instance down to a minimal reproducer."""
    focus = list(engines) if engines is not None else _finding_engines(report)

    def predicate(candidate: FuzzInstance) -> bool:
        candidate_report = run_oracle(
            candidate.circuit, candidate.prop, engines=focus
        )
        return _reproduces(report, candidate_report)

    return shrink_instance(
        instance, predicate, max_checks=max_checks, log=log
    )


def _close_campaign_span(
    phase, result: CampaignResult
) -> CampaignResult:
    phase.set(
        iterations=result.iterations_run,
        mismatches=len(result.findings),
        resource_out=result.resource_out_count,
    )
    phase.__exit__(None, None, None)
    return result


def run_campaign(
    seed: int = 0,
    iters: int = 50,
    budget_seconds: Optional[float] = None,
    gen_config: Optional[GenConfig] = None,
    engines: Optional[Sequence[str]] = None,
    corpus_dir: Optional[str] = None,
    shrink: bool = True,
    log: Optional[Callable[[str], None]] = None,
    instance_seconds: Optional[float] = None,
    jobs: int = 1,
) -> CampaignResult:
    """Run ``iters`` differential iterations starting at ``seed``.

    Stops early when ``budget_seconds`` runs out.  When ``corpus_dir``
    is given, every finding is shrunk and persisted there as
    ``fuzz<seed>.net``.

    ``instance_seconds`` enforces a per-instance wall-clock budget so a
    single hostile generated netlist cannot stall the whole campaign:
    the instance is recorded as ``resource_out`` and the loop moves on.

    ``jobs >= 2`` shards the instances across that many worker
    processes.  Instance seeds stay ``seed + i`` regardless of
    sharding and results merge back in seed order, so a sharded
    campaign reports the same instances, findings and verdict counts
    as the sequential one (timing fields aside); reproducers are
    written by the parent, serially, in seed order.
    """
    gen_config = gen_config or GenConfig()
    result = CampaignResult(seed=seed)
    start = time.monotonic()
    phase = obs.span(
        "fuzz.campaign", seed=seed, iters=iters, jobs=max(1, jobs)
    )

    def note(message: str) -> None:
        if log is not None:
            log(message)

    if jobs >= 2:
        return _close_campaign_span(
            phase,
            _run_sharded(
                result,
                start,
                note,
                seed=seed,
                iters=iters,
                budget_seconds=budget_seconds,
                gen_config=gen_config,
                engines=engines,
                corpus_dir=corpus_dir,
                shrink=shrink,
                instance_seconds=instance_seconds,
                jobs=jobs,
            ),
        )

    for index in range(iters):
        if budget_seconds is not None and (
            time.monotonic() - start > budget_seconds
        ):
            result.budget_exhausted = True
            note(f"budget exhausted after {index} iterations")
            break
        instance_seed = seed + index
        inst_span = obs.span("fuzz.instance", seed=instance_seed)
        instance = generate_instance(instance_seed, gen_config)
        instance_budget = (
            None
            if instance_seconds is None
            else Budget(
                max_seconds=instance_seconds,
                name=f"instance-{instance_seed}",
            )
        )
        report = run_oracle(
            instance.circuit,
            instance.prop,
            engines=engines,
            budget=instance_budget,
        )
        result.iterations_run += 1
        stats = instance.stats()
        stats["ok"] = report.ok
        if report.resource_out:
            result.resource_out_count += 1
            stats["resource_out"] = True
            note(f"instance {instance_seed}: per-instance budget hit")
        consensus = report.consensus
        stats["consensus"] = None if consensus is None else consensus.value
        result.instances.append(stats)
        for verdict in report.verdicts:
            key = verdict.verdict.value
            result.verdict_counts[key] = result.verdict_counts.get(key, 0) + 1
        note(report.summary())
        if report.ok:
            inst_span.set(ok=True)
            inst_span.__exit__(None, None, None)
            continue

        finding = Finding(seed=instance_seed, report=report)
        result.findings.append(finding)
        if shrink:
            shrunk = shrink_finding(instance, report, log=log)
            finding.shrunk_stats = shrunk.stats()
            if corpus_dir is not None:
                finding.reproducer_path = save_reproducer(
                    shrunk, corpus_dir, stem=f"fuzz{instance_seed}"
                )
                note(f"reproducer saved to {finding.reproducer_path}")
        inst_span.set(ok=False)
        inst_span.__exit__(None, None, None)
    result.seconds = time.monotonic() - start
    return _close_campaign_span(phase, result)


def _run_sharded(
    result: CampaignResult,
    start: float,
    note: Callable[[str], None],
    *,
    seed: int,
    iters: int,
    budget_seconds: Optional[float],
    gen_config: GenConfig,
    engines: Optional[Sequence[str]],
    corpus_dir: Optional[str],
    shrink: bool,
    instance_seconds: Optional[float],
    jobs: int,
) -> CampaignResult:
    """The ``jobs >= 2`` campaign body: instances sharded across warm
    forked workers, merged back in seed order (see ``run_campaign``)."""
    from repro.parallel.shard import SKIPPED, ShardError, shard_map

    def one_instance(instance_seed: int) -> dict:
        with obs.span("fuzz.instance", seed=instance_seed) as inst_span:
            payload = _one_instance(instance_seed)
            inst_span.set(ok=payload["ok"])
            return payload

    def _one_instance(instance_seed: int) -> dict:
        instance = generate_instance(instance_seed, gen_config)
        instance_budget = (
            None
            if instance_seconds is None
            else Budget(
                max_seconds=instance_seconds,
                name=f"instance-{instance_seed}",
            )
        )
        report = run_oracle(
            instance.circuit,
            instance.prop,
            engines=engines,
            budget=instance_budget,
        )
        payload = {
            "stats": instance.stats(),
            "report": report.to_json(),
            "ok": report.ok,
            "resource_out": report.resource_out,
            "consensus": (
                None if report.consensus is None else report.consensus.value
            ),
            "verdicts": [v.verdict.value for v in report.verdicts],
            "summary": report.summary(),
            "shrunk": None,
            "shrunk_stats": None,
        }
        if not report.ok and shrink:
            # Shrink inside the worker (the expensive part); the parent
            # persists the reproducer serially.  FuzzInstance is plain
            # circuit + property, so it crosses the pipe.
            shrunk = shrink_finding(instance, report)
            payload["shrunk"] = shrunk
            payload["shrunk_stats"] = shrunk.stats()
        return payload

    deadline = None if budget_seconds is None else start + budget_seconds
    outcomes = shard_map(
        one_instance,
        [seed + index for index in range(iters)],
        jobs=jobs,
        deadline=deadline,
        log=note,
    )
    for index, outcome in enumerate(outcomes):
        if outcome is SKIPPED:
            # Keep the longest completed prefix: everything merged so
            # far matches what a sequential run with the same cutoff
            # would have produced.
            result.budget_exhausted = True
            note(f"budget exhausted after {result.iterations_run} iterations")
            break
        if isinstance(outcome, ShardError):
            raise outcome
        instance_seed = seed + index
        result.iterations_run += 1
        stats = dict(outcome["stats"])
        stats["ok"] = outcome["ok"]
        if outcome["resource_out"]:
            result.resource_out_count += 1
            stats["resource_out"] = True
            note(f"instance {instance_seed}: per-instance budget hit")
        stats["consensus"] = outcome["consensus"]
        result.instances.append(stats)
        for key in outcome["verdicts"]:
            result.verdict_counts[key] = result.verdict_counts.get(key, 0) + 1
        note(outcome["summary"])
        if outcome["ok"]:
            continue
        finding = Finding(seed=instance_seed, report=outcome["report"])
        result.findings.append(finding)
        finding.shrunk_stats = outcome["shrunk_stats"]
        if outcome["shrunk"] is not None and corpus_dir is not None:
            finding.reproducer_path = save_reproducer(
                outcome["shrunk"], corpus_dir, stem=f"fuzz{instance_seed}"
            )
            note(f"reproducer saved to {finding.reproducer_path}")
    result.seconds = time.monotonic() - start
    return result
