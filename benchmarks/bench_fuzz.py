"""Differential-fuzz smoke benchmark: the engine-equivalence audit.

Runs a fixed-seed fuzz campaign through every verification engine (SAT
BMC + k-induction, BDD forward reachability, the RFN CEGAR loop, and
exhaustive kernel search) and emits a machine-readable JSON report
(``benchmarks/out/fuzz_differential.json``): verdict mix, per-engine
wall-clock, throughput, and -- the gate -- zero disagreements, zero
failed certificates.

Runs standalone (``python benchmarks/bench_fuzz.py``) or under pytest
(``pytest benchmarks/bench_fuzz.py``).
"""

from __future__ import annotations

from repro.fuzz import GenConfig, run_campaign

from reporting import emit_json

SEED = 0
ITERS = 40


def run_benchmark() -> dict:
    result = run_campaign(
        seed=SEED,
        iters=ITERS,
        gen_config=GenConfig(),
        shrink=False,  # findings fail the gate; no need to minimize here
    )
    consensus = {"verified": 0, "falsified": 0, "none": 0}
    for row in result.instances:
        consensus[row["consensus"] or "none"] += 1
    payload = {
        "seed": SEED,
        "iters": ITERS,
        "iterations_run": result.iterations_run,
        "ok": result.ok,
        "verdict_counts": dict(result.verdict_counts),
        "consensus_mix": consensus,
        "findings": [f.to_json() for f in result.findings],
        "seconds": round(result.seconds, 3),
        "instances_per_s": (
            round(result.iterations_run / result.seconds, 1)
            if result.seconds > 0
            else None
        ),
    }
    return payload


def test_fuzz_differential_smoke():
    """CI gate: the fixed-seed campaign finds zero engine disagreements,
    zero failed certificates, and reaches a definite consensus on every
    instance (no engine may silently degrade to UNKNOWN at this size)."""
    payload = run_benchmark()
    emit_json("fuzz_differential", payload)
    assert payload["ok"], payload["findings"]
    assert payload["iterations_run"] == ITERS
    assert payload["consensus_mix"]["none"] == 0, payload["consensus_mix"]
    # The generator must keep exercising both polarities.
    assert payload["consensus_mix"]["verified"] > 0
    assert payload["consensus_mix"]["falsified"] > 0


if __name__ == "__main__":
    emit_json("fuzz_differential", run_benchmark())
