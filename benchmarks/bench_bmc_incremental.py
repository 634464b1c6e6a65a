"""Benchmark: incremental vs monolithic BMC (single-instance SAT).

Measures the bounded-model-checking loop at increasing depths in both
modes on two TRUE-property designs (every depth query is UNSAT, so the
loop runs the full depth range -- the worst case for re-encoding):

- **counter**: a saturating counter whose overflow value is unreachable;
- **picojava_iu**: one IU unit's FSM driven past its legal phase count
  (state 15 with ``num_states = 10``), whose COI drags in the datapath.

The monolithic mode is the per-depth re-encode baseline defined here
(:func:`monolithic_bmc`): it rebuilds the unrolling and a fresh solver
at every depth (O(k^2) total encoding work to reach depth k).  The
incremental mode is :func:`repro.mc.bmc.bmc`, which keeps one pooled
solver session, appends only the new frame's clauses and asserts
``bad@k`` through assumptions, inheriting all learned clauses.  Both
run the bounded loop only (``induction=False``).  Emits
``benchmarks/out/bmc_incremental.json`` and is
the gate behind CI's ``bench-incremental-smoke`` job: incremental must
beat monolithic at depth >= 16 and by >= 3x at depth 32.

Runs standalone (``python benchmarks/bench_bmc_incremental.py``) or
under pytest (``pytest benchmarks/bench_bmc_incremental.py``).
"""

from __future__ import annotations

import sys
import time

from repro.atpg.encode import Unroller
from repro.core.property import UnreachabilityProperty
from repro.designs import IuParams, build_iu
from repro.designs.counters import saturating_counter
from repro.kernel.perf import PERF
from repro.kernel.scache import clear_caches, coi_model
from repro.mc.bmc import BmcOutcome, bmc
from repro.sat.solver import SatStatus, Solver

from reporting import emit_json, emit_table

DEPTHS = (16, 32)
MIN_SPEEDUP_AT_32 = 3.0


def _workloads():
    counter, counter_prop = saturating_counter(width=6)
    iu, _ = build_iu(IuParams())
    iu_prop = UnreachabilityProperty(
        "u0_illegal_state",
        {f"u0_state[{bit}]": 1 for bit in range(4)},
    )
    return [("counter", counter, counter_prop), ("picojava_iu", iu, iu_prop)]


def monolithic_bmc(circuit, prop, max_depth: int) -> BmcOutcome:
    """The per-depth re-encode baseline of the bounded loop: a fresh
    unrolling of the property's COI and a fresh solver at every depth,
    ``bad@k`` asserted as units."""
    model = coi_model(circuit, prop.signals())
    for depth in range(max_depth + 1):
        unroller = Unroller(model, depth + 1, use_initial_state=True)
        for name, value in prop.target.items():
            unroller.cnf.add_unit(unroller.lit(name, depth, value))
        if Solver(unroller.cnf).solve().status is SatStatus.SAT:
            return BmcOutcome.FALSE
    return BmcOutcome.UNKNOWN


def _timed_run(run):
    clear_caches()
    PERF.reset()
    start = time.perf_counter()
    outcome = run()
    return outcome, time.perf_counter() - start


def run_benchmark() -> dict:
    runs = []
    for name, circuit, prop in _workloads():
        for depth in DEPTHS:
            mono, mono_s = _timed_run(
                lambda: monolithic_bmc(circuit, prop, depth)
            )
            incr, incr_s = _timed_run(
                lambda: bmc(
                    circuit,
                    prop,
                    max_depth=depth,
                    max_conflicts=None,
                    induction=False,
                ).outcome
            )
            counters = PERF.snapshot()["counters"]
            assert incr == mono, (
                f"{name}@{depth}: incremental {incr} != monolithic {mono}"
            )
            runs.append({
                "design": name,
                "depth": depth,
                "outcome": incr.value,
                "monolithic_seconds": round(mono_s, 4),
                "incremental_seconds": round(incr_s, 4),
                "speedup": round(mono_s / incr_s, 2) if incr_s else 0.0,
                "frames_appended": counters.get(
                    "unroll.frames_appended", 0
                ),
                "clauses_reused": counters.get("sat.clauses_reused", 0),
                "learned_retained": counters.get(
                    "sat.learned_retained", 0
                ),
            })
    payload = {
        "benchmark": "bmc_incremental",
        "min_speedup_at_32": MIN_SPEEDUP_AT_32,
        "runs": runs,
    }
    emit_json("bmc_incremental", payload)
    emit_table(
        "bmc_incremental",
        "Incremental vs monolithic BMC (bounded loop, all depths UNSAT)",
        ["design", "depth", "mono (s)", "incr (s)", "speedup"],
        [
            [r["design"], r["depth"], r["monolithic_seconds"],
             r["incremental_seconds"], f'{r["speedup"]}x']
            for r in runs
        ],
    )
    return payload


def test_incremental_bmc_speedup():
    """CI gate: incremental never slower at depth >= 16, >= 3x at 32."""
    payload = run_benchmark()
    for run in payload["runs"]:
        label = f'{run["design"]}@{run["depth"]}'
        if run["depth"] >= 16:
            assert run["speedup"] > 1.0, (
                f"{label}: incremental slower than monolithic "
                f'({run["incremental_seconds"]}s vs '
                f'{run["monolithic_seconds"]}s)'
            )
        if run["depth"] >= 32:
            assert run["speedup"] >= MIN_SPEEDUP_AT_32, (
                f'{label}: speedup {run["speedup"]}x below the '
                f"{MIN_SPEEDUP_AT_32}x gate"
            )


if __name__ == "__main__":
    run_benchmark()
    sys.exit(0)
