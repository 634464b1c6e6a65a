"""Ablation -- the greedy sequential-ATPG minimization of Step 4.

Section 2.4 motivates the second refinement phase: "the crucial-register
candidate list may still contain registers whose removal does not impact
the invalidation of the error trace".  This bench runs RFN on the Table-1
True properties with minimization enabled and disabled and reports the
final abstract-model sizes and iteration counts.

Expected shape: minimization never yields a larger final model, and on
the processor design (whose candidate lists carry correlated pipeline
registers) it yields a strictly smaller one or equal with fewer ATPG
surprises.
"""

from __future__ import annotations

import pytest

from repro.core import RFN, RfnConfig
from repro.designs import table1_workloads
from repro.engine import Verdict
from repro.runtime import Budget
from reporting import emit_table

WORKLOADS = [w for w in table1_workloads() if w.expected]
_ROWS = {}


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_refinement_ablation(benchmark, workload):
    def run_both():
        with_min = RFN(
            workload.circuit,
            workload.prop,
            RfnConfig(
                enable_minimization=True, budget=Budget(max_seconds=3600)
            ),
        ).run()
        without = RFN(
            workload.circuit,
            workload.prop,
            RfnConfig(
                enable_minimization=False, budget=Budget(max_seconds=3600)
            ),
        ).run()
        return with_min, without

    with_min, without = benchmark.pedantic(run_both, rounds=1, iterations=1)
    assert with_min.status is Verdict.VERIFIED
    assert without.status is Verdict.VERIFIED
    assert (
        with_min.abstract_model_registers <= without.abstract_model_registers
    )
    _ROWS[workload.name] = (
        workload.name,
        with_min.abstract_model_registers,
        len(with_min.iterations),
        without.abstract_model_registers,
        len(without.iterations),
    )


@pytest.fixture(scope="module", autouse=True)
def report():
    yield
    rows = [_ROWS[w.name] for w in WORKLOADS if w.name in _ROWS]
    if not rows:
        return
    emit_table(
        "ablation_refinement",
        "Ablation (Section 2.4): greedy minimization on/off "
        "(final abstract-model registers)",
        ["Property", "Min: regs", "Min: iters",
         "NoMin: regs", "NoMin: iters"],
        rows,
    )
