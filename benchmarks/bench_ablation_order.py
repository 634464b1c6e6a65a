"""Ablation -- BDD variable-order persistence across iterations (§2.2).

"At the end of Step 2, we save the current BDD variable ordering to use
as the initial BDD variable ordering for the next iteration of RFN."
This bench runs RFN on the Table-1 True properties with and without that
order hand-off (dynamic reordering enabled in both) and reports total
time and the summed per-iteration BDD allocations.

Expected shape: reusing the sifted order never hurts and usually lowers
the BDD work of later (larger) iterations.
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


def run(workload, reuse):
    config = RfnConfig(
        reuse_variable_order=reuse,
        auto_reorder=True,
        budget=Budget(max_seconds=3600),
    )
    result = RFN(workload.circuit, workload.prop, config).run()
    assert result.status is Verdict.VERIFIED
    nodes = sum(it.bdd_nodes for it in result.iterations)
    return result.seconds, nodes, len(result.iterations)


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_order_persistence(benchmark, workload):
    def run_both():
        return run(workload, True), run(workload, False)

    (with_s, with_nodes, with_iters), (wo_s, wo_nodes, wo_iters) = (
        benchmark.pedantic(run_both, rounds=1, iterations=1)
    )
    _ROWS[workload.name] = (
        workload.name,
        f"{with_s:.2f}",
        with_nodes,
        with_iters,
        f"{wo_s:.2f}",
        wo_nodes,
        wo_iters,
    )


@pytest.fixture(scope="module", autouse=True)
def report():
    yield
    rows = [_ROWS[w.name] for w in WORKLOADS if w.name in _ROWS]
    if not rows:
        return
    emit_table(
        "ablation_order",
        "Ablation (Section 2.2): variable-order persistence across "
        "CEGAR iterations",
        ["Property", "Reuse: s", "Reuse: BDD nodes", "Reuse: iters",
         "Fresh: s", "Fresh: BDD nodes", "Fresh: iters"],
        rows,
    )
