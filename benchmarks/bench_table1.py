"""Table 1 -- Property Verification Results.

Regenerates the paper's Table 1: for each of the five properties
(``mutex``, ``error_flag`` on the processor module; ``psh_hf``,
``psh_af``, ``psh_full`` on the FIFO controller) run RFN and report

    registers in COI | gates in COI | RFN time | result | registers in
    the final abstract model

plus the paper's side claim that the plain symbolic model checker with
COI reduction fails on these designs (checked on the processor rows,
whose COI carries the whole datapath).

Shape targets (Section 3): every property resolves; `error_flag` is
falsified with a concrete trace; the final abstract models hold a few
dozen registers at most, orders of magnitude below the COI.
"""

from __future__ import annotations

import pytest

from repro.core import RFN, RfnConfig
from repro.designs import paper_scale_enabled, table1_workloads
from repro.engine import Limits, Verdict, registry
from repro.netlist.ops import coi_stats
from repro.runtime import Budget
from reporting import emit_json, emit_table

WORKLOADS = table1_workloads()
_ROWS = {}
_BASELINE = {}


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_table1_rfn(benchmark, workload):
    coi_regs, coi_gates = coi_stats(workload.circuit, workload.prop.signals())

    def run():
        return RFN(
            workload.circuit,
            workload.prop,
            # A hard cap, far above the paper-scale rows (EXPERIMENTS.md:
            # error_flag ran 957 s there).
            RfnConfig(budget=Budget(max_seconds=3600)),
        ).run()

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    expected = Verdict.VERIFIED if workload.expected else Verdict.FALSIFIED
    assert result.status is expected
    _ROWS[workload.name] = {
        "property": workload.name,
        "coi_registers": coi_regs,
        "coi_gates": coi_gates,
        "seconds": round(result.seconds, 4),
        "verdict": result.status.value,
        "abstract_registers": result.abstract_model_registers,
    }


@pytest.mark.parametrize(
    "workload",
    [w for w in WORKLOADS if w.name in ("mutex", "error_flag")],
    ids=lambda w: w.name,
)
def test_table1_plain_smc_baseline(benchmark, workload):
    """The paper's baseline: plain symbolic model checking with COI
    reduction (the registry's ``bdd`` engine) 'failed to verify any of
    the above five properties'.  The processor rows reproduce that
    failure within the resource budget."""

    def run():
        return registry.get("bdd").run(
            workload.circuit,
            workload.prop,
            Limits(max_bdd_nodes=60_000, budget=Budget(max_seconds=30)),
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.verdict is Verdict.UNKNOWN
    _BASELINE[workload.name] = (result.verdict.value, result.detail)


@pytest.fixture(scope="module", autouse=True)
def report():
    yield
    rows = [_ROWS[w.name] for w in WORKLOADS if w.name in _ROWS]
    if not rows:
        return
    emit_table(
        "table1",
        "Table 1. Property Verification Results (RFN)",
        ["Property", "Regs in COI", "Gates in COI", "Time (s)", "Result",
         "Regs in abstract model"],
        [
            (
                row["property"],
                row["coi_registers"],
                row["coi_gates"],
                f"{row['seconds']:.2f}",
                "T" if row["verdict"] == Verdict.VERIFIED.value else "F",
                row["abstract_registers"],
            )
            for row in rows
        ],
    )
    emit_json(
        "table1",
        {
            "benchmark": "table1",
            "paper_scale": paper_scale_enabled(),
            "rows": rows,
        },
    )
    if _BASELINE:
        emit_table(
            "table1_baseline",
            "Table 1 baseline: plain symbolic model checking + COI "
            "(bdd engine, 60k nodes, 30 s)",
            ["Property", "Verdict", "Detail"],
            [(name, *row) for name, row in sorted(_BASELINE.items())],
        )
