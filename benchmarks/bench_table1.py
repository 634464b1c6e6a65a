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
from repro.designs import table1_workloads
from repro.engine import Verdict
from repro.mc import CheckOutcome, model_check_coi
from repro.mc.reach import ReachLimits
from repro.netlist.ops import coi_stats
from repro.runtime import Budget
from reporting import emit_table

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
    _ROWS[workload.name] = (
        workload.name,
        coi_regs,
        coi_gates,
        f"{result.seconds:.2f}",
        "T" if result.verified else "F",
        result.abstract_model_registers,
    )


@pytest.mark.parametrize(
    "workload",
    [w for w in WORKLOADS if w.name in ("mutex", "error_flag")],
    ids=lambda w: w.name,
)
def test_table1_plain_smc_baseline(benchmark, workload):
    """The paper's baseline: plain symbolic model checking with COI
    reduction 'failed to verify any of the above five properties'.  The
    processor rows reproduce that failure within the resource budget."""

    def run():
        return model_check_coi(
            workload.circuit,
            workload.prop,
            limits=ReachLimits(
                max_nodes=60_000, budget=Budget(max_seconds=30)
            ),
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.outcome is CheckOutcome.RESOURCE_OUT
    _BASELINE[workload.name] = result.outcome.value


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
        rows,
    )
    if _BASELINE:
        emit_table(
            "table1_baseline",
            "Table 1 baseline: plain symbolic model checking + COI",
            ["Property", "Outcome"],
            [(name, outcome) for name, outcome in sorted(_BASELINE.items())],
        )
