"""Integration tests: the full Table-1 / Table-2 pipelines at CI scale.

These are the shape claims of the paper's evaluation, checked end to end:

- RFN verifies/falsifies every Table-1 property, with abstract models a
  tiny fraction of the COI;
- the falsified ``error_flag`` yields a concrete, replayable error trace;
- the plain COI model checker (the ``bdd`` engine) resources out on the
  processor properties;
- RFN matches or beats the BFS method on every Table-2 coverage row.
"""

import pytest

from repro.core import RFN, RfnConfig
from repro.engine import Limits, Verdict, registry
from repro.core.coverage import (
    CoverageAnalyzer,
    CoverageConfig,
    bfs_coverage_analysis,
)
from repro.designs import table1_workloads, table2_workloads
from repro.netlist.ops import coi_stats
from repro.runtime import Budget
from repro.sim import Simulator


@pytest.fixture(scope="module")
def table1():
    return table1_workloads(paper_scale=False)


@pytest.fixture(scope="module")
def rfn_results(table1):
    results = {}
    for workload in table1:
        config = RfnConfig(budget=Budget(max_seconds=300))
        results[workload.name] = RFN(
            workload.circuit, workload.prop, config
        ).run()
    return results


class TestTable1Shape:
    def test_all_properties_resolved(self, table1, rfn_results):
        for workload in table1:
            result = rfn_results[workload.name]
            expected = (
                Verdict.VERIFIED if workload.expected else Verdict.FALSIFIED
            )
            assert result.status is expected, workload.name

    def test_abstract_models_much_smaller_than_coi(self, table1, rfn_results):
        for workload in table1:
            result = rfn_results[workload.name]
            coi_regs, _ = coi_stats(workload.circuit, workload.prop.signals())
            assert result.abstract_model_registers < coi_regs / 3, (
                workload.name,
                result.abstract_model_registers,
                coi_regs,
            )

    def test_error_flag_trace_replays(self, table1, rfn_results):
        workload = next(w for w in table1 if w.name == "error_flag")
        result = rfn_results["error_flag"]
        trace = result.trace
        sim = Simulator(workload.circuit)
        frames = sim.run(trace.inputs, state=trace.states[0])
        wd = workload.prop.signals()[0]
        assert any(frame[wd] == 1 for frame in frames)

    def test_error_flag_trace_depth(self, rfn_results):
        # bug_depth=8: watchdog latches at cycle 9, trace has 10 cycles.
        assert rfn_results["error_flag"].trace.length == 10

    def test_plain_checker_fails_on_processor(self, table1):
        workload = next(w for w in table1 if w.name == "mutex")
        result = registry.get("bdd").run(
            workload.circuit,
            workload.prop,
            Limits(max_bdd_nodes=60_000, budget=Budget(max_seconds=20)),
        )
        assert result.verdict is Verdict.UNKNOWN


class TestTable2Shape:
    @pytest.fixture(scope="class")
    def rows(self):
        rows = []
        for workload in table2_workloads(paper_scale=False):
            rfn = CoverageAnalyzer(
                workload.circuit,
                workload.signals,
                CoverageConfig(max_seconds=30, max_iterations=8),
            ).run()
            bfs = bfs_coverage_analysis(workload.circuit, workload.signals, k=10)
            rows.append((workload, rfn, bfs))
        return rows

    def test_rfn_beats_or_matches_bfs(self, rows):
        for workload, rfn, bfs in rows:
            assert rfn.num_unreachable >= bfs.num_unreachable, workload.name

    def test_rfn_finds_unreachable_states(self, rows):
        assert any(rfn.num_unreachable > 0 for _, rfn, _ in rows)

    def test_usb2_symbolic_scale(self, rows):
        workload, rfn, _ = next(r for r in rows if r[0].name == "USB2")
        total = 1 << 21
        assert 0 < rfn.num_unreachable < total

    def test_unreachable_states_are_truly_unreachable(self, rows):
        """Spot-check soundness: random simulation never visits a state
        RFN declared unreachable."""
        from repro.sim import RandomSimulator

        for workload, rfn, _ in rows:
            if len(workload.signals) > 12:
                continue  # skip the huge set for enumeration
            unreachable = rfn.unreachable_states()
            rs = RandomSimulator(workload.circuit, seed=1)
            visited = rs.sample_reachable_projections(
                workload.signals, runs=5, cycles=100
            )
            assert not (visited & unreachable), workload.name
