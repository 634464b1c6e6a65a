"""Unit tests for the unified runtime budget and its engine wiring.

Covers the :class:`repro.runtime.Budget` accounting itself, the abort
taxonomy, and the cooperative ``checkpoint()`` polling threaded into the
SAT solver, the BDD manager, reachability, ATPG and the bit-parallel
kernel -- ending with the full ``rfn_verify`` RESOURCE_OUT contract.
"""

import time

import pytest

from repro.atpg.engine import AtpgBudget, AtpgOutcome, sequential_atpg
from repro.bdd.manager import BDDError, BDDNodeLimit
from repro.core import RfnConfig, rfn_verify
from repro.engine import Limits, Verdict, registry
from repro.kernel.bitsim import BitParallelSimulator, pack_bits
from repro.mc.encode import SymbolicEncoding
from repro.mc.images import ImageComputer
from repro.mc.reach import ReachLimits, ReachOutcome, forward_reach
from repro.runtime import (
    ABORT_BY_RESOURCE,
    Budget,
    ConflictsOut,
    DecisionsOut,
    EngineAbort,
    MemoryOut,
    NodesOut,
    Timeout,
)
from repro.sat.cnf import CNF
from repro.sat.solver import SatStatus, Solver

from tests.conftest import buggy_counter, toggle_design


def pigeonhole(pigeons: int, holes: int) -> CNF:
    """PHP(n, n-1): unsatisfiable and needs real search (~700 conflicts
    at n=7), so budget trips are exercised mid-solve."""
    cnf = CNF()
    var = {}
    for p in range(pigeons):
        for h in range(holes):
            var[p, h] = cnf.new_var()
    for p in range(pigeons):
        cnf.add_clause([var[p, h] for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                cnf.add_clause([-var[p1, h], -var[p2, h]])
    return cnf


class TestBudgetAccounting:
    def test_no_limits_never_expires(self):
        budget = Budget()
        assert budget.deadline is None
        assert budget.remaining_seconds() is None
        assert not budget.expired()
        budget.checkpoint()  # no-op

    def test_deadline_is_absolute_monotonic(self):
        budget = Budget(max_seconds=100.0)
        assert budget.deadline == pytest.approx(
            time.monotonic() + 100.0, abs=1.0
        )

    def test_zero_seconds_expires_immediately(self):
        budget = Budget(max_seconds=0.0)
        assert budget.expired()
        with pytest.raises(Timeout):
            budget.checkpoint(engine="test")

    def test_memory_watermark(self):
        # Any live Python process is over a 0.001 MiB watermark.
        budget = Budget(max_memory_mb=0.001)
        with pytest.raises(MemoryOut):
            budget.checkpoint()

    def test_charge_raises_conflicts_out(self):
        budget = Budget(max_conflicts=10)
        budget.charge(conflicts=5)
        with pytest.raises(ConflictsOut):
            budget.charge(conflicts=5)
        assert budget.conflicts == 10

    def test_charge_raises_decisions_out(self):
        budget = Budget(max_decisions=3)
        with pytest.raises(DecisionsOut):
            budget.charge(decisions=3)

    def test_charge_enforce_false_records_only(self):
        budget = Budget(max_conflicts=1)
        budget.charge(conflicts=100, enforce=False)
        assert budget.conflicts == 100

    def test_note_nodes(self):
        budget = Budget(max_bdd_nodes=1000)
        budget.note_nodes(1000)
        with pytest.raises(NodesOut):
            budget.note_nodes(1001)

    def test_hook_tags_engine(self):
        budget = Budget(max_seconds=0.0)
        hook = budget.hook("bdd")
        with pytest.raises(Timeout) as excinfo:
            hook()
        assert excinfo.value.engine == "bdd"

    def test_sub_budget_charges_parent(self):
        parent = Budget(max_conflicts=100, name="run")
        child = parent.sub("step", conflicts=50)
        child.charge(conflicts=30)
        assert parent.conflicts == 30
        assert child.remaining_conflicts() == 20

    def test_sub_deadline_never_exceeds_parent(self):
        parent = Budget(max_seconds=1.0)
        child = parent.sub("step", seconds=1000.0)
        assert child.deadline <= parent.deadline + 1e-6

    def test_spent_includes_prior_runs(self):
        budget = Budget(prior={"seconds": 2.0, "conflicts": 7})
        budget.charge(conflicts=3, enforce=False)
        spent = budget.spent()
        assert spent["conflicts"] == 10
        assert spent["seconds"] >= 2.0

    def test_json_roundtrip(self):
        budget = Budget(max_seconds=5.0, max_conflicts=100, name="run")
        budget.charge(conflicts=4, decisions=9, enforce=False)
        clone = Budget.from_json(budget.to_json())
        assert clone.name == "run"
        assert clone.max_conflicts == 100
        assert clone.spent()["conflicts"] == 4
        assert clone.spent()["decisions"] == 9


class TestAbortTaxonomy:
    def test_bdd_node_limit_is_both(self):
        error = BDDNodeLimit("blown")
        assert isinstance(error, BDDError)
        assert isinstance(error, NodesOut)
        assert isinstance(error, EngineAbort)
        assert error.resource == "nodes"

    def test_abort_by_resource_map(self):
        assert ABORT_BY_RESOURCE["time"] is Timeout
        assert ABORT_BY_RESOURCE["conflicts"] is ConflictsOut
        assert ABORT_BY_RESOURCE["nodes"] is NodesOut
        assert ABORT_BY_RESOURCE["memory"] is MemoryOut

    def test_describe_names_engine_and_resource(self):
        error = Timeout("deadline passed", engine="reach")
        assert "reach" in error.describe()
        assert "time" in error.describe()


class TestSolverBudget:
    def test_runtime_conflicts_raise(self):
        budget = Budget(max_conflicts=200)
        solver = Solver(pigeonhole(7, 6))
        with pytest.raises(ConflictsOut):
            solver.solve(budget=budget)
        assert budget.conflicts >= 200

    def test_runtime_timeout_raises(self):
        solver = Solver(pigeonhole(7, 6))
        with pytest.raises(Timeout):
            solver.solve(budget=Budget(max_seconds=0.0))

    def test_definite_answer_charges_without_raising(self):
        # PHP(6,5) solves in ~150 conflicts: a definite answer must be
        # returned and charged even though the counter crossed no limit.
        budget = Budget()
        result = Solver(pigeonhole(6, 5)).solve(budget=budget)
        assert result.status is SatStatus.UNSAT
        assert budget.conflicts > 0

    def test_solver_reusable_after_abort(self):
        budget = Budget(max_conflicts=50)
        solver = Solver(pigeonhole(7, 6))
        with pytest.raises(ConflictsOut):
            solver.solve(budget=budget)
        # The abort unwound the trail; a fresh unbudgeted call finishes.
        result = solver.solve()
        assert result.status is SatStatus.UNSAT


class TestReachBudget:
    def _setup(self):
        circuit, prop = toggle_design()
        encoding = SymbolicEncoding(circuit)
        images = ImageComputer(encoding)
        target = encoding.state_cube(dict(prop.target))
        return encoding, images, target

    def test_time_budget_names_resource(self):
        encoding, images, target = self._setup()
        result = forward_reach(
            images,
            encoding.initial_states(),
            target=target,
            limits=ReachLimits(budget=Budget(max_seconds=0.0)),
        )
        assert result.outcome is ReachOutcome.RESOURCE_OUT
        assert result.abort_resource == "time"

    def test_node_budget_names_resource(self):
        encoding, images, target = self._setup()
        result = forward_reach(
            images,
            encoding.initial_states(),
            target=target,
            limits=ReachLimits(budget=Budget(max_bdd_nodes=1)),
        )
        assert result.outcome is ReachOutcome.RESOURCE_OUT
        assert result.abort_resource == "nodes"

    def test_hook_restored_after_run(self):
        encoding, images, target = self._setup()
        forward_reach(
            images,
            encoding.initial_states(),
            target=target,
            limits=ReachLimits(budget=Budget(max_seconds=30.0)),
        )
        assert encoding.bdd.checkpoint_hook is None


class TestAtpgBudget:
    def test_solve_kwargs_deadline_from_max_seconds(self):
        # The wall clock reaches the solver only as the runtime budget,
        # whose deadline derives from its max_seconds.
        kwargs = AtpgBudget(runtime=Budget(max_seconds=5.0)).solve_kwargs()
        assert "deadline" not in kwargs
        assert kwargs["budget"].deadline == pytest.approx(
            time.monotonic() + 5.0, abs=1.0
        )

    def test_max_seconds_zero_gives_unknown(self):
        # At the engine boundary a zero time limit is an UNKNOWN verdict
        # naming the exhausted resource, whichever way it is spelled.
        circuit, prop = buggy_counter()
        for limits in (
            Limits(max_seconds=0.0),
            Limits(budget=Budget(max_seconds=0.0)),
        ):
            result = registry.get("atpg").run(circuit, prop, limits)
            assert result.verdict is Verdict.UNKNOWN
            assert result.abort is not None
            assert result.abort.resource == "time"

    def test_runtime_budget_raises_through_solve_kwargs(self):
        kwargs = AtpgBudget(
            runtime=Budget(max_seconds=0.0)
        ).solve_kwargs()
        with pytest.raises(Timeout):
            Solver(pigeonhole(7, 6)).solve(**kwargs)

    def test_atpg_normal_operation_unaffected(self):
        # With limits attached but not exhausted, sequential ATPG still
        # produces its definite answer (wd latches one cycle after the
        # counter hits the bad value, i.e. at cycle 10).
        circuit, prop = buggy_counter()
        result = sequential_atpg(
            circuit,
            11,
            {10: dict(prop.target)},
            budget=AtpgBudget(runtime=Budget(max_seconds=30.0)),
            skip_missing=True,
        )
        assert result.outcome is AtpgOutcome.TRACE_FOUND


class TestKernelCheckpoint:
    def test_checkpoint_called_during_evaluate(self):
        circuit, _ = toggle_design()
        sim = BitParallelSimulator(circuit)
        calls = []
        sim.checkpoint = lambda: calls.append(1)
        state = sim.initial_state(1, default=0)
        inputs = {name: pack_bits(0, 1) for name in circuit.inputs}
        sim.step(state, inputs, 1)
        assert calls

    def test_expired_budget_aborts_evaluate(self):
        circuit, _ = toggle_design()
        sim = BitParallelSimulator(circuit)
        sim.checkpoint = Budget(max_seconds=0.0).hook("kernel")
        state = sim.initial_state(1, default=0)
        inputs = {name: pack_bits(0, 1) for name in circuit.inputs}
        with pytest.raises(Timeout):
            sim.step(state, inputs, 1)


class TestRfnBudget:
    def test_zero_budget_is_structured_resource_out(self):
        circuit, prop = toggle_design()
        config = RfnConfig(budget=Budget(max_seconds=0.0))
        result = rfn_verify(circuit, prop, config)
        assert result.status is Verdict.UNKNOWN
        assert result.failure is not None
        assert result.failure.resource == "time"

    def test_conflict_budget_is_structured_resource_out(self):
        circuit, prop = buggy_counter()
        config = RfnConfig(
            budget=Budget(max_conflicts=1), max_retries=0
        )
        result = rfn_verify(circuit, prop, config)
        assert result.status in (
            Verdict.UNKNOWN,
            Verdict.FALSIFIED,
        )
        if result.status is Verdict.UNKNOWN:
            assert result.failure is not None
            assert result.failure.resource in (
                "conflicts", "time", "depth", "cubes"
            )

    def test_generous_budget_does_not_change_verdict(self):
        circuit, prop = buggy_counter()
        config = RfnConfig(budget=Budget(max_seconds=60.0))
        result = rfn_verify(circuit, prop, config)
        assert result.status is Verdict.FALSIFIED
        assert result.trace is not None
