"""Tests for the CDCL solver: correctness against brute force, classic
UNSAT families, assumptions, incrementality and budgets."""

import itertools
import random

import pytest

from repro.sat import CNF, SatStatus, Solver


def brute_force_sat(clauses, nvars):
    for bits in itertools.product((False, True), repeat=nvars):
        env = {i + 1: bits[i] for i in range(nvars)}
        if all(
            any((lit > 0) == env[abs(lit)] for lit in clause)
            for clause in clauses
        ):
            return True
    return False


def check_model(clauses, model):
    return all(
        any((lit > 0) == model[abs(lit)] for lit in clause)
        for clause in clauses
    )


class TestBasics:
    def test_empty_formula_sat(self):
        assert Solver().solve().is_sat

    def test_single_unit(self):
        solver = Solver()
        solver.add_clause([1])
        result = solver.solve()
        assert result.is_sat
        assert result.model[1] is True

    def test_contradictory_units(self):
        solver = Solver()
        solver.add_clause([1])
        assert not solver.add_clause([-1])
        assert solver.solve().is_unsat

    def test_empty_clause_unsat(self):
        solver = Solver()
        solver.new_var()
        assert not solver.add_clause([])
        assert solver.solve().is_unsat

    def test_simple_implication_chain(self):
        solver = Solver()
        for i in range(1, 20):
            solver.add_clause([-i, i + 1])
        solver.add_clause([1])
        result = solver.solve()
        assert result.is_sat
        assert all(result.model[i] for i in range(1, 21))

    def test_model_satisfies_formula(self):
        clauses = [[1, 2], [-1, 3], [-2, -3], [2, 3]]
        solver = Solver()
        for clause in clauses:
            solver.add_clause(clause)
        result = solver.solve()
        assert result.is_sat
        assert check_model(clauses, result.model)

    def test_from_cnf(self):
        cnf = CNF()
        a, b = cnf.new_var(), cnf.new_var()
        cnf.add_clause([a, b])
        cnf.add_clause([-a])
        result = Solver(cnf).solve()
        assert result.is_sat
        assert result.model[b] is True

    def test_add_clause_above_level0_rejected(self):
        solver = Solver()
        solver.add_clause([1, 2])
        solver._trail_lim.append(0)
        with pytest.raises(RuntimeError):
            solver.add_clause([2])
        solver._trail_lim.pop()


class TestUnsatFamilies:
    def test_pigeonhole_3_in_2(self):
        solver = Solver()
        # p[i][j]: pigeon i in hole j.
        p = [[solver.new_var() for _ in range(2)] for _ in range(3)]
        for i in range(3):
            solver.add_clause([p[i][0], p[i][1]])
        for j in range(2):
            for i1 in range(3):
                for i2 in range(i1 + 1, 3):
                    solver.add_clause([-p[i1][j], -p[i2][j]])
        assert solver.solve().is_unsat

    def test_pigeonhole_5_in_4(self):
        solver = Solver()
        n = 5
        p = [[solver.new_var() for _ in range(n - 1)] for _ in range(n)]
        for i in range(n):
            solver.add_clause(p[i])
        for j in range(n - 1):
            for i1 in range(n):
                for i2 in range(i1 + 1, n):
                    solver.add_clause([-p[i1][j], -p[i2][j]])
        assert solver.solve().is_unsat

    def test_xor_chain_unsat(self):
        """x1 ^ x2, x2 ^ x3, ..., with an odd contradiction closing it."""
        solver = Solver()
        n = 8
        for i in range(1, n):
            a, b = i, i + 1
            solver.add_clause([a, b])
            solver.add_clause([-a, -b])
        # Force x1 == xn; with odd chain parity this is a contradiction
        # when n-1 is odd, so n must be even for UNSAT.
        solver.add_clause([1, -n])
        solver.add_clause([-1, n])
        assert solver.solve().is_unsat


class TestRandomized:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_3sat_matches_brute_force(self, seed):
        rng = random.Random(seed)
        nvars = 8
        nclauses = rng.randint(20, 38)
        clauses = []
        for _ in range(nclauses):
            vars_ = rng.sample(range(1, nvars + 1), 3)
            clauses.append([v if rng.random() < 0.5 else -v for v in vars_])
        solver = Solver()
        for clause in clauses:
            if not solver.add_clause(clause):
                break
        result = solver.solve()
        expected = brute_force_sat(clauses, nvars)
        if expected:
            assert result.is_sat
            assert check_model(clauses, result.model)
        else:
            assert result.is_unsat

    @pytest.mark.parametrize("seed", range(6))
    def test_random_wide_clauses(self, seed):
        rng = random.Random(100 + seed)
        nvars = 10
        clauses = []
        for _ in range(40):
            width = rng.randint(1, 5)
            vars_ = rng.sample(range(1, nvars + 1), width)
            clauses.append([v if rng.random() < 0.5 else -v for v in vars_])
        solver = Solver()
        ok = True
        for clause in clauses:
            if not solver.add_clause(clause):
                ok = False
                break
        result = solver.solve()
        expected = brute_force_sat(clauses, nvars)
        assert result.is_sat == expected
        if result.is_sat:
            assert check_model(clauses, result.model)


class TestAssumptions:
    def make_solver(self):
        solver = Solver()
        # (a | b) & (!a | c)
        solver.add_clause([1, 2])
        solver.add_clause([-1, 3])
        return solver

    def test_assumption_forces_value(self):
        solver = self.make_solver()
        result = solver.solve(assumptions=[1])
        assert result.is_sat
        assert result.model[1] and result.model[3]

    def test_conflicting_assumptions_unsat(self):
        solver = self.make_solver()
        assert solver.solve(assumptions=[1, -3]).is_unsat

    def test_solver_reusable_after_assumption_unsat(self):
        solver = self.make_solver()
        assert solver.solve(assumptions=[1, -3]).is_unsat
        assert solver.solve(assumptions=[1, 3]).is_sat
        assert solver.solve().is_sat

    def test_assumptions_do_not_persist(self):
        solver = self.make_solver()
        assert solver.solve(assumptions=[-1]).is_sat
        result = solver.solve(assumptions=[1])
        assert result.is_sat
        assert result.model[1] is True

    def test_directly_contradictory_assumptions(self):
        solver = self.make_solver()
        assert solver.solve(assumptions=[2, -2]).is_unsat


class TestIncremental:
    def test_add_clauses_between_solves(self):
        solver = Solver()
        solver.add_clause([1, 2])
        assert solver.solve().is_sat
        solver.add_clause([-1])
        result = solver.solve()
        assert result.is_sat
        assert result.model[2] is True
        solver.add_clause([-2])
        assert solver.solve().is_unsat

    def test_unsat_is_sticky(self):
        solver = Solver()
        solver.add_clause([1])
        solver.add_clause([-1])
        assert solver.solve().is_unsat
        assert solver.solve().is_unsat


class TestBudgets:
    def _hard_instance(self):
        """Pigeonhole 7-into-6: exponentially hard for resolution."""
        solver = Solver()
        n = 7
        p = [[solver.new_var() for _ in range(n - 1)] for _ in range(n)]
        for i in range(n):
            solver.add_clause(p[i])
        for j in range(n - 1):
            for i1 in range(n):
                for i2 in range(i1 + 1, n):
                    solver.add_clause([-p[i1][j], -p[i2][j]])
        return solver

    def test_conflict_budget_returns_unknown(self):
        solver = self._hard_instance()
        result = solver.solve(max_conflicts=20)
        assert result.status is SatStatus.UNKNOWN
        assert result.conflicts >= 20

    def test_unknown_then_full_solve(self):
        solver = self._hard_instance()
        assert solver.solve(max_conflicts=5).is_unknown
        assert solver.solve().is_unsat

    def test_decision_budget(self):
        solver = self._hard_instance()
        result = solver.solve(max_decisions=3)
        assert result.status in (SatStatus.UNKNOWN, SatStatus.UNSAT)


class TestStats:
    def test_stats_counters_move(self):
        solver = Solver()
        for i in range(1, 6):
            solver.add_clause([-i, i + 1])
        solver.add_clause([1, 6])
        result = solver.solve()
        assert result.is_sat
        stats = solver.stats()
        assert stats["vars"] == 6
        assert stats["propagations"] >= 0


class TestClauseStorage:
    def test_detach_removes_by_identity(self):
        # Equal literal lists compare equal; only the detached object
        # may leave the watch lists.
        solver = Solver()
        solver.add_clause([1, 2, 3])
        solver.add_clause([1, 2, 3])
        first, second = solver._clauses
        solver._detach(second)
        assert [id(c) for c in solver._watches[1]] == [id(first)]
        assert [id(c) for c in solver._watches[2]] == [id(first)]

    @pytest.mark.parametrize("name", ["plain-150-8", "group-80-5"])
    def test_activity_table_holds_exactly_the_learned_clauses(self, name):
        # A reduction (plain-150-8) and a pop (group-80-5) drop learned
        # clauses; their activity entries must go with them.
        from tests.test_sat_search_pins import run_case

        _, solver = run_case(name)
        assert solver._learned
        assert set(solver._cla_activity) == {id(c) for c in solver._learned}
