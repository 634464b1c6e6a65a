"""Bulk ``Solver.absorb`` leaves the state per-clause loading leaves.

``absorb`` loads an attached CNF in one inlined pass instead of calling
``add_clause`` per clause.  These tests grow two identical CNFs side by
side, load one through ``absorb`` and the other through one
``add_clause`` per clause, and compare everything the search reads:
clause literals in order, watch-list order, trail, values, decision
heap, propagation head, the UNSAT flag, and the answers of identical
follow-up solves.  Both loads run in one process: solver statistics
depend on string-hash randomization, so they are only comparable
within one interpreter run.
"""

import pytest

from repro.atpg.encode import Unroller
from repro.designs import table1_workloads
from repro.kernel.scache import coi_model
from repro.sat.cnf import CNF
from repro.sat.solver import Solver
from tests.conftest import buggy_counter, saturating_counter, toggle_design


def per_clause_absorb(solver):
    """The reference loader: one ``add_clause`` per pending clause."""
    cnf = solver._attached
    start = solver._absorbed
    solver._absorbed = len(cnf.clauses)
    while solver._nvars < cnf.num_vars:
        solver.new_var()
    for clause in cnf.clauses_since(start):
        if solver._unsat:
            break
        solver.add_clause(clause)
    return solver._absorbed - start


def state(solver):
    clauses = solver._clauses + solver._learned
    index = {id(c): i for i, c in enumerate(clauses)}
    return {
        "clauses": [list(c.lits) for c in clauses],
        "learned": len(solver._learned),
        "watches": {
            lit: [index[id(c)] for c in watchers]
            for lit, watchers in solver._watches.items()
            if watchers
        },
        "trail": list(solver._trail),
        "values": list(solver._value),
        "levels": list(solver._level),
        "order": list(solver._order),
        "qhead": solver._qhead,
        "unsat": solver._unsat,
        "nvars": solver._nvars,
        "groups": list(solver._groups),
        "propagations": solver.propagations,
    }


class Twins:
    """Two solvers attached to two identically grown CNFs: ``bulk``
    loads through ``absorb``, ``reference`` clause by clause."""

    def __init__(self, first, second):
        self.bulk, self.reference = Solver(), Solver()
        self.bulk.attach(first)
        self.reference.attach(second)

    def sync(self):
        assert self.bulk.absorb() == per_clause_absorb(self.reference)
        assert state(self.bulk) == state(self.reference)

    def solve_both(self, *queries):
        for assumptions in queries:
            a = self.bulk.solve(assumptions)
            b = self.reference.solve(assumptions)
            assert (a.status, a.model, a.conflicts, a.decisions,
                    a.propagations) == (b.status, b.model, b.conflicts,
                                        b.decisions, b.propagations)
            assert state(self.bulk) == state(self.reference)


def table1_coi(name):
    rows = {w.name: w for w in table1_workloads(paper_scale=False)}
    return coi_model(rows[name].circuit, rows[name].prop.signals())


DESIGNS = {
    "toggle": lambda: toggle_design()[0],
    "counter": lambda: buggy_counter()[0],
    "saturating": lambda: saturating_counter()[0],
    "fifo_coi": lambda: table1_coi("psh_full"),
}


@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_unroller_grown_to_depth_eight(design):
    """Frame by frame, with the initial-value units already propagated
    at level 0 when the later frames arrive."""
    circuit = DESIGNS[design]()
    unrollers = [Unroller(circuit, 1), Unroller(circuit, 1)]
    twins = Twins(unrollers[0].cnf, unrollers[1].cnf)
    twins.sync()
    registers = sorted(circuit.registers)
    for depth in range(2, 9):
        for unroller in unrollers:
            unroller.extend_to(depth)
        twins.sync()
        lit = unrollers[0].lit(registers[depth % len(registers)], depth - 1)
        twins.solve_both([], [lit], [-lit])


@pytest.mark.parametrize("depth", (1, 4, 8))
def test_fresh_unrolling_with_initial_units(depth):
    circuit = table1_coi("error_flag")
    twins = Twins(Unroller(circuit, depth).cnf, Unroller(circuit, depth).cnf)
    twins.sync()
    assert twins.bulk._trail  # the initial-value units propagated
    twins.solve_both([])


def twin_cnfs(num_vars):
    cnfs = (CNF(), CNF())
    for cnf in cnfs:
        for _ in range(num_vars):
            cnf.new_var()
    return cnfs


def add_to_both(cnfs, clauses):
    for cnf in cnfs:
        for clause in clauses:
            cnf.add_clause(clause)


def test_level_zero_true_and_false_literals():
    cnfs = twin_cnfs(6)
    twins = Twins(*cnfs)
    add_to_both(cnfs, [
        [1],
        [-1, 2, 3],  # -1 false at level 0: dropped
        [1, 4],  # satisfied at level 0: skipped
        [-1, -2],  # a unit once -1 is dropped: propagates
        [2, 5, 6],  # 2 false: dropped
        [4, 5, 6],
        [-3, -4],
    ])
    twins.sync()
    assert twins.bulk._trail == [1, -2, 3, -4]
    twins.solve_both([], [5], [-5, -6])


def test_unit_conflict_stops_the_load():
    cnfs = twin_cnfs(4)
    twins = Twins(*cnfs)
    add_to_both(cnfs, [
        [1, 2],
        [-1],
        [-2, 3],
        [-3],  # conflicts with the propagated 3
        [3, 4],  # never loaded
    ])
    twins.sync()
    assert twins.bulk._unsat
    assert twins.bulk.num_clauses == 1
    add_to_both(cnfs, [[1, 4]])
    twins.sync()
    twins.solve_both([], [4])


def test_clauses_absorbed_inside_an_open_group():
    circuit = buggy_counter()[0]
    unrollers = [Unroller(circuit, 2), Unroller(circuit, 2)]
    twins = Twins(unrollers[0].cnf, unrollers[1].cnf)
    twins.sync()
    assert twins.bulk.push() == twins.reference.push()
    for unroller in unrollers:
        unroller.extend_to(4)
    twins.sync()
    lit = unrollers[0].lit(sorted(circuit.registers)[0], 3)
    twins.solve_both([], [lit], [-lit])
    twins.bulk.pop()
    twins.reference.pop()
    assert state(twins.bulk) == state(twins.reference)
    twins.solve_both([], [lit])
