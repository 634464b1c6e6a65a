"""Incremental SAT core: push/pop groups, session pooling, and the
pooled-vs-reference BMC equivalence suite.

The equivalence suite is the soundness gate for the single-instance
formulation: over a set of fuzz-generated (circuit, property) instances,
the incremental BMC loop (one pooled solver, ``bad@k`` via assumptions,
frame-append unrolling) must return the *identical* verdict -- and, for
FALSE verdicts, the identical lexicographically-canonical counterexample
trace -- as :func:`reference_bmc`, a small monolithic BMC defined here
that re-encodes the unrolling on a fresh solver at every depth.  Both
verdict polarities must occur across the seed set, so a bug that biases
one side toward TRUE or FALSE cannot hide.  The portfolio's canonical
witnesses run on the pooled session, so they are pinned the same way,
cold and after the pool was warmed by deeper queries.
"""

from __future__ import annotations

import pytest

from repro.atpg.encode import SolverSession, Unroller
from repro.atpg.engine import sequential_atpg
from repro.fuzz.gen import GenConfig, generate_instance
from repro.kernel.perf import PERF
from repro.kernel.scache import clear_caches, coi_model, solver_session
from repro.mc.bmc import BmcOutcome, bmc
from repro.parallel.portfolio import canonical_witness
from repro.runtime.abort import ConflictsOut
from repro.runtime.budget import Budget
from repro.sat.cnf import CNF
from repro.sat.solver import SatStatus, Solver
from repro.trace import Trace

from tests.conftest import saturating_counter


# ---------------------------------------------------------------------
# push/pop activation groups
# ---------------------------------------------------------------------


def test_push_pop_retracts_group_clauses():
    solver = Solver()
    a = solver.new_var()
    b = solver.new_var()
    solver.add_clause([a, b])
    solver.push()
    solver.add_clause([-a])
    solver.add_clause([-b])
    assert solver.solve().status is SatStatus.UNSAT
    solver.pop()
    # The contradictory group is gone; both orderings are models again.
    assert solver.solve(assumptions=[a]).status is SatStatus.SAT
    assert solver.solve(assumptions=[b]).status is SatStatus.SAT


def test_push_pop_nested_lifo():
    solver = Solver()
    a = solver.new_var()
    solver.push()
    solver.add_clause([a])
    solver.push()
    solver.add_clause([-a])
    assert solver.open_groups == 2
    assert solver.solve().status is SatStatus.UNSAT
    solver.pop()  # retract [-a]
    assert solver.solve().status is SatStatus.SAT
    assert solver.solve().model[a] is True
    solver.pop()  # retract [a]
    assert solver.open_groups == 0
    assert solver.solve(assumptions=[-a]).status is SatStatus.SAT


def test_pop_without_push_raises():
    solver = Solver()
    with pytest.raises(RuntimeError):
        solver.pop()


def test_group_clauses_do_not_pollute_after_pop():
    """A learned clause derived inside a group must not survive the pop
    in a form that constrains later queries."""
    solver = Solver()
    xs = [solver.new_var() for _ in range(6)]
    # Pigeonhole-flavored group: force some learning, then retract.
    solver.push()
    solver.add_clause([xs[0], xs[1]])
    solver.add_clause([xs[0], -xs[1]])
    solver.add_clause([-xs[0], xs[2]])
    solver.add_clause([-xs[2], xs[3]])
    solver.add_clause([-xs[3]])
    assert solver.solve().status is SatStatus.UNSAT
    solver.pop()
    for lit in (xs[0], -xs[0], xs[3], -xs[3]):
        assert solver.solve(assumptions=[lit]).status is SatStatus.SAT


def test_attach_absorb_watermark():
    cnf = CNF()
    a = cnf.new_var()
    cnf.add_clause([a])
    solver = Solver()
    solver.attach(cnf)
    assert solver.absorb() == 1
    b = cnf.new_var()
    cnf.add_clause([-a, b])
    # solve() auto-absorbs the suffix.
    result = solver.solve()
    assert result.status is SatStatus.SAT
    assert result.model[a] is True and result.model[b] is True
    assert solver.absorb() == 0  # nothing left to sync


def test_budget_abort_mid_solve_inside_group_recovers():
    """A runtime ConflictsOut raised mid-solve with an open group must
    leave the solver reusable: backtracked to level 0, group intact,
    and correct on the retry."""
    solver = Solver()
    pigeons, holes = 6, 5
    p = [[solver.new_var() for _ in range(holes)] for _ in range(pigeons)]
    solver.push()
    # Pigeonhole principle inside the group: UNSAT, and the proof needs
    # far more than one conflict.
    for i in range(pigeons):
        solver.add_clause(p[i])
    for j in range(holes):
        for i in range(pigeons):
            for k in range(i + 1, pigeons):
                solver.add_clause([-p[i][j], -p[k][j]])
    budget = Budget(max_conflicts=1)
    with pytest.raises(ConflictsOut):
        solver.solve(budget=budget)
    assert solver.open_groups == 1
    # Unbudgeted retry completes the refutation on the same instance...
    assert solver.solve().status is SatStatus.UNSAT
    solver.pop()
    assert solver.open_groups == 0
    # ...and after the pop the constraints are gone.
    assert solver.solve().status is SatStatus.SAT
    assert solver.solve(assumptions=[p[0][0], p[1][0]]).status is SatStatus.SAT


# ---------------------------------------------------------------------
# Session pooling
# ---------------------------------------------------------------------


def test_solver_session_pool_hit_and_extend():
    clear_caches()
    circuit, _ = saturating_counter()
    first = solver_session(circuit, cycles=2)
    assert isinstance(first, SolverSession)
    again = solver_session(circuit, cycles=5)
    assert again is first
    assert first.cycles == 5
    # Different signature -> different session.
    free = solver_session(circuit, cycles=2, use_initial_state=False)
    assert free is not first
    clear_caches()
    assert solver_session(circuit, cycles=2) is not first


def test_solver_session_perf_counters():
    clear_caches()
    PERF.reset()
    circuit, prop = saturating_counter()
    bmc(circuit, prop, max_depth=6, induction=False)
    counters = PERF.snapshot()["counters"]
    assert counters.get("unroll.frames_appended", 0) >= 5
    assert counters.get("sat.clauses_reused", 0) > 0
    hits_before = PERF.cache_hits.get("solver_pool", 0)
    bmc(circuit, prop, max_depth=6, induction=False)
    assert PERF.cache_hits.get("solver_pool", 0) > hits_before


# ---------------------------------------------------------------------
# Test-local reference: monolithic per-depth re-encode
# ---------------------------------------------------------------------


def _bad(unroller, prop, cycle):
    return [
        unroller.lit(name, cycle, value)
        for name, value in prop.target.items()
    ]


def _reference_trace(unroller, solver, circuit, depth, bad):
    """The canonical counterexample: pin every free variable (frame-0
    registers without an init, then each cycle's inputs, in declaration
    order) to 0 where some counterexample allows it, else to 1."""
    free = [
        unroller.lit(name, 0)
        for name, reg in circuit.registers.items()
        if reg.init is None
    ]
    free += [
        unroller.lit(name, cycle)
        for cycle in range(depth + 1)
        for name in circuit.inputs
    ]
    fixed = list(bad)
    for lit in free:
        sat = solver.solve(assumptions=fixed + [-lit]).status
        fixed.append(-lit if sat is SatStatus.SAT else lit)
    model = solver.solve(assumptions=fixed).model
    trace = Trace(circuit_name=circuit.name)
    for cycle in range(depth + 1):
        trace.append_cycle(
            unroller.decode_state(model, cycle),
            unroller.decode_inputs(model, cycle),
        )
    return trace


def _reference_induction(circuit, prop, depth, unique_states):
    """~bad@0..depth-1 & T^depth & bad@depth from a free start is UNSAT,
    optionally with every pair of states distinct."""
    unroller = Unroller(circuit, depth + 1, use_initial_state=False)
    cnf = unroller.cnf
    for cycle in range(depth):
        cnf.add_clause([-lit for lit in _bad(unroller, prop, cycle)])
    if unique_states:
        for j in range(depth + 1):
            for i in range(j):
                difference = []
                for reg in circuit.registers:
                    neq = cnf.new_var()
                    cnf.add_xor2(
                        neq,
                        abs(unroller.lit(reg, i)),
                        abs(unroller.lit(reg, j)),
                    )
                    difference.append(neq)
                cnf.add_clause(difference)
    result = Solver(cnf).solve(assumptions=_bad(unroller, prop, depth))
    return result.status is SatStatus.UNSAT


def reference_bmc(circuit, prop, max_depth, unique_states):
    """BMC with k-induction on a fresh ``Unroller`` + ``Solver`` per
    depth and per obligation.  Returns ``(outcome, depth,
    induction_depth, canonical trace)``."""
    model = coi_model(circuit, prop.signals())
    for depth in range(max_depth + 1):
        unroller = Unroller(model, depth + 1, use_initial_state=True)
        solver = Solver(unroller.cnf)
        bad = _bad(unroller, prop, depth)
        if solver.solve(assumptions=bad).status is SatStatus.SAT:
            trace = _reference_trace(unroller, solver, model, depth, bad)
            return BmcOutcome.FALSE, depth, None, trace
        if depth >= 1 and _reference_induction(
            model, prop, depth, unique_states
        ):
            return BmcOutcome.TRUE, depth, depth, None
    return BmcOutcome.UNKNOWN, max_depth, None, None


# ---------------------------------------------------------------------
# Pooled BMC vs the reference
# ---------------------------------------------------------------------

SEEDS = list(range(25))
#: a superset of SEEDS (so both polarities occur): few instances leave
#: a raw CDCL model history-dependent (about one falsified seed in
#: twelve), so the witness test sweeps more of them
WITNESS_SEEDS = list(range(100))
MAX_DEPTH = 10
_RESULTS_CACHE = {}


def _bmc_pair(seed: int):
    """Pooled ``bmc`` from a cold pool and the reference on one fuzz
    instance, both with canonical traces."""
    if seed in _RESULTS_CACHE:
        return _RESULTS_CACHE[seed]
    inst = generate_instance(seed, GenConfig())
    clear_caches()
    pooled = bmc(
        inst.circuit,
        inst.prop,
        max_depth=MAX_DEPTH,
        max_conflicts=None,
        induction=True,
        unique_states=True,
        canonical_trace=True,
    )
    reference = reference_bmc(
        inst.circuit, inst.prop, MAX_DEPTH, unique_states=True
    )
    _RESULTS_CACHE[seed] = (pooled, reference)
    return pooled, reference


@pytest.mark.parametrize("seed", SEEDS)
def test_incremental_matches_monolithic(seed):
    pooled, (outcome, depth, induction_depth, trace) = _bmc_pair(seed)
    assert pooled.outcome == outcome
    assert pooled.depth == depth
    assert pooled.induction_depth == induction_depth
    if pooled.outcome is BmcOutcome.FALSE:
        # Canonical (lexicographically minimized) traces are identical
        # regardless of solver history.
        assert pooled.trace == trace


def test_equivalence_covers_both_polarities():
    outcomes = {_bmc_pair(seed)[0].outcome for seed in SEEDS}
    assert BmcOutcome.FALSE in outcomes
    assert BmcOutcome.TRUE in outcomes


def test_pooled_induction_session_reuse_is_sound():
    """Re-running BMC on the same circuit reuses the pooled induction
    session whose permanent ~bad/uniqueness constraints are deeper than
    the early depths; verdicts must still match the reference."""
    circuit, prop = saturating_counter()
    clear_caches()
    warm1 = bmc(circuit, prop, max_depth=12, unique_states=True)
    warm2 = bmc(circuit, prop, max_depth=12, unique_states=True)
    outcome, depth, _, _ = reference_bmc(
        circuit, prop, 12, unique_states=True
    )
    assert warm1.outcome == outcome
    assert warm2.outcome == outcome
    assert warm1.depth == depth


# ---------------------------------------------------------------------
# Canonical witnesses on the pooled session
# ---------------------------------------------------------------------


def _warm_pool(circuit, prop, depth):
    """Grow the pooled bounded session past ``depth`` with a deeper BMC
    run (k-induction, simple paths) and a sequential ATPG query on the
    same COI model, leaving their learned clauses behind."""
    clear_caches()
    bmc(
        circuit,
        prop,
        max_depth=depth + 3,
        max_conflicts=None,
        induction=True,
        unique_states=True,
    )
    model = coi_model(circuit, prop.signals())
    sequential_atpg(model, depth + 4, {depth + 3: dict(prop.target)})
    return solver_session(model, 1, use_initial_state=True)


@pytest.mark.parametrize("seed", WITNESS_SEEDS)
def test_canonical_witness_ignores_pool_history(seed):
    inst = generate_instance(seed, GenConfig())
    circuit, prop = inst.circuit, inst.prop
    _, (outcome, depth, _, expected) = _bmc_pair(seed)
    # Only the witness's length matters: it bounds the recomputation.
    witness = Trace(
        states=[{} for _ in range(depth + 1)],
        inputs=[{} for _ in range(depth + 1)],
    )
    clear_caches()
    cold = canonical_witness(circuit, prop, witness)
    session = _warm_pool(circuit, prop, depth)
    assert session.cycles > witness.length
    hits = PERF.cache_hits.get("solver_pool", 0)
    warm = canonical_witness(circuit, prop, witness)
    assert PERF.cache_hits.get("solver_pool", 0) > hits
    if outcome is BmcOutcome.FALSE:
        assert cold == expected
        assert warm == expected
    else:
        # No counterexample within the witness's length: kept as is.
        assert cold is witness
        assert warm is witness
