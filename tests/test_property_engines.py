"""Property-based tests (hypothesis) for SAT, simulation, encodings and
netlist round-trips on randomly generated structures."""

import itertools
import random

from hypothesis import given, settings, strategies as st

from repro.atpg import Unroller
from repro.mincut import FlowNetwork
from repro.netlist import Circuit, circuit_from_text, circuit_to_text
from repro.netlist.cell import GateOp
from repro.sat import Solver
from repro.sim import Simulator, X


# ----------------------------------------------------------------------
# SAT vs brute force
# ----------------------------------------------------------------------

clauses_strategy = st.lists(
    st.lists(
        st.integers(min_value=1, max_value=6).flatmap(
            lambda v: st.sampled_from([v, -v])
        ),
        min_size=1,
        max_size=4,
    ),
    min_size=1,
    max_size=24,
)


def brute_force(clauses, nvars=6):
    for bits in itertools.product((False, True), repeat=nvars):
        env = {i + 1: bits[i] for i in range(nvars)}
        if all(
            any((lit > 0) == env[abs(lit)] for lit in clause)
            for clause in clauses
        ):
            return True
    return False


@settings(max_examples=60, deadline=None)
@given(clauses_strategy)
def test_solver_agrees_with_brute_force(clauses):
    solver = Solver()
    trivially_unsat = False
    for clause in clauses:
        if not solver.add_clause(clause):
            trivially_unsat = True
            break
    result = solver.solve()
    expected = brute_force(clauses)
    if trivially_unsat:
        assert not expected
        assert result.is_unsat
        return
    assert result.is_sat == expected
    if result.is_sat:
        for clause in clauses:
            assert any(
                (lit > 0) == result.model[abs(lit)] for lit in clause
            )


@settings(max_examples=25, deadline=None)
@given(clauses_strategy, st.lists(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda v: st.sampled_from([v, -v])
    ),
    max_size=3,
))
def test_solver_assumptions_equal_added_units(clauses, assumptions):
    base = Solver()
    ok = all(base.add_clause(c) for c in clauses)
    if not ok:
        return
    with_assumptions = base.solve(assumptions=assumptions)
    fresh = Solver()
    for clause in clauses:
        fresh.add_clause(clause)
    ok = all(fresh.add_clause([lit]) for lit in assumptions)
    as_units = fresh.solve() if ok else None
    if as_units is None:
        assert with_assumptions.is_unsat
    else:
        assert with_assumptions.is_sat == as_units.is_sat


# ----------------------------------------------------------------------
# Random circuits: simulator vs CNF encoding vs text round-trip
# ----------------------------------------------------------------------

def random_circuit(seed, num_inputs=4, num_gates=18, num_regs=3):
    rng = random.Random(seed)
    c = Circuit(f"rand{seed}")
    pool = [c.add_input(f"i{k}") for k in range(num_inputs)]
    reg_outs = []
    for r in range(num_regs):
        reg_outs.append(
            c.add_register(f"rd{r}", init=rng.choice([0, 1, None]),
                           output=f"q{r}")
        )
    pool.extend(reg_outs)
    ops = [GateOp.AND, GateOp.OR, GateOp.XOR, GateOp.NAND, GateOp.NOR,
           GateOp.XNOR, GateOp.NOT, GateOp.BUF, GateOp.MUX]
    for k in range(num_gates):
        op = rng.choice(ops)
        if op in (GateOp.NOT, GateOp.BUF):
            ins = [rng.choice(pool)]
        elif op is GateOp.MUX:
            ins = rng.sample(pool, 3)
        else:
            ins = rng.sample(pool, rng.randint(2, 3))
        pool.append(c.add_gate(op, ins))
    for r in range(num_regs):
        c.g_buf(rng.choice(pool), output=f"rd{r}")
    c.validate()
    return c


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=0, max_value=255))
def test_encoding_agrees_with_simulator(seed, input_bits):
    circuit = random_circuit(seed)
    unroller = Unroller(circuit, 2, use_initial_state=False)
    solver = Solver(unroller.cnf)
    assumptions = []
    values = {}
    for index, name in enumerate(circuit.inputs):
        bit = (input_bits >> index) & 1
        values[name] = bit
        assumptions.append(unroller.lit(name, 0, bit))
    state_bits = input_bits >> len(circuit.inputs)
    state = {}
    for index, name in enumerate(circuit.registers):
        bit = (state_bits >> index) & 1
        state[name] = bit
        assumptions.append(unroller.lit(name, 0, bit))
    result = solver.solve(assumptions=assumptions)
    assert result.is_sat
    frame = unroller.decode_frame(result.model, 0)
    simulated = Simulator(circuit).evaluate(state, values)
    for name, value in frame.items():
        assert simulated[name] == value, name


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_textio_round_trip_random_circuits(seed):
    circuit = random_circuit(seed)
    rebuilt = circuit_from_text(circuit_to_text(circuit))
    assert rebuilt.gates == circuit.gates
    assert rebuilt.registers == circuit.registers
    assert rebuilt.inputs == circuit.inputs


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=0, max_value=127))
def test_three_valued_sim_abstracts_two_valued(seed, bits):
    """If 3-valued simulation with some inputs at X yields 0/1 for a
    signal, every 2-valued completion must yield that same value."""
    circuit = random_circuit(seed)
    rng = random.Random(seed + 1)
    known = {}
    unknown = []
    for name in list(circuit.inputs) + list(circuit.registers):
        if rng.random() < 0.5:
            known[name] = rng.randint(0, 1)
        else:
            unknown.append(name)
    sim = Simulator(circuit)
    abstract = sim.evaluate(
        {k: v for k, v in known.items() if circuit.is_register_output(k)},
        {k: v for k, v in known.items() if circuit.is_input(k)},
    )
    completion = dict(known)
    for index, name in enumerate(unknown):
        completion[name] = (bits >> (index % 7)) & 1
    concrete = sim.evaluate(
        {k: v for k, v in completion.items()
         if circuit.is_register_output(k)},
        {k: v for k, v in completion.items() if circuit.is_input(k)},
    )
    for name, value in abstract.items():
        if value != X:
            assert concrete[name] == value, name


# ----------------------------------------------------------------------
# Max-flow duality on random graphs
# ----------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_max_flow_min_cut_duality(seed):
    rng = random.Random(seed)
    nodes = list(range(7))
    edges = []
    for u in nodes:
        for v in nodes:
            if u != v and rng.random() < 0.35:
                edges.append((u, v, rng.randint(1, 5)))
    net = FlowNetwork()
    for u, v, cap in edges:
        net.add_edge(u, v, cap)
    net.node(0)
    net.node(6)
    flow = net.max_flow(0, 6)
    side = net.reachable_in_residual(0)
    # Duality: the flow equals the capacity across the residual cut.
    cut_value = sum(
        cap for (u, v, cap) in edges if u in side and v not in side
    )
    assert flow == cut_value
    assert 6 not in side or flow == 0
