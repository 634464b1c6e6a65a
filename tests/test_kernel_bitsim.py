"""Randomized equivalence: bit-parallel kernel vs interpreted simulator.

The bit-parallel simulator is only allowed into the RFN hot paths because
it is *provably the same function* as :class:`repro.sim.Simulator`.  These
tests drive both engines with identical stimulus -- 2-valued, 3-valued
with X injection, and trace-replay register overrides -- across every
gate op and the full design library, and require bit-exact agreement.
"""

import itertools
import random

import pytest

from repro.designs import table1_workloads
from repro.fuzz.gen import generate_circuit
from repro.kernel import (
    BitParallelSimulator,
    pack_bits,
    pack_lanes,
    pack_lanes_masked,
    pack_value,
    planes_value,
)
from repro.netlist import Circuit, GateOp
from repro.sim import ONE, X, ZERO, Simulator

VALUES = (ZERO, ONE, X)


def _library_circuits():
    return [(w.name, w.circuit) for w in table1_workloads()]


def _random_cube(rng, names, values=VALUES, density=0.8):
    """A random partial assignment; missing names exercise the default-X
    path of both engines."""
    return {n: rng.choice(values) for n in names if rng.random() < density}


def _assert_lanes_match(circuit, states, inputs):
    """Both engines settle the same cubes; every lane, every signal."""
    ref = Simulator(circuit)
    kernel = BitParallelSimulator(circuit)
    got = kernel.evaluate_cubes(states, inputs)
    for lane, (state, cube) in enumerate(zip(states, inputs)):
        expected = ref.evaluate(state, cube)
        assert got[lane] == expected, f"lane {lane} diverged"


class TestGateOpTables:
    """Exhaustive 3-valued truth tables, one tiny circuit per op."""

    @pytest.mark.parametrize(
        "op,arity",
        [
            (GateOp.AND, 2),
            (GateOp.OR, 2),
            (GateOp.NAND, 2),
            (GateOp.NOR, 2),
            (GateOp.XOR, 2),
            (GateOp.XNOR, 2),
            (GateOp.AND, 3),
            (GateOp.XOR, 3),
            (GateOp.NOT, 1),
            (GateOp.BUF, 1),
            (GateOp.MUX, 3),
        ],
    )
    def test_exhaustive(self, op, arity):
        c = Circuit("op")
        names = [f"i{k}" for k in range(arity)]
        for n in names:
            c.add_input(n)
        c.add_gate(op, names, output="y")
        combos = list(itertools.product(VALUES, repeat=arity))
        inputs = [dict(zip(names, combo)) for combo in combos]
        _assert_lanes_match(c, [{}] * len(combos), inputs)

    def test_constants(self):
        c = Circuit("const")
        c.add_input("i")
        c.add_gate(GateOp.CONST0, [], output="z")
        c.add_gate(GateOp.CONST1, [], output="o")
        _assert_lanes_match(c, [{}] * 3, [{"i": v} for v in VALUES])


class TestPacking:
    def test_pack_value_round_trip(self):
        for value in VALUES:
            planes = pack_value(value, 5)
            for lane in range(5):
                assert planes_value(planes, lane) == value

    def test_pack_bits_round_trip(self):
        planes = pack_bits(0b1011, 4)
        assert [planes_value(planes, k) for k in range(4)] == [1, 1, 0, 1]

    def test_pack_lanes_masked_distinguishes_explicit_x(self):
        packed, masks = pack_lanes_masked([{"a": X}, {}, {"a": ONE}])
        assert masks["a"] == 0b101  # lane 1 never assigned a
        assert planes_value(packed["a"], 0) == X
        assert planes_value(packed["a"], 2) == ONE

    def test_pack_lanes_rejects_bad_value(self):
        with pytest.raises(ValueError):
            pack_lanes([{"a": 7}])


@pytest.mark.parametrize("name,circuit", _library_circuits())
class TestLibraryEquivalence:
    def test_two_valued_random_runs(self, name, circuit):
        """Concrete 0/1 stimulus: the kernel must agree with the reference
        on every signal of every cycle of a multi-cycle run."""
        rng = random.Random(sum(map(ord, name)))
        ref = Simulator(circuit)
        kernel = BitParallelSimulator(circuit)
        lanes = 7
        cycles = 4
        # One independent reference run per lane, same stimulus.
        per_lane_inputs = [
            [
                {n: rng.randint(0, 1) for n in circuit.inputs}
                for _ in range(cycles)
            ]
            for _ in range(lanes)
        ]
        ref_runs = [
            ref.run(seq, state=ref.initial_state(default=0))
            for seq in per_lane_inputs
        ]
        packed_cycles = [
            pack_lanes([per_lane_inputs[lane][t] for lane in range(lanes)])
            for t in range(cycles)
        ]
        frames = list(
            kernel.run(
                packed_cycles,
                lanes,
                state=kernel.initial_state(lanes, default=0),
            )
        )
        for t, frame in enumerate(frames):
            for lane in range(lanes):
                assert frame.lane_valuation(lane) == ref_runs[lane][t]

    def test_three_valued_x_injection(self, name, circuit):
        """Partial cubes with explicit X on both inputs and state."""
        rng = random.Random(sum(map(ord, name)) ^ 0x5A5A)
        lanes = 5
        for _ in range(6):
            states = [
                _random_cube(rng, circuit.registers) for _ in range(lanes)
            ]
            inputs = [
                _random_cube(rng, circuit.inputs) for _ in range(lanes)
            ]
            _assert_lanes_match(circuit, states, inputs)

    def test_register_override_semantics(self, name, circuit):
        """Inputs assigning register outputs win over state, including an
        explicit X override -- the Section 2.4 trace-replay convention."""
        rng = random.Random(len(name))
        regs = list(circuit.registers)
        lanes = 6
        states = [
            {n: rng.choice((ZERO, ONE)) for n in regs} for _ in range(lanes)
        ]
        inputs = []
        for _ in range(lanes):
            cube = _random_cube(rng, circuit.inputs, values=(ZERO, ONE))
            # Override a random subset of registers, X included.
            for n in rng.sample(regs, k=min(3, len(regs))):
                cube[n] = rng.choice(VALUES)
            inputs.append(cube)
        _assert_lanes_match(circuit, states, inputs)

    def test_replay_matches_iter_run(self, name, circuit):
        """The single-lane name-level replay against ``iter_run``: a
        random 3-valued start state and stimulus, with register
        overrides (X included) in about half of the cycles' inputs."""
        rng = random.Random(sum(map(ord, name)) ^ 0x3C3C)
        regs = list(circuit.registers)
        state = _random_cube(rng, regs)
        stimulus = []
        for _ in range(8):
            cube = _random_cube(rng, circuit.inputs)
            if rng.random() < 0.5:
                for n in rng.sample(regs, k=min(3, len(regs))):
                    cube[n] = rng.choice(VALUES)
            stimulus.append(cube)
        expected = list(Simulator(circuit).iter_run(stimulus, state))
        frames = BitParallelSimulator(circuit).replay(state, stimulus)
        assert [frame.lane_valuation(0) for frame in frames] == expected

    def test_initial_state_matches(self, name, circuit):
        ref = Simulator(circuit).initial_state()
        packed = BitParallelSimulator(circuit).initial_state(3)
        assert set(packed) == set(ref)
        for reg, planes in packed.items():
            for lane in range(3):
                assert planes_value(planes, lane) == ref[reg]


@pytest.mark.parametrize("seed", range(20))
def test_replay_matches_iter_run_on_fuzz_circuits(seed):
    """Same check over generated circuits, which mix every gate op with
    register feedback; 16 cycles, overrides in about a third."""
    circuit, _ = generate_circuit(seed)
    rng = random.Random(seed)
    regs = list(circuit.registers)
    state = _random_cube(rng, regs)
    stimulus = []
    for _ in range(16):
        cube = _random_cube(rng, circuit.inputs)
        if rng.random() < 0.35:
            for n in rng.sample(regs, k=min(2, len(regs))):
                cube[n] = rng.choice(VALUES)
        stimulus.append(cube)
    expected = list(Simulator(circuit).iter_run(stimulus, state))
    frames = BitParallelSimulator(circuit).replay(state, stimulus)
    assert [frame.lane_valuation(0) for frame in frames] == expected


class TestFrameHelpers:
    def _frame(self):
        c = Circuit("f")
        c.add_input("a")
        c.add_input("b")
        c.add_gate(GateOp.AND, ["a", "b"], output="y")
        sim = BitParallelSimulator(c)
        inputs = pack_lanes([{"a": ONE, "b": ONE}, {"a": ZERO, "b": ONE}, {"a": X, "b": ONE}])
        return sim.evaluate({}, inputs, 3)

    def test_lanes_equal(self):
        frame = self._frame()
        assert frame.lanes_equal("y", ONE) == 0b001
        assert frame.lanes_equal("y", ZERO) == 0b010
        assert frame.lanes_equal("y", X) == 0b100

    def test_project(self):
        frame = self._frame()
        cc = frame._cc
        indices = [cc.index_of("a"), cc.index_of("y")]
        assert frame.project(indices, 0) == (1, 1)
        assert frame.project(indices, 1) == (0, 0)

    def test_value_rejects_invalid_lane(self):
        frame = self._frame()
        with pytest.raises(ValueError):
            planes_value((0, 0), 0)


class TestStreamingRun:
    """Satellite: ``Simulator.reaches`` must stream, not pre-simulate."""

    def _toggler(self):
        c = Circuit("toggle")
        c.add_gate(GateOp.NOT, ["q"], output="nq")
        c.add_register("nq", init=0, output="q")
        return c

    def test_reaches_short_circuits(self):
        c = self._toggler()
        sim = Simulator(c)
        consumed = []

        def stimulus():
            for t in range(1000):
                consumed.append(t)
                yield {}

        # q goes 0 -> 1 on the first cycle; the generator must not be
        # drained past the hit.
        assert sim.reaches(stimulus(), "q", 1)
        assert len(consumed) <= 2

    def test_iter_run_is_lazy(self):
        c = self._toggler()
        sim = Simulator(c)
        it = sim.iter_run({} for _ in range(10))
        first = next(it)
        assert first["q"] == 0 and first["nq"] == 1
        second = next(it)
        assert second["q"] == 1

    def test_replay_stops_when_the_caller_stops(self):
        c = self._toggler()
        consumed = []

        def stimulus():
            for t in range(1000):
                consumed.append(t)
                yield {}

        frames = BitParallelSimulator(c).replay({"q": 0}, stimulus())
        first = [frame.value("q") for frame in itertools.islice(frames, 3)]
        assert first == [0, 1, 0]
        assert consumed == [0, 1, 2]

    def test_replay_override_wins_for_one_cycle(self):
        """A register named in a cycle's inputs overrides the latched
        value in that cycle only; the next cycle latches from it."""
        c = self._toggler()
        frames = BitParallelSimulator(c).replay(
            {"q": 0}, [{}, {"q": 0}, {}, {"q": X}, {}]
        )
        assert [frame.value("q") for frame in frames] == [0, 0, 1, X, X]

    def test_frame_get_reads_like_a_valuation(self):
        c = self._toggler()
        frame = next(BitParallelSimulator(c).replay({"q": 1}, [{}]))
        assert frame.get("nq") == 0
        assert frame.get("missing") is None
        assert frame.get("missing", X) == X

    def test_run_matches_iter_run(self):
        c = self._toggler()
        sim = Simulator(c)
        seq = [{}] * 5
        assert sim.run(seq) == list(sim.iter_run(seq))
