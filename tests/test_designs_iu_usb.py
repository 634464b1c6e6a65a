"""Tests for the picoJava-IU-like and USB-like coverage designs."""

import pytest

from repro.designs.picojava_iu import IuParams, build_iu
from repro.designs.usb import build_usb
from repro.netlist.ops import coi_registers
from repro.sim import RandomSimulator, Simulator


class TestIuDesign:
    def test_params_validated(self):
        with pytest.raises(ValueError):
            IuParams(num_states=20, state_bits=4)
        with pytest.raises(ValueError):
            IuParams(units=1)

    def test_coverage_sets_are_registers(self):
        c, sets = build_iu()
        for signals in sets.values():
            for sig in signals:
                assert c.is_register_output(sig)

    def test_iu_sets_share_coi(self):
        """The paper was surprised that IU1-IU5 had identical COIs; the
        interlock chain reproduces that."""
        c, sets = build_iu()
        cois = {
            name: frozenset(coi_registers(c, signals))
            for name, signals in sets.items()
        }
        assert len(set(cois.values())) == 1

    def test_states_stay_in_legal_range(self):
        params = IuParams()
        c, _ = build_iu(params)
        rs = RandomSimulator(c, seed=5)
        frames = rs.random_run(300)
        for frame in frames:
            for u in range(params.units):
                value = sum(
                    frame[f"u{u}_state[{b}]"] << b
                    for b in range(params.state_bits)
                )
                assert value < params.num_states

    def test_unit_advances_under_favourable_inputs(self):
        params = IuParams(datapath_words=2, word_width=4)
        c, _ = build_iu(params)
        sim = Simulator(c)
        state = sim.initial_state()
        inputs = {f"go{i}": 1 for i in range(params.units)}
        inputs.update({f"din[{i}]": 0 for i in range(params.word_width)})
        moved = False
        for _ in range(20):
            _, state = sim.step(state, inputs)
            value = sum(
                state[f"u0_state[{b}]"] << b
                for b in range(params.state_bits)
            )
            if value > 0:
                moved = True
        assert moved

    def test_paper_scale_is_bigger(self):
        small, _ = build_iu(IuParams())
        big, _ = build_iu(IuParams.paper_scale())
        assert big.num_registers > small.num_registers


class TestUsbDesign:
    def test_coverage_set_sizes(self):
        c, sets = build_usb()
        assert len(sets["USB1"]) == 6
        assert len(sets["USB2"]) == 21

    def test_nrzi_decoding(self):
        c, _ = build_usb()
        sim = Simulator(c)
        state = sim.initial_state()
        # Same level twice -> decoded 1; transition -> decoded 0.
        values, state = sim.step(state, {"dplus": 1, "se0": 0, "host_ack": 0})
        assert values["nrzi_bit"] == 1  # prev_level init 1, dplus 1
        values, state = sim.step(state, {"dplus": 0, "se0": 0, "host_ack": 0})
        assert values["nrzi_bit"] == 0

    def test_stuff_error_after_seven_ones(self):
        c, _ = build_usb()
        sim = Simulator(c)
        state = sim.initial_state()
        # Hold the line level constant: NRZI decodes a run of ones.
        for _ in range(8):
            values, state = sim.step(
                state, {"dplus": 1, "se0": 0, "host_ack": 0}
            )
        assert state["stuff_err"] == 1

    def test_stuffed_zero_resets_run(self):
        c, _ = build_usb()
        sim = Simulator(c)
        state = sim.initial_state()
        for _ in range(6):  # six ones
            values, state = sim.step(
                state, {"dplus": 1, "se0": 0, "host_ack": 0}
            )
        # A transition (decoded 0) is the stuffed bit: no error.
        values, state = sim.step(state, {"dplus": 0, "se0": 0, "host_ack": 0})
        assert state["stuff_err"] == 0
        assert sum(state[f"ones[{i}]"] << i for i in range(3)) == 0

    def test_ones_counter_never_exceeds_six(self):
        c, _ = build_usb()
        rs = RandomSimulator(c, seed=9)
        for frame in rs.random_run(400):
            value = sum(frame[f"ones[{i}]"] << i for i in range(3))
            assert value <= 6

    def test_shift_register_collects_bits(self):
        c, _ = build_usb()
        sim = Simulator(c)
        state = sim.initial_state()
        for _ in range(3):
            _, state = sim.step(state, {"dplus": 1, "se0": 0, "host_ack": 0})
        value = sum(state[f"shift[{i}]"] << i for i in range(8))
        assert value != 0  # ones were shifted in

    def test_endpoint_halts_on_stuff_error_during_rx(self):
        """The halted endpoint state is only enterable from receive."""
        c, _ = build_usb()
        rs = RandomSimulator(c, seed=21)
        for frame in rs.random_run(400):
            ep = frame["ep[0]"] + 2 * frame["ep[1]"]
            if ep == 3:
                assert frame["stuff_err"] == 1
