"""Tests for the COI-reduced BDD model checker (the registry's ``bdd``
engine, Table 1's baseline) and properties."""

import pytest

from repro.core.property import UnreachabilityProperty, watchdog_property
from repro.engine import Limits, Verdict, registry
from repro.kernel.scache import coi_model
from repro.trace import Trace
from repro.netlist import Circuit, NetlistError
from repro.netlist.words import WordReg, w_eq_const, w_inc
from repro.sim import Simulator


def counter_with_watchdog(width=3, bad_value=5):
    c = Circuit("cnt")
    cnt = WordReg(c, "cnt", width, init=0)
    nxt, _ = w_inc(c, cnt.q)
    cnt.drive(nxt)
    bad = w_eq_const(c, cnt.q, bad_value)
    prop = watchdog_property(c, bad, "cnt_bad")
    c.validate()
    return c, prop


def safe_counter(width=3):
    """Saturating counter: values above the saturation point unreachable."""
    c = Circuit("sat")
    cnt = WordReg(c, "cnt", width, init=0)
    nxt, carry = w_inc(c, cnt.q)
    stop = w_eq_const(c, cnt.q, 3)
    held = [c.g_mux(stop, n, q) for n, q in zip(nxt, cnt.q)]
    cnt.drive(held)
    bad = w_eq_const(c, cnt.q, 6)
    prop = watchdog_property(c, bad, "overflow")
    c.validate()
    return c, prop


class TestProperty:
    def test_property_requires_target(self):
        with pytest.raises(ValueError):
            UnreachabilityProperty("p", {})

    def test_property_values_checked(self):
        with pytest.raises(ValueError):
            UnreachabilityProperty("p", {"q": 2})

    def test_validate_against_requires_register(self):
        c = Circuit()
        c.add_input("a")
        prop = UnreachabilityProperty("p", {"a": 1})
        with pytest.raises(NetlistError):
            prop.validate_against(c)

    def test_holds_in_state(self):
        prop = UnreachabilityProperty("p", {"x": 1, "y": 0})
        assert prop.holds_in_state({"x": 1, "y": 0, "z": 1})
        assert not prop.holds_in_state({"x": 1, "y": 1})
        assert not prop.holds_in_state({"x": 1})

    def test_watchdog_is_sticky(self):
        c = Circuit()
        bad = c.add_input("bad")
        prop = watchdog_property(c, bad, "oops")
        c.validate()
        sim = Simulator(c)
        frames = sim.run([{"bad": 1}, {"bad": 0}, {"bad": 0}])
        wd = prop.signals()[0]
        assert frames[0][wd] == 0  # fires one cycle later
        assert frames[1][wd] == 1
        assert frames[2][wd] == 1  # stays latched

    def test_watchdog_undefined_signal(self):
        with pytest.raises(NetlistError):
            watchdog_property(Circuit(), "ghost", "p")


def model_check(circuit, prop, limits=None):
    return registry.get("bdd").run(circuit, prop, limits)


class TestChecker:
    def test_false_property_found_with_trace(self):
        c, prop = counter_with_watchdog()
        result = model_check(c, prop)
        assert result.verdict is Verdict.FALSIFIED
        assert result.trace is not None
        # Watchdog latches one cycle after cnt==5: trace length 7 states.
        assert result.trace.length == 7

    def test_error_trace_replays(self):
        c, prop = counter_with_watchdog()
        result = model_check(c, prop)
        trace = result.trace
        sim = Simulator(c)
        frames = sim.run(trace.inputs, state=trace.states[0])
        wd = prop.signals()[0]
        assert frames[-1][wd] == 1

    def test_true_property(self):
        c, prop = safe_counter()
        result = model_check(c, prop)
        assert result.verdict is Verdict.VERIFIED
        assert result.trace is None

    def test_resource_out(self):
        c, prop = counter_with_watchdog(width=6, bad_value=60)
        # Room for the transition relation, not for the 61-image fixpoint.
        result = model_check(c, prop, Limits(max_bdd_nodes=200))
        assert result.verdict is Verdict.UNKNOWN

    def test_coi_reduction_prunes_unrelated_logic(self):
        c, prop = safe_counter()
        # Unrelated island of registers that would bloat the state space.
        for i in range(8):
            c.add_register(c.add_input(f"x{i}"), output=f"junk{i}")
        c.validate()
        result = model_check(c, prop)
        assert result.verdict is Verdict.VERIFIED
        # counter bits + watchdog
        assert coi_model(c, prop.signals()).num_registers == 3 + 1


class TestTraceType:
    def test_trace_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Trace(states=[{}], inputs=[])

    def test_cube_at_merges(self):
        t = Trace(states=[{"q": 1}], inputs=[{"en": 0}])
        assert t.cube_at(0) == {"q": 1, "en": 0}

    def test_restricted_to(self):
        t = Trace(states=[{"q": 1, "r": 0}], inputs=[{"en": 0}])
        r = t.restricted_to(["q"])
        assert r.states == [{"q": 1}]
        assert r.inputs == [{}]

    def test_uses_only(self):
        t = Trace(states=[{"q": 1}], inputs=[{"en": 0}])
        assert t.uses_only(["q", "en"])
        assert not t.uses_only(["q"])

    def test_assigned_signals_counts(self):
        t = Trace(
            states=[{"q": 1}, {"q": 0}],
            inputs=[{"en": 0}, {}],
        )
        assert t.assigned_signals() == {"q": 2, "en": 1}

    def test_format_renders(self):
        t = Trace(states=[{"q": 1}], inputs=[{"en": 0}], circuit_name="c")
        text = t.format()
        assert "q" in text and "en" in text and "1" in text

    def test_constraint_cubes(self):
        t = Trace(states=[{"q": 1}], inputs=[{"en": 0}])
        assert t.constraint_cubes() == [{"q": 1, "en": 0}]
