"""Edge-case tests for assorted engine surfaces."""

import pytest

from repro.bdd import BDD
from repro.bdd.manager import BDDNodeLimit
from repro.core.guided import _lift_trace
from repro.designs import paper_scale_enabled
from repro.mc import ImageComputer, SymbolicEncoding
from repro.mc.approx import ApproxOutcome, ApproxResult
from repro.mc.encode import static_variable_order
from repro.netlist import Circuit
from repro.netlist.ops import coi_registers, extract_subcircuit
from repro.trace import Trace, cube_conflicts


class TestNodeLimit:
    def test_limit_raises(self):
        bdd = BDD([f"v{i}" for i in range(16)])
        bdd.node_limit = bdd.total_nodes() + 3
        with pytest.raises(BDDNodeLimit):
            f = bdd.true
            for i in range(16):
                f = f & (bdd.var(f"v{i}") ^ bdd.var(f"v{(i + 1) % 16}"))

    def test_limit_cleared_allows_growth(self):
        bdd = BDD(["a", "b", "c"])
        bdd.node_limit = None
        f = (bdd.var("a") & bdd.var("b")) | bdd.var("c")
        assert not f.is_false

    def test_existing_nodes_still_usable_after_limit(self):
        bdd = BDD(["a", "b"])
        f = bdd.var("a") & bdd.var("b")
        bdd.node_limit = bdd.total_nodes()
        # Cached/canonical lookups still work without allocation.
        assert (bdd.var("a") & bdd.var("b")) == f


class TestConstrainedPreImage:
    def test_matches_conjunction(self):
        c = Circuit("cnt2")
        b0 = c.add_register("d0", init=0, output="b0")
        b1 = c.add_register("d1", init=0, output="b1")
        c.g_not(b0, output="d0")
        c.g_xor(b1, b0, output="d1")
        c.validate()
        enc = SymbolicEncoding(c)
        images = ImageComputer(enc)
        states = enc.bdd.cube({"b0": 1})
        constraint = enc.bdd.cube({"b1": 0})
        assert images.constrained_pre_image(states, constraint) == (
            images.pre_image(states) & constraint
        )


class TestStaticOrderRoots:
    def test_extra_roots_visited_first(self):
        c = Circuit()
        a = c.add_input("a")
        b = c.add_input("b")
        y = c.g_and(b, a, output="y")
        c.add_register(a, output="q")
        c.validate()
        order = static_variable_order(c, roots=["y"])
        assert order.index("b") < order.index("q")


class TestLiftTrace:
    def test_lift_fills_outside_coi(self):
        c = Circuit("two")
        a = c.add_input("a")
        x = c.add_input("x")
        c.add_register(a, output="qa")
        c.add_register(x, output="qx")
        c.validate()
        coi = coi_registers(c, ["qa"])
        reduced = extract_subcircuit(c, coi, ["qa"])
        inner = Trace(
            states=[{"qa": 0}, {"qa": 1}],
            inputs=[{"a": 1}, {"a": 0}],
            circuit_name=reduced.name,
        )
        lifted = _lift_trace(c, reduced, inner)
        assert lifted.length == 2
        assert set(lifted.inputs[0]) == {"a", "x"}
        assert lifted.states[1]["qa"] == 1
        assert lifted.states[1]["qx"] == 0  # outside-COI input held at 0


class TestCubeConflicts:
    def test_x_never_conflicts(self):
        assert cube_conflicts({"a": 1}, {"a": 2}) == []

    def test_binary_conflict(self):
        assert cube_conflicts({"a": 1, "b": 0}, {"a": 0, "b": 0}) == ["a"]

    def test_missing_value_is_x(self):
        assert cube_conflicts({"a": 1}, {}) == []


class TestApproxResult:
    def test_empty_over_approximation_rejected(self):
        result = ApproxResult(ApproxOutcome.UNDECIDED, blocks=[])
        with pytest.raises(ValueError):
            result.over_approximation()


class TestPaperScaleFlag:
    def test_env_controls_flag(self, monkeypatch):
        monkeypatch.delenv("REPRO_PAPER_SCALE", raising=False)
        assert not paper_scale_enabled()
        monkeypatch.setenv("REPRO_PAPER_SCALE", "1")
        assert paper_scale_enabled()
        monkeypatch.setenv("REPRO_PAPER_SCALE", "0")
        assert not paper_scale_enabled()


class TestBddHousekeeping:
    def test_clear_cache(self):
        bdd = BDD(["a", "b"])
        _ = bdd.var("a") & bdd.var("b")
        assert bdd.stats()["cache_entries"] > 0
        bdd.clear_cache()
        assert bdd.stats()["cache_entries"] == 0

    def test_repr(self):
        bdd = BDD(["a"])
        assert "vars=1" in repr(bdd)

    def test_forall_public_api(self):
        bdd = BDD(["a", "b"])
        f = bdd.var("a") | bdd.var("b")
        assert bdd.forall(["a"], f) == bdd.var("b")

    def test_evaluate_via_manager(self):
        bdd = BDD(["a"])
        assert bdd.evaluate(bdd.var("a"), {"a": 1}) is True
