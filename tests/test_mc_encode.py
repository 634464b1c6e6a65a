"""Tests for the symbolic circuit encoding."""

import itertools

from repro.bdd import BDD
from repro.mc import SymbolicEncoding
from repro.mc.encode import next_var_name, static_variable_order
from repro.netlist import Circuit
from repro.sim import Simulator


def toggler():
    c = Circuit("toggler")
    en = c.add_input("en")
    q = c.add_register("d", init=0, output="q")
    nq = c.g_not(q, output="nq")
    c.g_mux(en, q, nq, output="d")
    c.validate()
    return c


def two_bit_counter():
    c = Circuit("cnt2")
    b0 = c.add_register("d0", init=0, output="b0")
    b1 = c.add_register("d1", init=1, output="b1")
    c.g_not(b0, output="d0")
    c.g_xor(b1, b0, output="d1")
    c.validate()
    return c


class TestStaticOrder:
    def test_order_covers_state_and_inputs(self):
        c = toggler()
        order = static_variable_order(c)
        assert set(order) == {"en", "q"}

    def test_order_is_deterministic(self):
        c = two_bit_counter()
        assert static_variable_order(c) == static_variable_order(c)


class TestEncoding:
    def test_vars_declared_and_grouped(self):
        enc = SymbolicEncoding(toggler())
        assert enc.current_vars == ["q"]
        assert enc.next_vars == [next_var_name("q")]
        assert enc.input_vars == ["en"]
        order = enc.bdd.var_order()
        assert order.index(next_var_name("q")) == order.index("q") + 1

    def test_gate_functions_match_simulation(self):
        c = toggler()
        enc = SymbolicEncoding(c)
        sim = Simulator(c)
        for q, en in itertools.product((0, 1), repeat=2):
            values = sim.evaluate({"q": q}, {"en": en})
            env = {"q": q, "en": en}
            for sig in ("nq", "d"):
                assert enc.function_of(sig)(env) == bool(values[sig]), (sig, env)

    def test_next_state_function(self):
        enc = SymbolicEncoding(toggler())
        fn = enc.next_state_function("q")
        # en=0 holds, en=1 toggles.
        assert fn({"q": 1, "en": 0}) is True
        assert fn({"q": 1, "en": 1}) is False

    def test_initial_states(self):
        enc = SymbolicEncoding(two_bit_counter())
        init = enc.initial_states()
        assert init({"b0": 0, "b1": 1}) is True
        assert init({"b0": 1, "b1": 1}) is False

    def test_initial_states_free_register(self):
        c = Circuit()
        a = c.add_input("a")
        c.add_register(a, init=None, output="q")
        enc = SymbolicEncoding(c)
        init = enc.initial_states()
        assert init({"q": 0}) is True
        assert init({"q": 1}) is True

    def test_rename_round_trip(self):
        enc = SymbolicEncoding(two_bit_counter())
        f = enc.bdd.var("b0") & ~enc.bdd.var("b1")
        g = enc.rename_current_to_next(f)
        assert g.support() == {next_var_name("b0"), next_var_name("b1")}
        assert enc.rename_next_to_current(g) == f

    def test_saved_order_excludes_next_vars(self):
        enc = SymbolicEncoding(two_bit_counter())
        saved = enc.saved_order()
        assert all(not name.endswith("#next") for name in saved)
        assert set(saved) == {"b0", "b1"}

    def test_saved_order_reused(self):
        c = two_bit_counter()
        enc1 = SymbolicEncoding(c)
        saved = ["b1", "b0"]
        enc2 = SymbolicEncoding(c, var_order=saved)
        order = [n for n in enc2.bdd.var_order() if not n.endswith("#next")]
        assert order == saved

    def test_saved_order_with_stale_names(self):
        c = two_bit_counter()
        enc = SymbolicEncoding(c, var_order=["ghost", "b1", "b0"])
        order = [n for n in enc.bdd.var_order() if not n.endswith("#next")]
        assert order == ["b1", "b0"]

    def test_shared_manager(self):
        bdd = BDD()
        enc = SymbolicEncoding(toggler(), bdd=bdd)
        assert enc.bdd is bdd
        assert bdd.has_var("q")

    def test_constants_and_wide_gates(self):
        c = Circuit("k")
        a = c.add_input("a")
        b = c.add_input("b")
        one = c.g_const(1, output="one")
        c.g_nand(a, b, one, output="y")
        c.g_nor(a, b, output="z")
        c.g_xnor(a, b, output="w")
        q = c.add_register("y", output="q")
        c.validate()
        enc = SymbolicEncoding(c)
        for av, bv in itertools.product((0, 1), repeat=2):
            env = {"a": av, "b": bv, "q": 0}
            assert enc.function_of("y")(env) == (not (av and bv))
            assert enc.function_of("z")(env) == (not (av or bv))
            assert enc.function_of("w")(env) == (av == bv)
