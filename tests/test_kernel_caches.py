"""Structural cache layer: identity, invalidation and CNF fidelity.

Three properties keep the caches safe to lean on from inside CEGAR:

1. entries are keyed by the circuit's mutation ``generation`` -- any
   ``add_*`` call silently invalidates them;
2. frame templates are shared *across* circuit objects through an exact
   structural fingerprint (refinement rebuilds identical subcircuits in
   fresh shells every iteration);
3. the template-instantiated :class:`Unroller` produces byte-identical
   CNF to a cold gate-by-gate encoding, so nothing downstream (solver
   heuristics, trace decoding, recorded regressions) can tell the
   difference.
"""

import gc
import weakref

import pytest

from repro.atpg.encode import Unroller
from repro.designs import table1_workloads
from repro.kernel import frame_template
from repro.kernel import scache
from repro.kernel.scache import (
    FrameTemplate,
    clear_caches,
    compiled,
    encode_gate_cnf,
    fingerprint,
    static_order,
)
from repro.netlist import Circuit, GateOp
from repro.netlist.ops import extract_subcircuit
from repro.sat.cnf import CNF


def _toggler_with_and():
    c = Circuit("c")
    c.add_input("en")
    c.add_gate(GateOp.NOT, ["q"], output="nq")
    c.add_gate(GateOp.AND, ["nq", "en"], output="d")
    c.add_register("d", init=0, output="q")
    return c


class TestCompiledCache:
    def test_hit_returns_same_object(self):
        c = _toggler_with_and()
        assert compiled(c) is compiled(c)

    def test_mutation_invalidates(self):
        c = _toggler_with_and()
        before = compiled(c)
        c.add_gate(GateOp.NOT, ["en"], output="nen")
        after = compiled(c)
        assert after is not before
        assert not before.is_current(c)
        assert "nen" in after.index

    def test_entry_does_not_outlive_its_circuit(self):
        """Entries are keyed weakly by circuit, so nothing in an entry
        may hold its own key: a dropped circuit must take its compiled
        form with it."""
        c = _toggler_with_and()
        compiled(c)
        assert c in scache._ENTRIES
        alive = weakref.ref(c)
        entries = len(scache._ENTRIES)
        del c
        gc.collect()
        assert alive() is None
        assert len(scache._ENTRIES) == entries - 1

    def test_compiled_covers_every_signal(self):
        c = _toggler_with_and()
        cc = compiled(c)
        for name in list(c.inputs) + list(c.gates) + list(c.registers):
            assert cc.names[cc.index_of(name)] == name


class TestCircuitDerivedCaches:
    def test_topo_gates_cached_until_mutation(self):
        c = _toggler_with_and()
        first = c.topo_gates()
        assert c.topo_gates() is first
        c.add_gate(GateOp.BUF, ["en"], output="en2")
        assert c.topo_gates() is not first

    def test_support_of_signal(self):
        c = _toggler_with_and()
        assert c.support_of_signal("d") == frozenset({"en", "q"})
        assert c.support_of_signal("en") == frozenset({"en"})
        # Cached: same frozenset object back.
        assert c.support_of_signal("d") is c.support_of_signal("d")

    def test_coi_registers_of(self):
        c = _toggler_with_and()
        assert c.coi_registers_of(["d"]) == frozenset({"q"})
        assert c.coi_registers_of(["en"]) == frozenset()

    def test_support_cache_invalidated_on_mutation(self):
        c = _toggler_with_and()
        assert c.support_of_signal("d") == frozenset({"en", "q"})
        c.add_input("clr")
        c.add_gate(GateOp.AND, ["d", "clr"], output="d2")
        assert c.support_of_signal("d2") == frozenset({"en", "q", "clr"})


class TestFingerprint:
    def test_equal_across_identical_objects(self):
        a = _toggler_with_and()
        b = _toggler_with_and()
        assert a is not b
        assert fingerprint(a) == fingerprint(b)

    def test_differs_on_structure(self):
        a = _toggler_with_and()
        b = _toggler_with_and()
        b.add_gate(GateOp.NOT, ["en"], output="nen")
        assert fingerprint(a) != fingerprint(b)

    def test_extracted_subcircuits_share_fingerprint(self):
        """The CEGAR pattern: extract_subcircuit with the same arguments
        yields fresh Circuit objects with equal fingerprints."""
        design = table1_workloads()[0]
        regs = sorted(design.circuit.registers)[:2]
        roots = design.prop.signals()
        m1 = extract_subcircuit(design.circuit, regs, roots)
        m2 = extract_subcircuit(design.circuit, regs, roots)
        assert m1 is not m2
        assert fingerprint(m1) == fingerprint(m2)


class TestFrameTemplate:
    def setup_method(self):
        clear_caches()

    def test_cross_object_template_sharing(self):
        a = _toggler_with_and()
        b = _toggler_with_and()
        assert frame_template(a) is frame_template(b)

    def test_clear_caches_forces_rebuild(self):
        a = _toggler_with_and()
        t1 = frame_template(a)
        clear_caches()
        assert frame_template(a) is not t1

    def _cold_unroll(self, circuit, cycles, use_initial_state=True):
        """The pre-template encoder: walk the netlist gate by gate for
        every frame.  Reference for byte-identical output."""
        cnf = CNF()
        frames = []
        for frame in range(cycles):
            frame_vars = {}
            for name in circuit.inputs:
                frame_vars[name] = cnf.new_var(f"{name}@{frame}")
            for name in circuit.registers:
                frame_vars[name] = cnf.new_var(f"{name}@{frame}")
            order = circuit.topo_gates()
            for gate in order:
                frame_vars[gate.output] = cnf.new_var(f"{gate.output}@{frame}")
            for gate in order:
                encode_gate_cnf(cnf, gate, frame_vars)
            if frame > 0:
                previous = frames[frame - 1]
                for name, reg in circuit.registers.items():
                    cnf.add_equiv(frame_vars[name], previous[reg.data])
            frames.append(frame_vars)
        if use_initial_state:
            for name, reg in circuit.registers.items():
                if reg.init is not None:
                    var = frames[0][name]
                    cnf.add_unit(var if reg.init else -var)
        return cnf

    @pytest.mark.parametrize("cycles", [1, 3])
    def test_unroller_matches_cold_encoding_exactly(self, cycles):
        for workload in table1_workloads()[:2]:
            circuit = workload.circuit
            ref = self._cold_unroll(circuit, cycles)
            got = Unroller(circuit, cycles, use_initial_state=True).cnf
            assert got.num_vars == ref.num_vars
            assert got.clauses == ref.clauses
            for var in range(1, ref.num_vars + 1):
                assert got.name_of(var) == ref.name_of(var)

    def test_template_instantiation_offsets(self):
        c = _toggler_with_and()
        template = FrameTemplate(c)
        cnf = CNF()
        v0 = template.instantiate(cnf, 0)
        v1 = template.instantiate(cnf, 1)
        delta = v1["q"] - v0["q"]
        assert delta == template.var_count
        for name in v0:
            assert v1[name] - v0[name] == delta
        assert cnf.name_of(v0["q"]) == "q@0"
        assert cnf.name_of(v1["q"]) == "q@1"


class TestStaticOrderCache:
    def test_compute_called_once_per_roots_key(self):
        c = _toggler_with_and()
        calls = []

        def compute():
            calls.append(1)
            return ["q", "en"]

        assert static_order(c, compute) == ["q", "en"]
        assert static_order(c, compute) == ["q", "en"]
        assert len(calls) == 1
        assert static_order(c, compute, extra_roots=("d",)) == ["q", "en"]
        assert len(calls) == 2

    def test_returns_fresh_lists(self):
        c = _toggler_with_and()
        first = static_order(c, lambda: ["q"])
        first.append("mutated")
        assert static_order(c, lambda: ["q"]) == ["q"]
