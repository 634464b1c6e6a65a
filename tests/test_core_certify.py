"""Tests for SAT-based certification of verification results."""

from repro.core import RFN, watchdog_property
from repro.engine import Verdict
from repro.core.certify import (
    Certificate,
    CertificateStatus,
    certify_error_trace,
    certify_invariant,
)
from repro.trace import Trace
from repro.mc import ImageComputer, SymbolicEncoding, forward_reach
from repro.netlist import Circuit
from repro.netlist.words import WordReg, w_eq_const, w_inc
from repro.sim import Simulator

from tests.conftest import saturating_counter


def exact_invariant(circuit):
    encoding = SymbolicEncoding(circuit)
    images = ImageComputer(encoding)
    reach = forward_reach(images, encoding.initial_states())
    assert reach.fixpoint_reached
    return encoding, reach.reached


class TestInvariantCertification:
    def test_exact_fixpoint_certifies(self):
        circuit, prop = saturating_counter()
        encoding, invariant = exact_invariant(circuit)
        cert = certify_invariant(circuit, prop, invariant, encoding)
        assert cert.ok
        assert cert.obligations["initiation"] == "unsat (holds)"
        assert cert.obligations["consecution"] == "unsat (holds)"
        assert cert.obligations["safety"] == "unsat (holds)"

    def test_true_invariant_fails_safety(self):
        """TRUE is inductive but not safe: the certificate must fail."""
        circuit, prop = saturating_counter()
        encoding, _ = exact_invariant(circuit)
        cert = certify_invariant(circuit, prop, encoding.bdd.true, encoding)
        assert cert.status is CertificateStatus.FAILED
        assert "counterexample" in cert.obligations["safety"]

    def test_non_inductive_invariant_fails_consecution(self):
        """cnt == 0 satisfies initiation and safety but is not closed."""
        circuit, prop = saturating_counter()
        encoding, _ = exact_invariant(circuit)
        frozen = encoding.bdd.cube(
            {f"cnt[{i}]": 0 for i in range(3)}
        )
        cert = certify_invariant(circuit, prop, frozen, encoding)
        assert cert.status is CertificateStatus.FAILED
        assert "counterexample" in cert.obligations["consecution"]

    def test_wrong_init_fails_initiation(self):
        circuit, prop = saturating_counter()
        encoding, _ = exact_invariant(circuit)
        not_init = encoding.bdd.cube({"cnt[0]": 1})
        cert = certify_invariant(circuit, prop, not_init, encoding)
        assert cert.status is CertificateStatus.FAILED
        assert "counterexample" in cert.obligations["initiation"]

    def test_false_invariant_certifiable_only_without_initial_states(self):
        """FALSE fails initiation (the initial state is outside it)."""
        circuit, prop = saturating_counter()
        encoding, _ = exact_invariant(circuit)
        cert = certify_invariant(circuit, prop, encoding.bdd.false, encoding)
        assert cert.status is CertificateStatus.FAILED


class TestRfnIntegration:
    def test_rfn_verified_result_certifies(self):
        circuit, prop = saturating_counter()
        result = RFN(circuit, prop).run()
        assert result.status is Verdict.VERIFIED
        assert result.invariant is not None
        cert = certify_invariant(
            result.abstract_model,
            prop,
            result.invariant,
            result.invariant_encoding,
        )
        assert cert.ok

    def test_invariant_also_certifies_on_original_design(self):
        """Subcircuit soundness, checked mechanically: the abstract
        invariant is inductive on the full design too."""
        circuit, prop = saturating_counter()
        result = RFN(circuit, prop).run()
        cert = certify_invariant(
            circuit,  # the original design, not the abstract model
            prop,
            result.invariant,
            result.invariant_encoding,
        )
        assert cert.ok

    def test_rfn_falsified_trace_certifies(self):
        c = Circuit("cnt")
        cnt = WordReg(c, "cnt", 3, init=0)
        nxt, _ = w_inc(c, cnt.q)
        cnt.drive(nxt)
        prop = watchdog_property(c, w_eq_const(c, cnt.q, 5), "hit5")
        c.validate()
        result = RFN(c, prop).run()
        assert result.status is Verdict.FALSIFIED
        cert = certify_error_trace(c, prop, result.trace)
        assert cert.ok
        assert "reached at cycle" in cert.obligations["bad-state"]


class TestTraceCertification:
    def test_bogus_trace_fails(self):
        circuit, prop = saturating_counter()
        bogus = Trace(
            states=[{name: 0 for name in circuit.registers}],
            inputs=[{}],
        )
        cert = certify_error_trace(circuit, prop, bogus)
        assert cert.status is CertificateStatus.FAILED
        assert "never reached" in cert.obligations["bad-state"]

    def test_illegal_initial_state_detected(self):
        circuit, prop = saturating_counter()
        state = {name: 0 for name in circuit.registers}
        state["cnt[0]"] = 1  # init says 0
        bogus = Trace(states=[state], inputs=[{}])
        cert = certify_error_trace(circuit, prop, bogus)
        assert cert.status is CertificateStatus.FAILED
        assert "FAILS" in cert.obligations["initial-state"]


def interpreted_certificate(circuit, prop, trace) -> Certificate:
    """Reference for ``certify_error_trace``: the same obligations, with
    the trace replayed on the interpreted simulator instead of the
    kernel."""
    state = dict(trace.states[0])
    legal_init = all(
        reg.init is None or state.get(name, reg.init) == reg.init
        for name, reg in circuit.registers.items()
    )
    obligations = {
        "initial-state": (
            "matches declared init values" if legal_init
            else "FAILS: trace starts outside the initial states"
        ),
        "bad-state": "FAILS: never reached",
    }
    visited_bad = False
    for cycle, values in enumerate(
        Simulator(circuit).iter_run(trace.inputs, state)
    ):
        if prop.holds_in_state(values):
            visited_bad = True
            obligations["bad-state"] = f"reached at cycle {cycle}"
            break
    ok = legal_init and visited_bad
    return Certificate(
        status=(
            CertificateStatus.CERTIFIED if ok else CertificateStatus.FAILED
        ),
        obligations=obligations,
    )


class TestReplaySimulatorPinning:
    """The kernel certificate must match a replay on the interpreted
    reference simulator -- on good traces, bogus traces, and traces with
    partially-specified inputs (3-valued replay)."""

    def _falsified_trace(self):
        c = Circuit("cnt")
        cnt = WordReg(c, "cnt", 3, init=0)
        nxt, _ = w_inc(c, cnt.q)
        cnt.drive(nxt)
        prop = watchdog_property(c, w_eq_const(c, cnt.q, 5), "hit5")
        c.validate()
        result = RFN(c, prop).run()
        assert result.status is Verdict.FALSIFIED
        return c, prop, result.trace

    def test_good_trace_certifies_on_both(self):
        c, prop, trace = self._falsified_trace()
        kernel = certify_error_trace(c, prop, trace)
        interp = interpreted_certificate(c, prop, trace)
        assert kernel.ok and interp.ok
        assert kernel.obligations == interp.obligations

    def test_bogus_trace_fails_on_both(self):
        circuit, prop = saturating_counter()
        bogus = Trace(
            states=[{name: 0 for name in circuit.registers}],
            inputs=[{}],
        )
        kernel = certify_error_trace(circuit, prop, bogus)
        interp = interpreted_certificate(circuit, prop, bogus)
        assert kernel.status is CertificateStatus.FAILED
        assert interp.status is CertificateStatus.FAILED
        assert kernel.obligations == interp.obligations

    def test_partial_inputs_agree(self):
        """Unassigned primary inputs replay as X on both paths; the
        watchdog still latches because the bad condition is forced."""
        c = Circuit("part")
        free = c.add_input("free")
        r = c.add_register("rd", init=0, output="r")
        c.g_or(r, c.g_const(1), output="rd")
        c.g_and(r, c.g_or(free, c.g_not(free)), output="dummy")
        prop = watchdog_property(c, r, "r_high")
        c.validate()
        wd = prop.signals()[0]
        trace = Trace(
            states=[{"r": 0, wd: 0}, {"r": 1, wd: 0}, {"r": 1, wd: 1}],
            inputs=[{}, {}, {"free": 0}],
        )
        kernel = certify_error_trace(c, prop, trace)
        interp = interpreted_certificate(c, prop, trace)
        assert kernel.ok and interp.ok
        assert kernel.obligations == interp.obligations
