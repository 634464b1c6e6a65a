"""Tests for overlapping-partition approximate reachability (§5 future
work / [5][7])."""

import pytest

from repro.core import RFN, RfnConfig, watchdog_property
from repro.engine import Verdict
from repro.mc import ImageComputer, SymbolicEncoding, forward_reach
from repro.mc.approx import (
    ApproximateReach,
    ApproxOutcome,
    approximate_check,
    overlapping_blocks,
)
from repro.mc.reach import ReachLimits
from repro.netlist import Circuit
from repro.netlist.words import WordReg, w_eq_const, w_inc
from repro.runtime import Budget


def saturating_counter_circuit(width=4, ceiling=9):
    c = Circuit("sat")
    cnt = WordReg(c, "cnt", width, init=0)
    nxt, _ = w_inc(c, cnt.q)
    stop = w_eq_const(c, cnt.q, ceiling)
    cnt.drive([c.g_mux(stop, n, q) for n, q in zip(nxt, cnt.q)])
    bad = w_eq_const(c, cnt.q, ceiling + 2)
    prop = watchdog_property(c, bad, "overflow")
    c.validate()
    return c, prop


def independent_toggles(n=6):
    """n independently-enabled toggle registers: every state combination
    is reachable, so single-variable blocks stay exact."""
    c = Circuit("togs")
    regs = []
    for i in range(n):
        en = c.add_input(f"en{i}")
        q = c.add_register(f"d{i}", init=0, output=f"t{i}")
        c.g_mux(en, q, c.g_not(q), output=f"d{i}")
        regs.append(q)
    c.validate()
    return c, regs


class TestBlocks:
    def test_single_block_when_small(self):
        assert overlapping_blocks(["a", "b"], block_size=4) == [["a", "b"]]

    def test_sliding_window_overlap(self):
        regs = [f"r{i}" for i in range(10)]
        blocks = overlapping_blocks(regs, block_size=4, overlap=2)
        assert all(len(b) == 4 for b in blocks)
        for first, second in zip(blocks, blocks[1:]):
            assert set(first) & set(second)
        assert set().union(*blocks) == set(regs)

    def test_bad_params(self):
        with pytest.raises(ValueError):
            overlapping_blocks(["a"], block_size=0)
        with pytest.raises(ValueError):
            overlapping_blocks(["a"], block_size=2, overlap=2)

    def test_empty(self):
        assert overlapping_blocks([], block_size=4) == []


class TestApproximateReach:
    def test_over_approximates_exact(self):
        """The block-invariant conjunction contains the exact fixpoint."""
        c, prop = saturating_counter_circuit()
        encoding = SymbolicEncoding(c)
        images = ImageComputer(encoding)
        exact = forward_reach(images, encoding.initial_states())
        approx = ApproximateReach(encoding, block_size=2, overlap=1)
        result = approx.run(encoding.initial_states())
        assert exact.reached <= result.over_approximation()

    def test_exact_when_single_block(self):
        c, prop = saturating_counter_circuit()
        encoding = SymbolicEncoding(c)
        images = ImageComputer(encoding)
        exact = forward_reach(images, encoding.initial_states())
        approx = ApproximateReach(encoding, block_size=64)
        result = approx.run(encoding.initial_states())
        assert result.over_approximation() == exact.reached

    def test_independent_machines_stay_exact(self):
        c, regs = independent_toggles(6)
        encoding = SymbolicEncoding(c)
        approx = ApproximateReach(encoding, block_size=1, overlap=0)
        result = approx.run(encoding.initial_states())
        # Each toggle visits both values; the product is exact here.
        images = ImageComputer(encoding)
        exact = forward_reach(images, encoding.initial_states())
        assert result.over_approximation() == exact.reached

    def test_unknown_block_register_rejected(self):
        c, _ = saturating_counter_circuit()
        encoding = SymbolicEncoding(c)
        with pytest.raises(ValueError):
            ApproximateReach(encoding, blocks=[["ghost"]])

    def test_proves_unreachable_target(self):
        c, prop = saturating_counter_circuit()
        encoding = SymbolicEncoding(c)
        target = encoding.state_cube(dict(prop.target))
        result = approximate_check(encoding, target, block_size=64)
        assert result.outcome is ApproxOutcome.PROVED

    def test_undecided_when_blocks_too_small(self):
        """With one-variable blocks the counter constraint is lost and the
        bad value looks reachable: the method must answer UNDECIDED, never
        a wrong FALSE."""
        c, prop = saturating_counter_circuit()
        encoding = SymbolicEncoding(c)
        target = encoding.state_cube(dict(prop.target))
        result = approximate_check(
            encoding, target, block_size=1, overlap=0
        )
        assert result.outcome is ApproxOutcome.UNDECIDED

    def test_time_limit(self):
        c, prop = saturating_counter_circuit()
        encoding = SymbolicEncoding(c)
        approx = ApproximateReach(encoding, block_size=2, overlap=1)
        result = approx.run(
            encoding.initial_states(),
            limits=ReachLimits(budget=Budget(max_seconds=0.0)),
        )
        assert result.outcome is ApproxOutcome.RESOURCE_OUT


class TestRfnIntegration:
    def test_rfn_with_approx_first_verifies(self):
        c, prop = saturating_counter_circuit()
        config = RfnConfig(approx_block_size=3, approx_overlap=1)
        result = RFN(c, prop, config).run()
        assert result.status is Verdict.VERIFIED

    def test_approx_proof_recorded(self):
        """When the partitioned traversal proves the refined model, the
        iteration record says so."""
        c, prop = saturating_counter_circuit()
        config = RfnConfig(approx_block_size=3, approx_overlap=2)
        result = RFN(c, prop, config).run()
        assert result.status is Verdict.VERIFIED
        outcomes = {it.reach_outcome for it in result.iterations}
        assert outcomes & {"approx_proved", "fixpoint"}
