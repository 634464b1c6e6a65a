"""Shared test fixtures: the standard small designs, a seeded RNG, and
the cross-engine agreement helper.

The design builders used to be copy-pasted across test modules; they
live here now, as plain importable functions (``from tests.conftest
import toggle_design``) so non-fixture call sites -- parametrized
builders, benchmarks, the fuzz corpus tests -- can reuse them too.
Each returns a validated ``(circuit, property)`` pair.
"""

import random

import pytest

from repro.core import watchdog_property
from repro.core.property import UnreachabilityProperty
from repro.netlist import Circuit
from repro.netlist.words import (
    WordReg,
    w_eq_const,
    w_inc,
    w_mux,
    word_const,
)


# --------------------------------------------------------------------
# Standard small designs
# --------------------------------------------------------------------

def toggle_design():
    """True property needing one conflict-driven refinement."""
    c = Circuit("tog")
    x = c.add_register("xd", init=0, output="x")
    c.g_not(x, output="xd")
    xprev = c.add_register(x, init=0, output="xprev")
    bad = c.g_and(x, xprev, output="bad")
    prop = watchdog_property(c, bad, "two_high")
    c.validate()
    return c, prop


def chain_design(depth=5):
    """True property: a constant-0 pipeline can never raise its tap."""
    c = Circuit("chain")
    zero = c.g_const(0, output="zero")
    prev = c.add_register(zero, output="r1")
    for i in range(2, depth + 1):
        prev = c.add_register(prev, output=f"r{i}")
    prop = watchdog_property(c, prev, "tap_high")
    c.validate()
    return c, prop


def buggy_counter(width=4, bad_value=9):
    """False property: the counter does reach the bad value."""
    c = Circuit("cnt")
    cnt = WordReg(c, "cnt", width, init=0)
    nxt, _ = w_inc(c, cnt.q)
    cnt.drive(nxt)
    bad = w_eq_const(c, cnt.q, bad_value)
    prop = watchdog_property(c, bad, "cnt_bad")
    c.validate()
    return c, prop


def free_counter_with_bad(width=3, bad_value=5):
    """False property: a free-running counter hits ``bad_value``."""
    c = Circuit("cnt")
    cnt = WordReg(c, "cnt", width, init=0)
    nxt, _ = w_inc(c, cnt.q)
    cnt.drive(nxt)
    prop = watchdog_property(c, w_eq_const(c, cnt.q, bad_value), "hit")
    c.validate()
    return c, prop


def saturating_counter(width=3, ceiling=5, name="overflow"):
    """True property: the counter saturates at ``ceiling`` and can never
    reach ``ceiling + 2``."""
    c = Circuit("sat")
    cnt = WordReg(c, "cnt", width, init=0)
    nxt, _ = w_inc(c, cnt.q)
    stop = w_eq_const(c, cnt.q, ceiling)
    cnt.drive([c.g_mux(stop, n, q) for n, q in zip(nxt, cnt.q)])
    bad = w_eq_const(c, cnt.q, ceiling + 2)
    prop = watchdog_property(c, bad, name)
    c.validate()
    return c, prop


def unreachable_lasso():
    """Reachable cycle 0->1->2->0; unreachable lasso {4,5} that can jump
    to the bad state 6.  Plain k-induction can never prove q != 6; the
    simple-path (unique states) variant closes it."""
    c = Circuit("lasso")
    jump = c.add_input("jump")
    q = WordReg(c, "q", 3, init=0)

    def const3(v):
        return word_const(c, v, 3)

    nxt = const3(1)
    for current, target in ((1, 2), (2, 0), (3, 0), (6, 6), (7, 7)):
        nxt = w_mux(c, w_eq_const(c, q.q, current), nxt, const3(target))
    nxt = w_mux(c, w_eq_const(c, q.q, 4), nxt, const3(5))
    five_next = w_mux(c, jump, const3(4), const3(6))
    nxt = w_mux(c, w_eq_const(c, q.q, 5), nxt, five_next)
    q.drive(nxt)
    prop = UnreachabilityProperty("no_six", {
        "q[0]": 0, "q[1]": 1, "q[2]": 1,
    })
    c.validate()
    return c, prop


def padded(design_fn, pads=30):
    """Wrap a design with an island of irrelevant registers, bloating the
    raw register count the way the paper's real-world designs do."""
    c, prop = design_fn()
    for i in range(pads):
        c.add_register(c.add_input(f"pad_in{i}"), output=f"pad{i}")
    c.validate()
    return c, prop


# --------------------------------------------------------------------
# Fixtures
# --------------------------------------------------------------------

@pytest.fixture
def rng(request):
    """A fresh seeded ``random.Random``.  Default seed 0; parametrize
    with ``@pytest.mark.parametrize("rng", [7], indirect=True)`` for a
    different stream."""
    seed = getattr(request, "param", 0)
    return random.Random(seed)


@pytest.fixture
def toggle():
    return toggle_design()


@pytest.fixture
def sat_counter():
    return saturating_counter()


# --------------------------------------------------------------------
# Cross-engine agreement
# --------------------------------------------------------------------

def assert_engines_agree(circuit, prop, engines=None):
    """Run the differential oracle on ``(circuit, prop)`` and fail the
    test on any engine disagreement, failed certificate, or engine
    crash.  Returns the :class:`~repro.fuzz.oracle.OracleReport` so
    callers can additionally assert on the consensus verdict."""
    from repro.fuzz.oracle import run_oracle

    report = run_oracle(circuit, prop, engines=engines)
    assert report.ok, report.summary()
    return report
