"""One time limit: ``Limits(max_seconds=s)`` and
``Limits(budget=Budget(max_seconds=s))`` stop every registered engine at
the same point.

``Engine.run`` turns the float into the run's ``Budget``; below it the
engines poll only that budget (per solver call, unrolling depth,
fixpoint step, BDD allocation burst and CEGAR iteration).  So both
spellings give the same verdict, and an engine that cannot answer
within ``s`` stops within a small multiple of it -- including ``atpg``
on the FIFO, whose per-depth solves each end well inside the deadline,
and ``bdd`` on the processor, whose transition-relation build alone
outlasts it.
"""

import time

import pytest

from repro.designs import table1_workloads
from repro.engine import (
    FunctionEngine,
    Limits,
    Verdict,
    VerifyResult,
    registry,
)
from repro.runtime import Budget

from tests.conftest import toggle_design

SECONDS = 0.5
#: an engine cut short by SECONDS returns within this: the polling
#: granularity plus the unwind, far below what a run to completion takes
STOP_WITHIN = 1.5

#: engine -> (CI-scale Table 1 workload, seconds, verdict under both
#: spellings).  The first four cannot answer in SECONDS (psh_full and
#: mutex hold, so the falsifiers never answer; bdd cannot even build
#: mutex's transition relation in time; the kernel's state sweep of the
#: FIFO is longer); the last two prove psh_full well inside their limit.
CASES = {
    "atpg": ("psh_full", SECONDS, Verdict.UNKNOWN),
    "bdd": ("mutex", SECONDS, Verdict.UNKNOWN),
    "bmc": ("psh_full", SECONDS, Verdict.UNKNOWN),
    "kernel": ("psh_full", SECONDS, Verdict.UNKNOWN),
    "kinduction": ("psh_full", 30.0, Verdict.VERIFIED),
    "rfn": ("psh_full", 30.0, Verdict.VERIFIED),
}


@pytest.fixture(scope="module")
def workloads():
    return {w.name: w for w in table1_workloads(paper_scale=False)}


def test_cases_cover_every_registered_engine():
    assert sorted(CASES) == sorted(registry.names())


@pytest.mark.parametrize("engine", sorted(CASES))
def test_float_and_budget_spellings_stop_alike(workloads, engine):
    name, seconds, expected = CASES[engine]
    workload = workloads[name]
    # Built per run: a Budget's clock starts when it is constructed.
    for spell in (
        lambda: Limits(max_seconds=seconds),
        lambda: Limits(budget=Budget(max_seconds=seconds)),
    ):
        limits = spell()
        start = time.monotonic()
        result = registry.get(engine).run(
            workload.circuit, workload.prop, limits
        )
        elapsed = time.monotonic() - start
        assert result.verdict is expected, (limits, result.detail)
        if seconds == SECONDS:
            assert elapsed < STOP_WITHIN, (limits, elapsed, result.detail)


def test_bdd_node_cap_stops_the_build(workloads):
    # Table 1's baseline cap: mutex's transition relation alone needs
    # more than 4x the 60k-node cap, so the bdd engine gives up inside
    # the build, before its first image step.
    workload = workloads["mutex"]
    result = registry.get("bdd").run(
        workload.circuit, workload.prop, Limits(max_bdd_nodes=60_000)
    )
    assert result.verdict is Verdict.UNKNOWN
    assert result.detail == (
        "reachability resource limit "
        "(nodes, building the transition relation)"
    )


def _seen_limits():
    """An engine that records the limits its body receives."""
    seen = []

    def body(circuit, prop, limits) -> VerifyResult:
        seen.append(limits)
        return VerifyResult(engine="probe")

    return FunctionEngine("probe", body), seen


def test_max_seconds_becomes_the_run_budget():
    engine, seen = _seen_limits()
    circuit, prop = toggle_design()
    engine.run(circuit, prop, Limits(max_seconds=7.0, max_conflicts=5))
    (limits,) = seen
    assert limits.max_seconds is None  # no float below Engine.run
    assert limits.budget.max_seconds == 7.0
    # Time only: the conflict cap stays the adapters' per-solve cap.
    assert limits.max_conflicts == 5
    assert limits.budget.max_conflicts is None


def test_max_seconds_budget_is_a_child_of_the_given_budget():
    engine, seen = _seen_limits()
    circuit, prop = toggle_design()
    parent = Budget(max_seconds=0.0, max_bdd_nodes=100, max_memory_mb=1e6)
    engine.run(circuit, prop, Limits(max_seconds=30.0, budget=parent))
    (limits,) = seen
    child = limits.budget
    assert child.parent is parent
    assert child.expired()  # the parent's deadline still binds
    assert child.max_bdd_nodes == 100
    assert child.max_memory_mb == 1e6
    child.charge(conflicts=3, enforce=False)
    assert parent.conflicts == 3


def test_no_time_limit_builds_no_budget():
    engine, seen = _seen_limits()
    circuit, prop = toggle_design()
    engine.run(circuit, prop, Limits(max_depth=3))
    (limits,) = seen
    assert limits.budget is None
