"""Single-instance refinement probes agree with per-model probes.

Step 4's greedy minimization answers every add and remove probe of one
refinement step on a single SAT instance: the union model (kept
registers plus every candidate) with one activation literal per
candidate.  These tests audit every refinement step RFN takes on the
five Table 1 properties and on the refining instances of a 150-seed
fuzz sweep (both polarities):

- every probe's outcome equals the per-model reference: the trace's
  cubes asserted on ``abstraction.with_registers(S)`` in a fresh,
  unpooled solver session;
- ``minimize_candidates`` returns the registers the per-model greedy
  loop returns.

They also pin the building blocks: guarded registers in ``Unroller``,
the guarded set in the session-pool key, and the ``coi_model`` memo.
"""

import pytest

import repro.core.refine as refine_mod
from repro.atpg.encode import SolverSession, Unroller
from repro.atpg.engine import AtpgBudget, AtpgOutcome, check_trace
from repro.core import RFN, RfnConfig
from repro.core.abstraction import Abstraction
from repro.core.refine import CandidateProbe, minimize_candidates
from repro.designs import table1_workloads
from repro.engine import Verdict
from repro.fuzz import generate_instance
from repro.kernel.scache import (
    clear_caches,
    coi_model,
    fingerprint,
    solver_session,
)
from repro.netlist.ops import coi_registers, extract_subcircuit
from repro.sat.solver import SatStatus
from repro.trace import Trace
from tests.conftest import chain_design

FUZZ_SEEDS = range(150)
MIN_REFINING_SEEDS = 25


_OUTCOMES = {
    SatStatus.SAT: AtpgOutcome.TRACE_FOUND,
    SatStatus.UNSAT: AtpgOutcome.UNSATISFIABLE,
    SatStatus.UNKNOWN: AtpgOutcome.ABORTED,
}


def reference_outcome(abstraction, trace, registers):
    """The per-model probe: the trace's cubes on with_registers(S), in a
    fresh session outside the pool, under the default ATPG budget; a SAT
    answer is replayed on the kernel simulator."""
    model = abstraction.with_registers(registers)
    session = SolverSession(model, trace.length)
    unroller = session.unroller
    cubes = {
        cycle: {
            name: value
            for name, value in trace.cube_at(cycle).items()
            if model.is_defined(name)
        }
        for cycle in range(trace.length)
    }
    result = session.solve(
        [
            unroller.lit(name, cycle, value)
            for cycle, cube in cubes.items()
            for name, value in cube.items()
        ],
        **AtpgBudget().solve_kwargs(),
    )
    if result.status is SatStatus.SAT:
        found = Trace(circuit_name=model.name)
        for cycle in range(trace.length):
            found.append_cycle(
                unroller.decode_state(result.model, cycle),
                unroller.decode_inputs(result.model, cycle),
            )
        check_trace(model, found, cubes)
    return _OUTCOMES[result.status]


def per_model_greedy(abstraction, trace, candidates):
    """Section 2.4's greedy loop, one extracted model per probe."""
    added = []
    for register in candidates:
        added.append(register)
        outcome = reference_outcome(abstraction, trace, added)
        if outcome is AtpgOutcome.UNSATISFIABLE:
            break
        if outcome is AtpgOutcome.ABORTED:
            return list(candidates)
    else:
        return added
    kept = list(added)
    for register in added[:-1]:
        tentative = [r for r in kept if r != register]
        if (
            reference_outcome(abstraction, trace, tentative)
            is AtpgOutcome.UNSATISFIABLE
        ):
            kept = tentative
    return kept


class ProbeAudit:
    """Wraps ``minimize_candidates`` and ``CandidateProbe.outcome`` for
    the length of an RFN run and checks every probe and every step
    against the per-model answers."""

    def __init__(self, monkeypatch):
        self.steps = 0
        self.probes = 0
        self.step = None  # (abstraction, trace) of the step in progress
        real_minimize = refine_mod.minimize_candidates
        real_outcome = CandidateProbe.outcome

        def outcome(probe, registers):
            registers = list(registers)
            got = real_outcome(probe, registers)
            want = reference_outcome(*self.step, registers)
            assert got is want, (registers, got, want)
            self.probes += 1
            return got

        def minimize(abstraction, trace, candidates, budget=None):
            self.step = (abstraction, trace)
            result = real_minimize(
                abstraction, trace, candidates, budget=budget
            )
            greedy = per_model_greedy(abstraction, trace, candidates)
            assert result.registers == greedy, (candidates, greedy)
            self.steps += 1
            return result

        monkeypatch.setattr(CandidateProbe, "outcome", outcome)
        monkeypatch.setattr(refine_mod, "minimize_candidates", minimize)


@pytest.mark.parametrize(
    "workload",
    table1_workloads(paper_scale=False),
    ids=lambda w: w.name,
)
def test_table1_probes_match_per_model(monkeypatch, workload):
    clear_caches()
    audit = ProbeAudit(monkeypatch)
    result = RFN(workload.circuit, workload.prop, RfnConfig()).run()
    expected = Verdict.VERIFIED if workload.expected else Verdict.FALSIFIED
    assert result.status is expected
    assert audit.steps >= 1
    assert audit.probes >= audit.steps


def test_fuzz_probes_match_per_model(monkeypatch):
    audit = ProbeAudit(monkeypatch)
    refining = {}
    for seed in FUZZ_SEEDS:
        instance = generate_instance(seed)
        before = audit.steps
        result = RFN(instance.circuit, instance.prop, RfnConfig()).run()
        if audit.steps > before:
            refining[seed] = result.status
    assert len(refining) >= MIN_REFINING_SEEDS, sorted(refining)
    polarities = set(refining.values())
    assert {Verdict.VERIFIED, Verdict.FALSIFIED} <= polarities


def chain_abstraction():
    circuit, prop = chain_design(depth=4)
    abstraction = Abstraction.initial(circuit, prop)
    wd = prop.signals()[0]
    trace = Trace(states=[{wd: 0}, {wd: 1}], inputs=[{"r4": 1}, {}])
    return abstraction, trace


class TestCandidateProbe:
    @pytest.mark.parametrize("outside", [{}, {"zero": 1, "r2": 1}])
    def test_probe_matches_reference_on_every_subset(self, outside):
        """Also with cube entries outside the abstract model: ``zero``
        (r1's constant-0 data gate) and ``r2`` are defined only in some
        candidate models, so only those probes may assert them."""
        abstraction, trace = chain_abstraction()
        trace.inputs[0].update(outside)
        candidates = ["r1", "r2", "r3", "r4"]
        probe = CandidateProbe(abstraction, trace, candidates)
        for mask in range(1 << len(candidates)):
            subset = [
                name
                for bit, name in enumerate(candidates)
                if mask >> bit & 1
            ]
            assert probe.outcome(subset) is reference_outcome(
                abstraction, trace, subset
            ), subset

    def test_one_union_session_per_step(self, monkeypatch):
        clear_caches()
        abstraction, trace = chain_abstraction()
        created = []
        real_init = SolverSession.__init__

        def counting(self, *args, **kwargs):
            created.append(kwargs.get("guarded", ()))
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(SolverSession, "__init__", counting)
        result = minimize_candidates(abstraction, trace, ["r1", "r2", "r4"])
        assert result.registers == ["r4"]
        assert created == [("r1", "r2", "r4")]
        # A retry of the step probes on the pooled union session.
        probe = CandidateProbe(abstraction, trace, ["r1", "r2", "r4"])
        assert created == [("r1", "r2", "r4")]
        assert probe.outcome(["r4"]) is AtpgOutcome.UNSATISFIABLE
        assert probe.outcome([]) is AtpgOutcome.TRACE_FOUND

    def test_sat_answers_are_replayed(self, monkeypatch):
        """A model whose active register disagrees with its data input
        one cycle earlier is an encoding bug, not a trace."""
        clear_caches()
        abstraction, trace = chain_abstraction()
        probe = CandidateProbe(abstraction, trace, ["r2", "r3", "r4"])
        real_solve = probe.session.solve
        flipped = probe.session.unroller.lit("r3", 1)

        def corrupted(assumptions, **kwargs):
            result = real_solve(assumptions, **kwargs)
            result.model[flipped] = not result.model[flipped]
            return result

        assert probe.outcome(["r3"]) is AtpgOutcome.TRACE_FOUND
        monkeypatch.setattr(probe.session, "solve", corrupted)
        with pytest.raises(AssertionError, match="trace/simulation mismatch"):
            probe.outcome(["r3"])


class TestGuardedUnroller:
    def test_inactive_register_is_free(self):
        """r4 (init 0) may be 1 at cycle 0 only while it is disabled."""
        circuit, _ = chain_design(depth=4)
        session = SolverSession(circuit, 2, guarded=["r4"])
        act = session.unroller.activation["r4"]
        high = session.unroller.lit("r4", 0)
        assert session.solve([-act, high]).status is SatStatus.SAT
        assert session.solve([act, high]).status is SatStatus.UNSAT
        plain = SolverSession(circuit, 2)
        assert plain.solve([high]).status is SatStatus.UNSAT

    def test_inactive_register_drops_its_transition(self):
        """Disabled, r2 may differ from r1's previous value."""
        circuit, _ = chain_design(depth=4)
        session = SolverSession(
            circuit, 3, use_initial_state=False, guarded=["r2"]
        )
        unroller = session.unroller
        act = unroller.activation["r2"]
        split = [unroller.lit("r1", 0), -unroller.lit("r2", 1)]
        assert session.solve([-act] + split).status is SatStatus.SAT
        assert session.solve([act] + split).status is SatStatus.UNSAT
        # Frames appended later are guarded too (r1 is 0 from frame 1).
        session.ensure_depth(5)
        late = [-unroller.lit("r1", 3), unroller.lit("r2", 4)]
        assert session.solve([-act] + late).status is SatStatus.SAT
        assert session.solve([act] + late).status is SatStatus.UNSAT

    def test_guarded_must_name_registers(self):
        circuit, _ = chain_design(depth=4)
        with pytest.raises(ValueError):
            Unroller(circuit, 1, guarded=["zero"])

    def test_guarded_set_joins_the_pool_key(self):
        clear_caches()
        circuit, _ = chain_design(depth=4)
        plain = solver_session(circuit, 2)
        guarded = solver_session(circuit, 2, guarded=["r2", "r1"])
        assert guarded is not plain
        assert solver_session(circuit, 2, guarded=["r1", "r2"]) is guarded
        assert solver_session(circuit, 2, guarded=["r1"]) is not guarded
        assert sorted(guarded.unroller.activation) == ["r1", "r2"]


class TestCoiModel:
    def test_memoized_per_circuit(self):
        clear_caches()
        circuit, prop = chain_design(depth=4)
        first = coi_model(circuit, prop.signals())
        assert coi_model(circuit, prop.signals()) is first
        fresh = extract_subcircuit(
            circuit,
            coi_registers(circuit, prop.signals()),
            prop.signals(),
            name=f"{circuit.name}.coi",
        )
        assert first.name == fresh.name
        assert fingerprint(first) == fingerprint(fresh)

    def test_mutation_invalidates(self):
        clear_caches()
        circuit, prop = chain_design(depth=4)
        first = coi_model(circuit, prop.signals())
        circuit.add_input("late")
        assert coi_model(circuit, prop.signals()) is not first
