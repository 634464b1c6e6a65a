"""Two-phase refinement: crucial-register identification (Step 4).

Phase 1 -- *3-valued simulation*: replay the abstract error trace
step-by-step on the original design with every unassigned register and
input at X.  A register whose simulated value conflicts with the trace's
assignment (X conflicts with nothing) is a crucial-register candidate:
adding its fanin cone to the abstract model would force the trace's value
to disagree, invalidating the trace.  When the trace is used for the next
step, conflicting values are overridden with the trace's values
(Section 2.4).  If no conflict appears (rare), the registers the trace
assigns most frequently become the candidates.

Phase 2 -- *greedy sequential-ATPG minimization*: add candidates one at a
time to the abstract model until sequential ATPG reports the trace
unsatisfiable on the refined model, discard the untouched rest, then try
to remove each earlier addition, keeping it out only if the trace stays
unsatisfiable.  If ATPG ever aborts on its budget, fail safe by keeping
all candidates.  Every probe of one refinement step runs on a single SAT
instance (:class:`CandidateProbe`) in which an activation literal per
candidate decides whether that register belongs to the probed model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.atpg.engine import (
    AtpgBudget,
    AtpgOutcome,
    check_trace,
    sequential_atpg,
)
from repro.core.abstraction import Abstraction
from repro.kernel.bitsim import BitParallelSimulator, pack_value, planes_value
from repro.kernel.perf import PERF
from repro.kernel.scache import solver_session
from repro.obs import tracer as obs
from repro.sat.solver import SatStatus
from repro.trace import Trace
from repro.netlist.circuit import Circuit
from repro.netlist.ops import combinational_cone
from repro.sim.logic3 import X


@dataclass
class RefinementStats:
    candidates: int = 0
    selected: int = 0
    atpg_calls: int = 0
    conflicts_found: bool = True
    minimized: bool = False


@dataclass
class RefinementResult:
    registers: List[str]
    stats: RefinementStats = field(default_factory=RefinementStats)


def crucial_register_candidates(
    abstraction: Abstraction,
    trace: Trace,
    fallback_count: int = 8,
    runtime=None,
) -> RefinementResult:
    """Phase 1: 3-valued simulation of the abstract error trace on the
    original design; conflicting registers outside the abstract model are
    the candidates, ordered by conflict count (then first conflict).

    ``runtime`` is an optional :class:`repro.runtime.Budget` whose
    checkpoint is threaded into the kernel replay."""
    original = abstraction.original
    model = abstraction.model
    sim = BitParallelSimulator(original)
    if runtime is not None:
        sim.checkpoint = runtime.hook("refine")

    conflict_count: Dict[str, int] = {}
    first_conflict: Dict[str, int] = {}

    # Single-lane 3-valued replay on the compiled kernel: every register
    # starts at X except those the trace's first cube assigns.
    state = {name: pack_value(X, 1) for name in original.registers}
    with obs.span("kernel.replay"):
        for name, value in trace.cube_at(0).items():
            if original.is_register_output(name):
                state[name] = pack_value(value, 1)
        for cycle in range(trace.length):
            cube = trace.cube_at(cycle)
            register_cube = {
                name: value
                for name, value in cube.items()
                if original.is_register_output(name)
            }
            for name, expected in register_cube.items():
                actual = planes_value(state[name], 0)
                if actual != X and actual != expected:
                    conflict_count[name] = conflict_count.get(name, 0) + 1
                    first_conflict.setdefault(name, cycle)
            # Use the trace's values from here on (override conflicts and
            # fill in unknowns) and drive the primary inputs from the trace.
            drive = {
                name: pack_value(value, 1)
                for name, value in register_cube.items()
            }
            drive.update(
                {
                    name: pack_value(value, 1)
                    for name, value in cube.items()
                    if original.is_input(name)
                }
            )
            frame = sim.evaluate(state, drive, 1)
            state = sim.next_state(frame)

    in_model = set(model.registers)
    candidates = [
        name for name in conflict_count if name not in in_model
    ]
    candidates.sort(
        key=lambda n: (-conflict_count[n], first_conflict[n], n)
    )
    stats = RefinementStats(candidates=len(candidates))
    if not candidates:
        # Rare per the paper: no conflicts.  Fall back to the registers the
        # trace assigns most often (among pseudo-inputs of the model).
        stats.conflicts_found = False
        frequency = trace.assigned_signals()
        pseudo = [
            name
            for name in abstraction.pseudo_input_registers()
            if name in frequency
        ]
        pseudo.sort(key=lambda n: (-frequency[n], n))
        candidates = pseudo[:fallback_count]
        stats.candidates = len(candidates)
    return RefinementResult(registers=candidates, stats=stats)


def trace_satisfiable_on(
    model: Circuit,
    trace: Trace,
    budget: Optional[AtpgBudget] = None,
) -> AtpgOutcome:
    """Is the error trace (as per-cycle constraint cubes) satisfiable on a
    candidate abstract model?  Three-way ATPG answer."""
    cubes = {
        cycle: {
            name: value
            for name, value in trace.cube_at(cycle).items()
            if model.is_defined(name)
        }
        for cycle in range(trace.length)
    }
    result = sequential_atpg(
        model,
        trace.length,
        cubes,
        budget=budget,
        skip_missing=True,
    )
    return result.outcome


def _defined_among(
    circuit: Circuit, roots: Sequence[str], signals: Set[str]
) -> Set[str]:
    """The members of ``signals`` that a model extracted with cone roots
    ``roots`` defines as an input or a gate: the non-gate support of the
    roots (:func:`~repro.netlist.ops.extract_subcircuit`'s boundary) and
    the gates of their combinational cone."""
    found: Set[str] = set()
    for root in roots:
        found |= signals.intersection(circuit.support_of_signal(root))
    if any(circuit.is_gate_output(name) for name in signals):
        found |= signals.intersection(combinational_cone(circuit, roots))
    return found


class CandidateProbe:
    """Step 4's trace-satisfiability probes on one SAT instance.

    :meth:`outcome` answers ``trace_satisfiable_on(
    abstraction.with_registers(S), trace)`` for any ``S`` within
    ``candidates`` without extracting that model.  The instance unrolls
    the *union model* -- the kept registers plus every candidate -- once,
    with each candidate's frame connections and initial value guarded by
    an activation literal (Een-Mishchenko-Amla's abstraction literals,
    arXiv:1008.2021): a candidate assumed inactive is a free input at
    every frame, which is what ``with_registers(S)`` makes of a candidate
    outside ``S``.  The union model's remaining logic (the fanin cones of
    inactive candidates) only drives unconstrained signals, and a probe
    asserts exactly the cube literals the per-model query asserts -- the
    trace's signals that ``with_registers(S)`` defines -- so each probe
    has the per-model answer while learned clauses carry over between
    probes.  A SAT answer is replayed on the kernel simulator before it
    is believed.
    """

    def __init__(
        self,
        abstraction: Abstraction,
        trace: Trace,
        candidates: Sequence[str],
        budget: Optional[AtpgBudget] = None,
    ) -> None:
        kept = abstraction.kept_registers
        candidates = list(dict.fromkeys(candidates))
        guarded = [name for name in candidates if name not in kept]
        self.model = abstraction.with_registers(candidates)
        self.budget = budget or AtpgBudget()
        self.cycles = trace.length
        self.session = solver_session(self.model, self.cycles, guarded=guarded)
        unroller = self.session.unroller
        #: (cycle, signal, value, literal) for every cube entry the union
        #: model can encode, in trace order
        self._cube: List[Tuple[int, str, int, int]] = [
            (cycle, name, value, unroller.lit(name, cycle, value))
            for cycle in range(self.cycles)
            for name, value in trace.cube_at(cycle).items()
            if self.model.is_defined(name)
        ]
        signals = {name for _, name, _, _ in self._cube}
        original = abstraction.original
        registers = original.registers
        roots = list(abstraction.prop.signals())
        #: cube signals every probed model defines
        self._base = signals.intersection(kept) | _defined_among(
            original, roots + [registers[r].data for r in kept], signals
        )
        #: cube signals a candidate's register and fanin cone add
        self._brings: Dict[str, Set[str]] = {
            name: signals.intersection((name,))
            | _defined_among(original, [registers[name].data], signals)
            for name in candidates
        }

    def outcome(self, registers: Iterable[str]) -> AtpgOutcome:
        """The three-way ATPG answer for ``with_registers(registers)``."""
        active = set(registers)
        defined = set(self._base)
        for name in active:
            defined |= self._brings[name]
        activation = self.session.unroller.activation
        assumptions = [
            act if name in active else -act
            for name, act in activation.items()
        ]
        asserted = [entry for entry in self._cube if entry[1] in defined]
        assumptions.extend(lit for _, _, _, lit in asserted)
        with obs.span("refine.probe", registers=len(active)) as phase:
            result = self.session.solve(
                assumptions, **self.budget.solve_kwargs()
            )
            if result.status is SatStatus.UNSAT:
                outcome = AtpgOutcome.UNSATISFIABLE
            elif result.status is SatStatus.UNKNOWN:
                outcome = AtpgOutcome.ABORTED
            else:
                outcome = AtpgOutcome.TRACE_FOUND
                self._check(result.model, active, asserted)
            phase.set(
                result=outcome.value,
                conflicts=result.conflicts,
                decisions=result.decisions,
            )
        PERF.gauge("atpg.conflicts", result.conflicts)
        return outcome

    def _check(
        self,
        model: Dict[int, bool],
        active: Set[str],
        asserted: List[Tuple[int, str, int, int]],
    ) -> None:
        """Replay a SAT answer on the union model -- inputs and inactive
        candidates driven from the model, active registers latched --
        and assert that every register value and every asserted cube
        entry holds."""
        unroller = self.session.unroller
        trace = Trace(circuit_name=self.model.name)
        for cycle in range(self.cycles):
            trace.append_cycle(
                unroller.decode_state(model, cycle),
                unroller.decode_inputs(model, cycle),
            )
        cubes: Dict[int, Dict[str, int]] = {}
        for cycle, name, value, _ in asserted:
            cubes.setdefault(cycle, {})[name] = value
        inactive = [name for name in unroller.activation if name not in active]
        check_trace(self.model, trace, cubes, driven=inactive)


def minimize_candidates(
    abstraction: Abstraction,
    trace: Trace,
    candidates: Sequence[str],
    budget: Optional[AtpgBudget] = None,
) -> RefinementResult:
    """Phase 2: the greedy add-until-unsatisfiable / try-remove loop.

    Every add and remove probe is one assumption query on a single
    :class:`CandidateProbe` instance built for this refinement step."""
    stats = RefinementStats(candidates=len(candidates), minimized=True)
    if not candidates:
        return RefinementResult([], stats)
    probe = CandidateProbe(abstraction, trace, candidates, budget)
    added: List[str] = []
    unsatisfiable = False
    runtime = budget.runtime if budget is not None else None
    for register in candidates:
        if runtime is not None:
            runtime.checkpoint(engine="refine")
        added.append(register)
        stats.atpg_calls += 1
        outcome = probe.outcome(added)
        if outcome is AtpgOutcome.UNSATISFIABLE:
            unsatisfiable = True
            break
        if outcome is AtpgOutcome.ABORTED:
            # Paper: without a definitive answer, keep every candidate.
            stats.selected = len(candidates)
            return RefinementResult(list(candidates), stats)
    if not unsatisfiable:
        stats.selected = len(added)
        return RefinementResult(added, stats)
    # Removal pass over all but the last-added register.
    kept = list(added)
    for register in added[:-1]:
        if runtime is not None:
            runtime.checkpoint(engine="refine")
        tentative = [r for r in kept if r != register]
        stats.atpg_calls += 1
        outcome = probe.outcome(tentative)
        if outcome is AtpgOutcome.UNSATISFIABLE:
            kept = tentative  # still invalid without it: drop for good
    stats.selected = len(kept)
    return RefinementResult(kept, stats)


def refine_from_trace(
    abstraction: Abstraction,
    trace: Trace,
    budget: Optional[AtpgBudget] = None,
    minimize: bool = True,
    fallback_count: int = 8,
) -> RefinementResult:
    """The full Step 4: phase-1 candidates, then phase-2 minimization."""
    phase1 = crucial_register_candidates(
        abstraction,
        trace,
        fallback_count=fallback_count,
        runtime=budget.runtime if budget is not None else None,
    )
    if not phase1.registers:
        return phase1
    if not minimize:
        phase1.stats.selected = len(phase1.registers)
        return phase1
    result = minimize_candidates(
        abstraction, trace, phase1.registers, budget=budget
    )
    result.stats.conflicts_found = phase1.stats.conflicts_found
    result.stats.candidates = phase1.stats.candidates
    return result
