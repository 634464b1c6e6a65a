"""Abstract-trace-guided search for concrete error traces (Step 3).

RFN never runs symbolic image computation on the original design.  To
falsify a property it instead:

1. checks whether the abstract error trace is already concrete (only
   assigns primary inputs of the original design) -- then a cheap
   simulation replay settles it;
2. otherwise runs *guided* sequential ATPG on the (COI-reduced) original
   design: the abstract trace's length bounds the search depth (the
   shortest concrete error trace can only be longer) and its cycle cubes
   become per-cycle constraint cubes that prune the ATPG search --
   "sequential ATPG with guidance can search for an order of magnitude
   more cycles" (Section 2.3).

The future-work extension of Section 5 (guiding with a *set* of traces)
is supported: pass several candidate traces and each is tried in turn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence

from repro.atpg.engine import AtpgBudget, AtpgOutcome, sequential_atpg
from repro.core.property import UnreachabilityProperty
from repro.kernel.bitsim import BitParallelSimulator
from repro.kernel.scache import coi_model
from repro.trace import Trace
from repro.netlist.circuit import Circuit


@dataclass
class GuidedSearchResult:
    found: bool
    trace: Optional[Trace] = None
    method: str = ""  # "direct-replay" | "guided-atpg" | "unguided-atpg"
    outcome: Optional[AtpgOutcome] = None
    conflicts: int = 0


def trace_is_concrete(original: Circuit, trace: Trace) -> bool:
    """Does the abstract trace assign only primary inputs of the original
    design?  (Then it is already an input sequence for the original,
    Section 2.3.)"""
    return all(
        original.is_input(sig)
        for cycle in range(trace.length)
        for sig in trace.cube_at(cycle)
    )


def replay_trace(
    original: Circuit,
    prop: UnreachabilityProperty,
    trace: Trace,
) -> Optional[Trace]:
    """Simulate the trace's input cubes on the original design from reset;
    returns a concrete error trace if a bad state is visited.

    Unassigned inputs are driven to 0 (any completion of a concrete input
    trace is as good as another for replay purposes); the check itself is
    a plain 2-valued simulation.
    """
    return _drive_inputs(original, trace, {}, prop)


def guided_concrete_search(
    original: Circuit,
    prop: UnreachabilityProperty,
    traces: Sequence[Trace],
    budget: Optional[AtpgBudget] = None,
    use_guidance: bool = True,
    extra_depth: int = 0,
    max_gate_frames: Optional[int] = None,
) -> GuidedSearchResult:
    """Step 3: search for an error trace on the original design.

    ``traces`` are abstract error traces, most promising first.  With
    ``use_guidance`` disabled the ATPG runs with only the depth bound
    (the ablation baseline for the guidance claim).

    ``max_gate_frames`` caps the unrolled instance size (COI gates x
    depth) handed to sequential ATPG; beyond it only the cheap replay
    path runs.  This keeps paper-scale designs (tens of thousands of COI
    gates) moving through the CEGAR loop instead of stalling in one
    enormous SAT instance -- their bugs are still found once the abstract
    trace becomes concrete enough to replay.
    """
    budget = budget or AtpgBudget()
    reduced = coi_model(original, prop.signals())
    total_conflicts = 0
    result = None
    for trace in traces:
        if budget.runtime is not None:
            budget.runtime.checkpoint(engine="guided")
        # Cheap path first: direct replay of concrete traces.
        concrete = replay_trace(original, prop, trace)
        if concrete is not None:
            return GuidedSearchResult(
                True, trace=concrete, method="direct-replay"
            )
        depth = trace.length + extra_depth
        if (
            max_gate_frames is not None
            and reduced.num_gates * depth > max_gate_frames
        ):
            continue
        cubes = {}
        if use_guidance:
            cubes = {
                cycle: {
                    name: value
                    for name, value in trace.cube_at(cycle).items()
                    if reduced.is_defined(name)
                }
                for cycle in range(trace.length)
            }
        cubes.setdefault(depth - 1, {}).update(prop.target)
        result = sequential_atpg(
            reduced,
            depth,
            cubes,
            budget=budget,
            skip_missing=True,
        )
        total_conflicts += result.conflicts
        if result.outcome is AtpgOutcome.TRACE_FOUND:
            full = _lift_trace(original, reduced, result.trace)
            return GuidedSearchResult(
                True,
                trace=full,
                method="guided-atpg" if use_guidance else "unguided-atpg",
                outcome=result.outcome,
                conflicts=total_conflicts,
            )
    return GuidedSearchResult(
        False,
        method="guided-atpg" if use_guidance else "unguided-atpg",
        outcome=result.outcome if result is not None else None,
        conflicts=total_conflicts,
    )


def _lift_trace(original: Circuit, reduced: Circuit, trace: Trace) -> Trace:
    """Extend a COI-subcircuit trace to the original design: inputs outside
    the COI are driven to 0, registers outside evolve from their reset
    values under simulation."""
    return _drive_inputs(original, trace, trace.states[0])


def _drive_inputs(
    original: Circuit,
    trace: Trace,
    start: Mapping[str, int],
    prop: Optional[UnreachabilityProperty] = None,
) -> Optional[Trace]:
    """Drive the trace's primary-input assignments (unassigned inputs at
    0) on ``original`` from its reset state (free-init registers at 0),
    with the registers ``start`` assigns taking its values, and record
    the concrete run.  With ``prop`` the run stops at the first bad
    state and is returned up to it, or ``None`` when no bad state is
    visited; without, the whole run is returned."""
    state = {
        name: start.get(name, 0 if reg.init is None else reg.init)
        for name, reg in original.registers.items()
    }
    vectors = [
        {name: cube.get(name, 0) for name in original.inputs}
        for cube in trace.inputs
    ]
    states: List[dict] = []
    for frame in BitParallelSimulator(original).replay(state, vectors):
        states.append({name: frame.value(name) for name in original.registers})
        if prop is not None and prop.holds_in_state(frame):
            break
    else:
        if prop is not None:
            return None
    return Trace(
        states=states,
        inputs=vectors[: len(states)],
        circuit_name=original.name,
    )
