"""Plain BDD-based symbolic model checking with COI reduction.

This is the baseline RFN is compared against in Table 1: reduce the design
to the cone of influence of the property signals, build the symbolic
transition relation for *all* COI registers, and run the forward fixpoint.
On designs whose COI holds thousands of registers this predictably
exhausts its resource limits -- "our symbolic model checker failed to
verify any of the above five properties" (Section 3) -- which is the whole
motivation for abstraction refinement.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.bdd import BDD
from repro.core.property import UnreachabilityProperty
from repro.kernel.scache import coi_model
from repro.trace import Trace
from repro.mc.encode import SymbolicEncoding
from repro.mc.images import ImageComputer
from repro.mc.reach import (
    ReachLimits,
    ReachOutcome,
    budgeted_build,
    forward_reach,
)
from repro.netlist.circuit import Circuit
from repro.runtime.abort import EngineAbort


class CheckOutcome(enum.Enum):
    TRUE = "true"
    FALSE = "false"
    RESOURCE_OUT = "resource_out"


@dataclass
class CheckResult:
    outcome: CheckOutcome
    seconds: float
    iterations: int
    coi_registers: int
    trace: Optional[Trace] = None

    @property
    def verified(self) -> bool:
        return self.outcome is CheckOutcome.TRUE


def model_check_coi(
    circuit: Circuit,
    prop: UnreachabilityProperty,
    limits: Optional[ReachLimits] = None,
    produce_trace: bool = True,
) -> CheckResult:
    """Check an unreachability property on the COI-reduced design.

    ``limits`` bound the encoding build as well as the fixpoint: a node
    blowup or a budget abort during either is ``RESOURCE_OUT``."""
    start = time.monotonic()
    prop.validate_against(circuit)
    reduced = coi_model(circuit, prop.signals())
    coi_count = reduced.num_registers
    manager = BDD()
    manager.auto_reorder = True
    if limits is not None and limits.max_nodes is not None:
        manager.node_limit = limits.max_nodes * 4
    budget = None if limits is None else limits.budget
    try:
        with budgeted_build(manager, budget):
            encoding = SymbolicEncoding(reduced, bdd=manager)
            images = ImageComputer(encoding)
            target = encoding.state_cube(dict(prop.target))
    except EngineAbort:
        return CheckResult(
            CheckOutcome.RESOURCE_OUT,
            time.monotonic() - start,
            0,
            coi_count,
        )
    result = forward_reach(
        images,
        encoding.initial_states(),
        target=target,
        limits=limits,
        step_hook=lambda _i, _r: encoding.bdd.maybe_sift(),
    )
    elapsed = time.monotonic() - start
    if result.outcome is ReachOutcome.FIXPOINT:
        return CheckResult(CheckOutcome.TRUE, elapsed, result.iterations, coi_count)
    if result.outcome is ReachOutcome.RESOURCE_OUT:
        return CheckResult(
            CheckOutcome.RESOURCE_OUT, elapsed, result.iterations, coi_count
        )
    trace = None
    if produce_trace:
        trace = _extract_error_trace(encoding, images, result, target)
    return CheckResult(
        CheckOutcome.FALSE,
        time.monotonic() - start,
        result.iterations,
        coi_count,
        trace=trace,
    )


def _extract_error_trace(
    encoding: SymbolicEncoding,
    images: ImageComputer,
    reach_result,
    target,
) -> Trace:
    """Standard BDD trace construction by backwards pre-image through the
    onion rings.  This is the step that dies on abstract models with many
    primary inputs, motivating the hybrid engine (Section 2.2)."""
    bdd = encoding.bdd
    hit = reach_result.hit_ring
    rings = reach_result.rings
    state_vars = set(encoding.current_vars)
    # Pick a total bad state in the last ring, then walk back through the
    # rings one total state at a time (completing a cube's don't-cares
    # keeps it inside the set, since skipped BDD levels are free).
    states: List[Dict[str, int]] = []
    choice = bdd.pick_cube(rings[hit] & target)
    total = _complete_state(encoding, _state_part(choice, state_vars))
    states.append(total)
    current = bdd.cube(total)
    for ring_index in range(hit - 1, -1, -1):
        pred = images.pre_image(current) & rings[ring_index]
        choice = bdd.pick_cube(pred)
        total = _complete_state(encoding, _state_part(choice, state_vars))
        current = bdd.cube(total)
        states.append(total)
    states.reverse()
    # Recover input vectors cycle by cycle: inputs consistent with the
    # transition from states[i] to states[i+1].
    inputs: List[Dict[str, int]] = []
    input_vars = list(encoding.input_vars)
    for i in range(len(states) - 1):
        constraint = bdd.cube(states[i])
        for reg, value in states[i + 1].items():
            fn = encoding.next_state_function(reg)
            constraint = constraint & (fn if value else ~fn)
        choice = bdd.pick_cube(constraint) or {}
        inputs.append(
            {n: choice.get(n, 0) for n in input_vars}
        )
    inputs.append({n: 0 for n in input_vars})
    return Trace(
        states=states,
        inputs=inputs,
        circuit_name=encoding.circuit.name,
    )


def _state_part(cube: Optional[Dict[str, int]], state_vars) -> Dict[str, int]:
    if cube is None:
        return {}
    return {k: v for k, v in cube.items() if k in state_vars}


def _complete_state(encoding: SymbolicEncoding, cube: Dict[str, int]) -> Dict[str, int]:
    """Fill unassigned registers with 0 to make the state total."""
    return {name: cube.get(name, 0) for name in encoding.current_vars}
