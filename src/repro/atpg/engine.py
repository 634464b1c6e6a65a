"""Combinational and sequential ATPG engines.

Both engines answer the paper's three-way query (trace found / cubes
unsatisfiable / resources exceeded) by encoding the time-frame-expanded
circuit into CNF and running the budgeted CDCL solver.  Sequential results
are replayed on the kernel simulator before being returned, so an
encoder bug can never masquerade as a verification result.

Both engines run *incrementally*: the unrolling and solver come from
the :func:`repro.kernel.scache.solver_session` pool, target and
constraint cubes are asserted through assumptions rather than permanent
units, and learned clauses carry over between ATPG targets on the same
circuit -- and across the BMC and CEGAR callers that share the session
signature.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Union

from repro.kernel.bitsim import BitParallelSimulator
from repro.kernel.perf import PERF
from repro.kernel.scache import solver_session
from repro.obs import tracer as obs
from repro.trace import Trace
from repro.netlist.circuit import Circuit
from repro.sat.solver import SatStatus


class AtpgOutcome(enum.Enum):
    """The paper's three possible ATPG answers (Section 2)."""

    TRACE_FOUND = "trace_found"
    UNSATISFIABLE = "unsatisfiable"
    ABORTED = "aborted"


@dataclass
class AtpgBudget:
    """Resource limits; ``None`` means unlimited.

    The propagation cap is the solver's best wall-clock proxy: it bounds
    searches that wander without conflicting (huge satisfiable-looking
    unrollings), which a pure conflict budget never would.

    ``max_seconds``/``deadline`` put a true wall-clock bound on every
    solver call (``deadline`` is an absolute ``time.monotonic()``
    instant; ``max_seconds`` is relative to the call).  Exceeding either
    keeps the historical return-code semantics (``ABORTED``).
    ``runtime`` optionally attaches a :class:`repro.runtime.Budget`,
    which charges conflicts/decisions to the shared run budget and
    *raises* a structured ``EngineAbort`` -- the portfolio supervisor's
    exception-based path."""

    max_conflicts: Optional[int] = 200_000
    max_decisions: Optional[int] = None
    max_propagations: Optional[int] = 50_000_000
    max_seconds: Optional[float] = None
    deadline: Optional[float] = None
    runtime: Optional[object] = None

    def solve_kwargs(self) -> Dict[str, object]:
        """Keyword arguments for :meth:`repro.sat.solver.Solver.solve`."""
        deadline = self.deadline
        if self.max_seconds is not None:
            relative = time.monotonic() + self.max_seconds
            deadline = (
                relative if deadline is None else min(deadline, relative)
            )
        return {
            "max_conflicts": self.max_conflicts,
            "max_decisions": self.max_decisions,
            "max_propagations": self.max_propagations,
            "deadline": deadline,
            "budget": self.runtime,
        }


@dataclass
class AtpgResult:
    outcome: AtpgOutcome
    trace: Optional[Trace] = None
    assignment: Optional[Dict[str, int]] = None
    conflicts: int = 0
    decisions: int = 0

    @property
    def found(self) -> bool:
        return self.outcome is AtpgOutcome.TRACE_FOUND


CubeMap = Mapping[int, Mapping[str, int]]


def _normalize_cubes(
    cubes: Union[CubeMap, Sequence[Mapping[str, int]], None],
    cycles: int,
) -> Dict[int, Dict[str, int]]:
    if cubes is None:
        return {}
    if isinstance(cubes, Mapping):
        normalized = {int(c): dict(cube) for c, cube in cubes.items()}
    else:
        normalized = {c: dict(cube) for c, cube in enumerate(cubes)}
    for cycle in normalized:
        if not 0 <= cycle < cycles:
            raise ValueError(
                f"cube at cycle {cycle} outside unrolling of {cycles} cycles"
            )
    return normalized


def sequential_atpg(
    circuit: Circuit,
    cycles: int,
    cubes: Union[CubeMap, Sequence[Mapping[str, int]], None] = None,
    *,
    use_initial_state: bool = True,
    initial_state: Optional[Mapping[str, int]] = None,
    budget: Optional[AtpgBudget] = None,
    skip_missing: bool = False,
    verify: bool = True,
) -> AtpgResult:
    """Search for a ``cycles``-cycle trace satisfying per-cycle cubes.

    ``cubes`` maps cycle index (0-based) to a cube over any signals of the
    circuit (state, input or internal).  With ``skip_missing`` enabled,
    cube entries naming signals absent from the circuit are ignored --
    used when replaying an abstract-model trace on a differently-sized
    subcircuit.
    """
    with obs.span("atpg.sequential", cycles=cycles) as phase:
        result = _sequential_atpg(
            circuit,
            cycles,
            cubes,
            use_initial_state=use_initial_state,
            initial_state=initial_state,
            budget=budget,
            skip_missing=skip_missing,
            verify=verify,
        )
        phase.set(
            result=result.outcome.value,
            conflicts=result.conflicts,
            decisions=result.decisions,
        )
        PERF.gauge("atpg.conflicts", result.conflicts)
        return result


def _sequential_atpg(
    circuit: Circuit,
    cycles: int,
    cubes: Union[CubeMap, Sequence[Mapping[str, int]], None] = None,
    *,
    use_initial_state: bool = True,
    initial_state: Optional[Mapping[str, int]] = None,
    budget: Optional[AtpgBudget] = None,
    skip_missing: bool = False,
    verify: bool = True,
) -> AtpgResult:
    session = solver_session(
        circuit,
        cycles,
        use_initial_state=use_initial_state,
        initial_state=initial_state,
    )
    unroller = session.unroller
    assumptions: List[int] = []
    cube_map = _normalize_cubes(cubes, cycles)
    for cycle, cube in cube_map.items():
        for name, value in cube.items():
            if not unroller.has_signal(name, cycle):
                if skip_missing:
                    continue
                raise KeyError(
                    f"cube signal {name!r} not in circuit "
                    f"{circuit.name!r}"
                )
            assumptions.append(unroller.lit(name, cycle, value))
    budget = budget or AtpgBudget()
    result = session.solve(assumptions, **budget.solve_kwargs())
    if result.status is SatStatus.UNSAT:
        return AtpgResult(
            AtpgOutcome.UNSATISFIABLE,
            conflicts=result.conflicts,
            decisions=result.decisions,
        )
    if result.status is SatStatus.UNKNOWN:
        return AtpgResult(
            AtpgOutcome.ABORTED,
            conflicts=result.conflicts,
            decisions=result.decisions,
        )
    trace = Trace(circuit_name=circuit.name)
    for cycle in range(cycles):
        trace.append_cycle(
            unroller.decode_state(result.model, cycle),
            unroller.decode_inputs(result.model, cycle),
        )
    if verify:
        check_trace(circuit, trace, cube_map, skip_missing)
    return AtpgResult(
        AtpgOutcome.TRACE_FOUND,
        trace=trace,
        conflicts=result.conflicts,
        decisions=result.decisions,
    )


def combinational_atpg(
    circuit: Circuit,
    target: Mapping[str, int],
    constraints: Iterable[Mapping[str, int]] = (),
    *,
    budget: Optional[AtpgBudget] = None,
) -> AtpgResult:
    """One-time-frame ATPG with a free state: justify ``target`` plus all
    ``constraints`` cubes over a single combinational frame.

    Register outputs act as pseudo primary inputs (no initial-state
    constraint, no transitions).  On success the full frame valuation is
    returned in ``assignment`` so callers can read off any signal -- the
    hybrid engine uses this to extend a min-cut cube to a no-cut cube
    (Section 2.2).
    """
    with obs.span("atpg.combinational") as phase:
        result = _combinational_atpg(
            circuit,
            target,
            constraints,
            budget=budget,
        )
        phase.set(
            result=result.outcome.value,
            conflicts=result.conflicts,
            decisions=result.decisions,
        )
        PERF.gauge("atpg.conflicts", result.conflicts)
        return result


def _combinational_atpg(
    circuit: Circuit,
    target: Mapping[str, int],
    constraints: Iterable[Mapping[str, int]] = (),
    *,
    budget: Optional[AtpgBudget] = None,
) -> AtpgResult:
    budget = budget or AtpgBudget()
    session = solver_session(circuit, 1, use_initial_state=False)
    unroller = session.unroller
    assumptions = [
        unroller.lit(name, 0, value)
        for cube in list(constraints) + [dict(target)]
        for name, value in cube.items()
    ]
    result = session.solve(assumptions, **budget.solve_kwargs())
    if result.status is SatStatus.UNSAT:
        return AtpgResult(
            AtpgOutcome.UNSATISFIABLE,
            conflicts=result.conflicts,
            decisions=result.decisions,
        )
    if result.status is SatStatus.UNKNOWN:
        return AtpgResult(
            AtpgOutcome.ABORTED,
            conflicts=result.conflicts,
            decisions=result.decisions,
        )
    return AtpgResult(
        AtpgOutcome.TRACE_FOUND,
        assignment=unroller.decode_frame(result.model, 0),
        conflicts=result.conflicts,
        decisions=result.decisions,
    )


def check_trace(
    circuit: Circuit,
    trace: Trace,
    cube_map: CubeMap,
    skip_missing: bool = False,
    driven: Iterable[str] = (),
) -> None:
    """Replay a SAT-extracted trace on the kernel simulator and assert
    that every state and every cube holds.

    Registers in ``driven`` are not latched: like inputs they take the
    trace's value at every cycle (a refinement probe's inactive
    candidates).  This is an internal consistency check between the CNF
    encoding and the simulator; a failure indicates a bug, not an
    analysis result.
    """
    driven = list(driven)
    stimulus = [
        {**cube, **{name: state[name] for name in driven}}
        for cube, state in zip(trace.inputs, trace.states)
    ]
    frames = BitParallelSimulator(circuit).replay(trace.states[0], stimulus)
    for cycle, frame in enumerate(frames):
        for name, expected in trace.states[cycle].items():
            if frame.value(name) != expected:
                raise AssertionError(
                    f"trace/simulation mismatch for state {name!r} at cycle "
                    f"{cycle}: trace {expected}, simulated {frame.value(name)}"
                )
        for name, expected in cube_map.get(cycle, {}).items():
            if skip_missing and not circuit.is_defined(name):
                continue
            if frame.value(name) != expected:
                raise AssertionError(
                    f"cube/simulation mismatch for {name!r} at cycle "
                    f"{cycle}: cube {expected}, simulated {frame.value(name)}"
                )
