"""Bounded model checking and k-induction on the SAT/ATPG engine.

A complementary pure-SAT verification path ("ATPG can also be used for
functional verification", reference [3] of the paper): iteratively deepen
a bounded search for the bad states, and at each depth also attempt the
k-induction step -- if no ``k``-step path of non-bad states can end in a
bad state from an arbitrary start, the property holds.

With ``unique_states`` the induction step adds simple-path constraints
(pairwise state disequality), which makes k-induction complete on finite
systems at the cost of quadratically many constraints.

Both loops use the single-instance incremental formulation: instead of
building a fresh CNF and solver at every depth, they run on persistent
:class:`~repro.atpg.encode.SolverSession` objects pooled by
:func:`repro.kernel.scache.solver_session`:

- the *bounded* loop keeps one unrolling that only ever grows, asserts
  ``bad@k`` through assumptions, and inherits every learned clause from
  shallower depths -- and, because the pool key is the plain
  initial-state signature, from sequential ATPG runs and earlier CEGAR
  iterations over the same abstraction;
- the *induction* loop keeps a separate free-start session (tagged with
  the property, since its ``~bad`` clauses are permanent) where each new
  depth appends only the newly needed ``~bad@k-1`` clause and, under
  ``unique_states``, only the disequality pairs involving the new frame
  -- O(depth) new constraints per step instead of re-encoding the
  O(depth^2) pair set.

Because the induction session's ``~bad`` and uniqueness constraints are
permanent and monotone in depth, a pooled session revived by a later,
shallower run would answer those depths spuriously (``bad@k`` clashes
with an already-asserted ``~bad@k``).  The loop therefore skips the
induction attempt below the session's high-water mark -- sound, since a
skipped induction attempt can only delay TRUE, never flip a verdict --
and resumes once the depth catches up.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from typing import List, Mapping, Optional

from repro.atpg.encode import SolverSession, Unroller
from repro.core.property import UnreachabilityProperty
from repro.kernel.scache import coi_model, solver_session
from repro.netlist.circuit import Circuit
from repro.obs import tracer as obs
from repro.sat.solver import SatStatus
from repro.trace import Trace


class BmcOutcome(enum.Enum):
    TRUE = "true"  # proved by k-induction
    FALSE = "false"  # counterexample found
    UNKNOWN = "unknown"  # depth or budget exhausted


@dataclass
class BmcResult:
    outcome: BmcOutcome
    depth: int
    trace: Optional[Trace] = None
    induction_depth: Optional[int] = None
    seconds: float = 0.0


def _bad_literals(unroller: Unroller, prop, cycle: int) -> List[int]:
    return [
        unroller.lit(name, cycle, value)
        for name, value in prop.target.items()
    ]


def _minimize_model(
    solve_fn,
    unroller: Unroller,
    circuit: Circuit,
    depth: int,
    base_assumptions: List[int],
    fallback_model: Mapping[int, bool],
) -> Mapping[int, bool]:
    """Lexicographically minimize a satisfying model.

    Greedily pins every *free* variable of the unrolling -- frame-0
    registers without a declared init, then the inputs of each cycle, in
    declaration order -- preferring 0.  Since the circuit is
    deterministic, this pins the entire model up to ``depth``, so the
    trace depends only on the circuit and the property, never on the
    session's history: a pooled session grown deeper or carrying
    learned clauses from earlier BMC, ATPG and CEGAR queries decodes to
    the counterexample a fresh per-depth solver would (the test-local
    reference BMC of ``tests/test_bmc_incremental.py`` pins this).
    ``solve_fn(assumptions)`` must return a :class:`SatResult`; a
    non-SAT/UNSAT status (a per-solve cap ran out mid-minimization)
    falls back to the last model seen.
    """
    queries: List[int] = []
    for name, reg in circuit.registers.items():
        if reg.init is None:
            queries.append(unroller.lit(name, 0))
    for cycle in range(depth + 1):
        for name in circuit.inputs:
            queries.append(unroller.lit(name, cycle))
    fixed = list(base_assumptions)
    model = fallback_model
    for lit in queries:
        result = solve_fn(fixed + [-lit])
        if result.status is SatStatus.SAT:
            fixed.append(-lit)
            model = result.model
        elif result.status is SatStatus.UNSAT:
            fixed.append(lit)
        else:
            return model
    return model


def _decode_trace(
    unroller: Unroller,
    circuit: Circuit,
    model: Mapping[int, bool],
    depth: int,
) -> Trace:
    trace = Trace(circuit_name=circuit.name)
    for cycle in range(depth + 1):
        trace.append_cycle(
            unroller.decode_state(model, cycle),
            unroller.decode_inputs(model, cycle),
        )
    return trace


def _add_disequality(
    cnf, unroller: Unroller, registers: List[str], i: int, j: int
) -> None:
    """state@i != state@j (at least one register bit differs)."""
    difference = []
    for reg in registers:
        neq = cnf.new_var()
        cnf.add_xor2(
            neq, abs(unroller.lit(reg, i)), abs(unroller.lit(reg, j))
        )
        difference.append(neq)
    cnf.add_clause(difference)


def _bounded_step(
    session: SolverSession,
    prop: UnreachabilityProperty,
    depth: int,
    max_conflicts: Optional[int],
    budget=None,
    canonical_trace: bool = False,
) -> Optional[Trace]:
    """``bad@depth`` asserted through assumptions on the shared session;
    the unrolling and every learned clause persist to the next depth."""
    session.ensure_depth(depth + 1)
    unroller = session.unroller
    assumptions = _bad_literals(unroller, prop, depth)

    def solve_fn(extra):
        return session.solve(
            extra, max_conflicts=max_conflicts, budget=budget
        )

    result = solve_fn(assumptions)
    if result.status is not SatStatus.SAT:
        return None
    model = result.model
    if canonical_trace:
        model = _minimize_model(
            solve_fn, unroller, session.circuit, depth, assumptions, model
        )
    return _decode_trace(unroller, session.circuit, model, depth)


def _induction_step(
    session: SolverSession,
    prop: UnreachabilityProperty,
    depth: int,
    max_conflicts: Optional[int],
    unique_states: bool,
    budget=None,
) -> Optional[bool]:
    """The induction obligation on the persistent free-start session.

    ``~bad`` clauses and uniqueness pairs are permanent, appended
    monotonically: frames ``0..meta["nobad"]-1`` already carry the
    ``~bad`` clause, frames up to ``meta["uniq"]`` already carry their
    full disequality pair set, so each depth adds O(depth) constraints
    (only the pairs involving new frames) instead of re-encoding the
    whole O(depth^2) set.  Depths below the high-water mark are skipped
    by the caller (:func:`bmc`) -- a pooled session revived at a
    shallower depth would otherwise contradict its own permanent
    clauses.
    """
    session.ensure_depth(depth + 1)
    unroller = session.unroller
    cnf = session.cnf
    nobad = session.meta.get("nobad", 0)
    for cycle in range(nobad, depth):
        cnf.add_clause(
            [-lit for lit in _bad_literals(unroller, prop, cycle)]
        )
    session.meta["nobad"] = max(nobad, depth)
    if unique_states and depth >= 1:
        registers = list(session.circuit.registers)
        uniq = session.meta.get("uniq", 0)
        for frame in range(uniq + 1, depth + 1):
            for i in range(frame):
                _add_disequality(cnf, unroller, registers, i, frame)
        session.meta["uniq"] = max(uniq, depth)
    result = session.solve(
        _bad_literals(unroller, prop, depth),
        max_conflicts=max_conflicts,
        budget=budget,
    )
    if result.status is SatStatus.UNSAT:
        return True
    if result.status is SatStatus.SAT:
        return False
    return None


def _induction_tag(prop: UnreachabilityProperty, unique_states: bool):
    return (
        "bmc-ind",
        tuple(sorted(prop.target.items())),
        bool(unique_states),
    )


def bmc(
    circuit: Circuit,
    prop: UnreachabilityProperty,
    max_depth: int = 32,
    max_conflicts: Optional[int] = 200_000,
    induction: bool = True,
    unique_states: bool = False,
    use_coi: bool = True,
    budget=None,
    canonical_trace: bool = False,
) -> BmcResult:
    """Iteratively-deepened bounded model checking with k-induction.

    At each depth ``k``: look for a length-``k`` counterexample; if none
    and ``induction`` is on, try to close the proof with the ``k``-step
    induction obligation.  Both loops run on pooled persistent solver
    sessions (see module docstring).

    ``max_conflicts`` caps each SAT call; a call that exhausts it
    leaves that depth undecided and the search goes one deeper.
    ``budget`` optionally attaches a :class:`repro.runtime.Budget`, the
    only wall-clock limit: it is polled per depth and inside every SAT
    call, and its exhaustion raises a structured ``EngineAbort``.

    ``canonical_trace`` lexicographically minimizes the counterexample,
    so the trace is independent of the pool's history (used by the
    portfolio's canonical witnesses; costs one SAT call per free
    variable).
    """
    with obs.span("mc.bmc", max_depth=max_depth, induction=induction) as phase:
        result = _bmc_run(
            circuit,
            prop,
            max_depth=max_depth,
            max_conflicts=max_conflicts,
            induction=induction,
            unique_states=unique_states,
            use_coi=use_coi,
            budget=budget,
            canonical_trace=canonical_trace,
        )
        phase.set(result=result.outcome.value, depth=result.depth)
        if result.induction_depth is not None:
            phase.set(induction_depth=result.induction_depth)
        return result


def _bmc_run(
    circuit: Circuit,
    prop: UnreachabilityProperty,
    max_depth: int = 32,
    max_conflicts: Optional[int] = 200_000,
    induction: bool = True,
    unique_states: bool = False,
    use_coi: bool = True,
    budget=None,
    canonical_trace: bool = False,
) -> BmcResult:
    start = time.monotonic()
    prop.validate_against(circuit)
    model = circuit
    if use_coi:
        model = coi_model(circuit, prop.signals())
    bounded_session = solver_session(model, cycles=1, use_initial_state=True)
    induction_session: Optional[SolverSession] = None
    for depth in range(max_depth + 1):
        if budget is not None:
            budget.checkpoint(engine="bmc")
        trace = _bounded_step(
            bounded_session, prop, depth, max_conflicts,
            budget, canonical_trace,
        )
        if trace is not None:
            return BmcResult(
                BmcOutcome.FALSE,
                depth,
                trace=trace,
                seconds=time.monotonic() - start,
            )
        if induction and depth >= 1:
            if induction_session is None:
                induction_session = solver_session(
                    model,
                    cycles=depth + 1,
                    use_initial_state=False,
                    tag=_induction_tag(prop, unique_states),
                )
            # A pooled session already carries permanent ~bad /
            # uniqueness constraints up to its high-water mark;
            # querying below it would be spuriously UNSAT.
            watermark = max(
                induction_session.meta.get("nobad", 0),
                induction_session.meta.get("uniq", 0),
            )
            if depth >= watermark and _induction_step(
                induction_session, prop, depth, max_conflicts,
                unique_states, budget,
            ):
                return BmcResult(
                    BmcOutcome.TRUE,
                    depth,
                    induction_depth=depth,
                    seconds=time.monotonic() - start,
                )
    return BmcResult(
        BmcOutcome.UNKNOWN, max_depth, seconds=time.monotonic() - start
    )
