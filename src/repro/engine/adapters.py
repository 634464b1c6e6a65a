"""Adapters putting every engine in the repo behind the `Engine`
protocol.

Importing this module registers the six built-in engines (the registry
loads it lazily on first lookup):

- ``bmc``         -- plain bounded model checking (falsification
  specialist; never answers VERIFIED),
- ``kinduction``  -- k-induction with simple-path constraints,
- ``bdd``         -- BDD forward reachability on the COI reduction,
- ``rfn``         -- the paper's abstraction-refinement CEGAR loop,
- ``kernel``      -- exhaustive explicit-state BFS with bit-parallel
  next-state evaluation,
- ``atpg``        -- iteratively-deepened sequential ATPG targeting the
  property cube.

Every adapter normalizes its engine's native result type to a
:class:`VerifyResult` with the canonical verdict and a witness kind, so
the portfolio, the fuzz oracle, the service and the CLI all speak one
dialect.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

from repro.atpg.engine import AtpgBudget, AtpgOutcome, sequential_atpg
from repro.bdd import BDD
from repro.core.property import UnreachabilityProperty
from repro.engine.base import (
    BOUNDED,
    COMPLETE,
    FORMAL,
    HYBRID,
    SIMULATION,
    SOUND_FOR_FALSE,
    SOUND_FOR_TRUE,
    Engine,
    registry,
)
from repro.engine.result import (
    WITNESS_EXHAUSTIVE,
    WITNESS_INVARIANT,
    WITNESS_KINDUCTION,
    WITNESS_TRACE,
    Limits,
    VerifyResult,
)
from repro.engine.verdict import Verdict
from repro.kernel.scache import coi_model
from repro.mc.bmc import BmcOutcome, bmc
from repro.mc.encode import SymbolicEncoding
from repro.mc.images import ImageComputer
from repro.mc.reach import (
    ReachLimits,
    ReachOutcome,
    budgeted_build,
    extract_error_trace,
    forward_reach,
)
from repro.netlist.circuit import Circuit
from repro.runtime.abort import EngineAbort
from repro.trace import Trace

if TYPE_CHECKING:
    from repro.core.rfn import RfnResult


def _sat_depth(circuit: Circuit) -> int:
    """Default unrolling cap: with simple-path constraints k-induction
    is complete at the recurrence diameter, itself bounded by the state
    count."""
    if circuit.num_registers >= 7:
        return 130
    return (1 << circuit.num_registers) + 2


class BmcEngine(Engine):
    name = "bmc"
    description = (
        "plain bounded model checking (falsification specialist)"
    )
    capabilities = frozenset({FORMAL, BOUNDED, SOUND_FOR_FALSE})

    def _run(
        self,
        circuit: Circuit,
        prop: UnreachabilityProperty,
        limits: Limits,
    ) -> VerifyResult:
        depth = (
            limits.max_depth
            if limits.max_depth is not None
            else _sat_depth(circuit)
        )
        result = bmc(
            circuit,
            prop,
            max_depth=depth,
            max_conflicts=limits.max_conflicts,
            induction=False,
            budget=limits.budget,
        )
        if result.outcome is BmcOutcome.FALSE:
            return VerifyResult(
                engine=self.name,
                verdict=Verdict.FALSIFIED,
                detail=f"counterexample at depth {result.depth}",
                witness=WITNESS_TRACE,
                trace=result.trace,
                seconds=result.seconds,
            )
        return VerifyResult(
            engine=self.name,
            verdict=Verdict.UNKNOWN,
            detail=f"no counterexample within depth {result.depth}",
            seconds=result.seconds,
        )


class KInductionEngine(Engine):
    name = "kinduction"
    description = (
        "k-induction with simple-path constraints (complete at the "
        "recurrence diameter)"
    )
    capabilities = frozenset(
        {FORMAL, BOUNDED, COMPLETE, SOUND_FOR_TRUE, SOUND_FOR_FALSE}
    )

    def _run(
        self,
        circuit: Circuit,
        prop: UnreachabilityProperty,
        limits: Limits,
    ) -> VerifyResult:
        depth = (
            limits.max_depth
            if limits.max_depth is not None
            else _sat_depth(circuit)
        )
        result = bmc(
            circuit,
            prop,
            max_depth=depth,
            max_conflicts=limits.max_conflicts,
            induction=True,
            unique_states=True,
            budget=limits.budget,
        )
        if result.outcome is BmcOutcome.TRUE:
            return VerifyResult(
                engine=self.name,
                verdict=Verdict.VERIFIED,
                detail=f"k-induction at depth {result.induction_depth}",
                witness=WITNESS_KINDUCTION,
                seconds=result.seconds,
            )
        if result.outcome is BmcOutcome.FALSE:
            return VerifyResult(
                engine=self.name,
                verdict=Verdict.FALSIFIED,
                detail=f"counterexample at depth {result.depth}",
                witness=WITNESS_TRACE,
                trace=result.trace,
                seconds=result.seconds,
            )
        return VerifyResult(
            engine=self.name,
            verdict=Verdict.UNKNOWN,
            detail=f"inconclusive at depth {result.depth}",
            seconds=result.seconds,
        )


class BddReachEngine(Engine):
    """Plain symbolic model checking with cone-of-influence reduction:
    encode *every* COI register, build the transition relation and run
    the forward fixpoint -- the Table 1 baseline RFN is compared against
    ("our symbolic model checker failed to verify any of the above five
    properties", Section 3).  ``Limits.max_bdd_nodes`` caps the build as
    well as the fixpoint; the manager never sifts (``bdd.reorder.sift``
    polls no budget)."""

    name = "bdd"
    description = (
        "BDD forward reachability on the cone-of-influence reduction"
    )
    capabilities = frozenset(
        {FORMAL, COMPLETE, SOUND_FOR_TRUE, SOUND_FOR_FALSE}
    )

    def _run(
        self,
        circuit: Circuit,
        prop: UnreachabilityProperty,
        limits: Limits,
    ) -> VerifyResult:
        prop.validate_against(circuit)
        reduced = coi_model(circuit, prop.signals())
        manager = BDD()
        try:
            with budgeted_build(
                manager, limits.budget, limits.max_bdd_nodes
            ):
                encoding = SymbolicEncoding(reduced, bdd=manager)
                images = ImageComputer(encoding)
        except EngineAbort as abort:
            # The same answer as an abort inside the fixpoint.
            return VerifyResult(
                engine=self.name,
                verdict=Verdict.UNKNOWN,
                detail=(
                    "reachability resource limit "
                    f"({abort.resource}, building the transition relation)"
                ),
            )
        target = encoding.state_cube(dict(prop.target))
        reach_limits = ReachLimits(budget=limits.budget)
        if limits.max_bdd_nodes is not None:
            reach_limits.max_nodes = limits.max_bdd_nodes
        reach = forward_reach(
            images, encoding.initial_states(), target=target,
            limits=reach_limits,
        )
        if reach.outcome is ReachOutcome.FIXPOINT:
            return VerifyResult(
                engine=self.name,
                verdict=Verdict.VERIFIED,
                detail=f"fixpoint after {reach.iterations} images",
                witness=WITNESS_INVARIANT,
                seconds=reach.seconds,
                invariant=reach.reached,
                invariant_encoding=encoding,
            )
        if reach.outcome is ReachOutcome.TARGET_HIT:
            trace = extract_error_trace(images, reach, target)
            return VerifyResult(
                engine=self.name,
                verdict=Verdict.FALSIFIED,
                detail=f"target hit in ring {reach.hit_ring}",
                witness=WITNESS_TRACE,
                trace=trace,
                seconds=reach.seconds,
            )
        return VerifyResult(
            engine=self.name,
            verdict=Verdict.UNKNOWN,
            detail="reachability resource limit",
            seconds=reach.seconds,
        )


class RfnEngine(Engine):
    name = "rfn"
    description = (
        "abstraction-refinement CEGAR loop (the paper's RFN algorithm)"
    )
    capabilities = frozenset({HYBRID, SOUND_FOR_TRUE, SOUND_FOR_FALSE})

    def _run(
        self,
        circuit: Circuit,
        prop: UnreachabilityProperty,
        limits: Limits,
    ) -> VerifyResult:
        # Imported lazily: core.rfn dispatches to repro.parallel when
        # RfnConfig.parallel is set, and that module-level cycle must
        # break somewhere.
        from repro.core.rfn import RFN, RfnConfig

        return rfn_verify_result(
            RFN(circuit, prop, RfnConfig(budget=limits.budget)).run()
        )


def rfn_verify_result(result: "RfnResult") -> VerifyResult:
    """The ``rfn`` engine's answer for one finished CEGAR run (the
    service's checkpointing ``rfn`` body returns it too)."""
    iterations = len(result.iterations)
    if result.verified:
        return VerifyResult(
            engine="rfn",
            verdict=Verdict.VERIFIED,
            detail=f"CEGAR verified in {iterations} iterations",
            witness=WITNESS_INVARIANT,
            seconds=result.seconds,
            invariant=result.invariant,
            invariant_encoding=result.invariant_encoding,
        )
    if result.falsified:
        return VerifyResult(
            engine="rfn",
            verdict=Verdict.FALSIFIED,
            detail=f"CEGAR falsified in {iterations} iterations",
            witness=WITNESS_TRACE,
            trace=result.trace,
            seconds=result.seconds,
        )
    return VerifyResult(
        engine="rfn",
        verdict=Verdict.UNKNOWN,
        detail=result.detail or "CEGAR resource limit",
        seconds=result.seconds,
    )


class KernelBfsEngine(Engine):
    """Exhaustive breadth-first reachability with bit-parallel
    next-state evaluation: every (frontier state, input vector) pair is
    one lane of a kernel sweep.  Complete whenever the caps hold, which
    the fuzz generator guarantees by construction."""

    name = "kernel"
    description = (
        "exhaustive explicit-state BFS on the bit-parallel simulator"
    )
    capabilities = frozenset(
        {SIMULATION, COMPLETE, SOUND_FOR_TRUE, SOUND_FOR_FALSE}
    )

    #: caps beyond which exhaustive enumeration is declined (UNKNOWN)
    max_inputs = 6
    max_free_init = 4
    default_max_states = 1 << 13
    chunk_lanes = 256

    def _run(
        self,
        circuit: Circuit,
        prop: UnreachabilityProperty,
        limits: Limits,
    ) -> VerifyResult:
        from repro.kernel import BitParallelSimulator
        from repro.kernel.bitsim import pack_lanes, planes_value

        def answer(
            verdict: Verdict,
            detail: str,
            witness: Optional[str] = None,
            trace: Optional[Trace] = None,
        ) -> VerifyResult:
            return VerifyResult(
                engine=self.name,
                verdict=verdict,
                detail=detail,
                witness=witness,
                trace=trace,
            )

        max_states = (
            limits.max_states
            if limits.max_states is not None
            else self.default_max_states
        )
        prop.validate_against(circuit)
        registers = list(circuit.registers)
        inputs = list(circuit.inputs)
        if len(inputs) > self.max_inputs:
            return answer(
                Verdict.UNKNOWN,
                f"{len(inputs)} inputs exceed exhaustive cap",
            )
        free = [r for r in registers if circuit.registers[r].init is None]
        if len(free) > self.max_free_init:
            return answer(
                Verdict.UNKNOWN,
                f"{len(free)} free-init registers exceed cap",
            )

        input_vectors = [
            dict(zip(inputs, bits))
            for bits in itertools.product((0, 1), repeat=len(inputs))
        ]
        base = {
            name: reg.init
            for name, reg in circuit.registers.items()
            if reg.init is not None
        }
        initial_states = []
        for bits in itertools.product((0, 1), repeat=len(free)):
            state = dict(base)
            state.update(zip(free, bits))
            initial_states.append(state)

        def key_of(state: Mapping[str, int]) -> Tuple[int, ...]:
            return tuple(state[r] for r in registers)

        def make_trace(last_key: Tuple[int, ...]) -> Trace:
            # Walk parent pointers back to an initial state; the bad
            # state itself becomes the final cycle with a vacuous input
            # vector (the shape mc.reach.extract_error_trace produces).
            path: List[Tuple[int, ...]] = []
            steps: List[Dict[str, int]] = []
            key: Optional[Tuple[int, ...]] = last_key
            while key is not None:
                path.append(key)
                parent_key, via = parent[key]
                if via is not None:
                    steps.append(via)
                key = parent_key
            path.reverse()
            steps.reverse()
            states = [dict(zip(registers, k)) for k in path]
            steps.append({name: 0 for name in inputs})
            return Trace(
                states=states, inputs=steps, circuit_name=circuit.name
            )

        parent: Dict[
            Tuple[int, ...],
            Tuple[Optional[Tuple[int, ...]], Optional[Dict[str, int]]],
        ] = {}
        frontier: List[Dict[str, int]] = []
        for state in initial_states:
            key = key_of(state)
            if key in parent:
                continue
            parent[key] = (None, None)
            if prop.holds_in_state(state):
                return answer(
                    Verdict.FALSIFIED,
                    "bad initial state",
                    witness=WITNESS_TRACE,
                    trace=make_trace(key),
                )
            frontier.append(state)

        sim = BitParallelSimulator(circuit)
        budget = limits.budget
        if budget is not None:
            sim.checkpoint = budget.hook("kernel")
        explored = 0
        while frontier:
            if budget is not None:
                budget.checkpoint(engine="kernel")
            if len(parent) > max_states:
                return answer(
                    Verdict.UNKNOWN,
                    f"state cap {max_states} exceeded",
                )
            pairs = [
                (state, vector)
                for state in frontier
                for vector in input_vectors
            ]
            frontier = []
            for lo in range(0, len(pairs), self.chunk_lanes):
                chunk = pairs[lo : lo + self.chunk_lanes]
                lanes = len(chunk)
                frame = sim.evaluate(
                    pack_lanes([p[0] for p in chunk]),
                    pack_lanes([p[1] for p in chunk]),
                    lanes,
                )
                next_planes = sim.next_state(frame)
                explored += lanes
                for lane, (state, vector) in enumerate(chunk):
                    successor = {
                        r: planes_value(next_planes[r], lane)
                        for r in registers
                    }
                    key = key_of(successor)
                    if key in parent:
                        continue
                    parent[key] = (key_of(state), dict(vector))
                    if prop.holds_in_state(successor):
                        return answer(
                            Verdict.FALSIFIED,
                            f"bad state after exploring {explored} edges",
                            witness=WITNESS_TRACE,
                            trace=make_trace(key),
                        )
                    frontier.append(successor)
        return answer(
            Verdict.VERIFIED,
            f"{len(parent)} reachable states, no bad state",
            witness=WITNESS_EXHAUSTIVE,
        )


class AtpgEngine(Engine):
    """Iteratively-deepened sequential ATPG: at each depth ``k`` the
    test generator searches for a ``k+1``-cycle trace whose final cycle
    satisfies the property's target cube.  A found test is a concrete
    counterexample (the generator replays it on the simulator before
    returning); exhausting the depth bound proves nothing, so the
    engine never answers VERIFIED."""

    name = "atpg"
    description = (
        "iteratively-deepened sequential ATPG targeting the property "
        "cube (falsification specialist)"
    )
    capabilities = frozenset({SIMULATION, BOUNDED, SOUND_FOR_FALSE})

    def _run(
        self,
        circuit: Circuit,
        prop: UnreachabilityProperty,
        limits: Limits,
    ) -> VerifyResult:
        prop.validate_against(circuit)
        max_depth = (
            limits.max_depth
            if limits.max_depth is not None
            else _sat_depth(circuit)
        )
        budget = AtpgBudget(
            max_conflicts=limits.max_conflicts, runtime=limits.budget
        )
        target = dict(prop.target)
        for depth in range(max_depth + 1):
            result = sequential_atpg(
                circuit,
                depth + 1,
                {depth: target},
                budget=budget,
            )
            if result.outcome is AtpgOutcome.TRACE_FOUND:
                return VerifyResult(
                    engine=self.name,
                    verdict=Verdict.FALSIFIED,
                    detail=f"test found at depth {depth}",
                    witness=WITNESS_TRACE,
                    trace=result.trace,
                )
            if result.outcome is AtpgOutcome.ABORTED:
                return VerifyResult(
                    engine=self.name,
                    verdict=Verdict.UNKNOWN,
                    detail=f"aborted at depth {depth}",
                )
        return VerifyResult(
            engine=self.name,
            verdict=Verdict.UNKNOWN,
            detail=f"no test within depth {max_depth}",
        )


registry.register(BddReachEngine())
registry.register(RfnEngine())
registry.register(KInductionEngine())
registry.register(BmcEngine())
registry.register(KernelBfsEngine())
registry.register(AtpgEngine())
