"""Random 2-valued simulation.

Used as a cheap semantic oracle in tests (cross-checking the BDD and ATPG
engines against concrete runs) and for marking reachable coverage states in
the coverage-analysis flow (Section 3: "mark the reached coverage states").

Both entry points run on the bit-parallel kernel
(:class:`repro.kernel.BitParallelSimulator`): ``random_run`` is a
single-lane replay, and ``sample_reachable_projections`` packs every run
into its own lane and sweeps the compiled circuit once per cycle, so
sampling 64 runs costs roughly one single-lane run.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.kernel.bitsim import BitParallelSimulator, pack_bits, pack_value
from repro.netlist.circuit import Circuit
from repro.sim.simulator import Valuation


class RandomSimulator:
    """Drives a circuit with uniformly random primary-input vectors."""

    def __init__(self, circuit: Circuit, seed: int = 0) -> None:
        self.circuit = circuit
        self.rng = random.Random(seed)
        self._bitsim = BitParallelSimulator(circuit)

    def random_inputs(self) -> Valuation:
        return {name: self.rng.randint(0, 1) for name in self.circuit.inputs}

    def random_run(
        self,
        cycles: int,
        state: Optional[Valuation] = None,
    ) -> List[Valuation]:
        """Simulate ``cycles`` random input vectors; returns the per-cycle
        full valuations.  Free-init registers are randomized."""
        if state is None:
            state = {
                name: reg.init if reg.init is not None else self.rng.randint(0, 1)
                for name, reg in self.circuit.registers.items()
            }
        input_sequence = [self.random_inputs() for _ in range(cycles)]
        return [
            frame.lane_valuation(0)
            for frame in self._bitsim.replay(state, input_sequence)
        ]

    def _random_lane_states(self, lanes: int) -> Dict[str, Tuple[int, int]]:
        """Packed reset state with free-init registers randomized per lane."""
        state: Dict[str, Tuple[int, int]] = {}
        for name, reg in self.circuit.registers.items():
            if reg.init is None:
                state[name] = pack_bits(self.rng.getrandbits(lanes), lanes)
            else:
                state[name] = pack_value(reg.init, lanes)
        return state

    def sample_reachable_projections(
        self,
        signals: Iterable[str],
        runs: int,
        cycles: int,
    ) -> Set[Tuple[int, ...]]:
        """Run ``runs`` random simulations and collect every valuation of
        ``signals`` observed at the *start* of each cycle (i.e. in reachable
        states).  The reset-state projection is included."""
        bitsim = self._bitsim
        cc = bitsim.compiled
        indices = [cc.index_of(s) for s in signals]
        seen: Set[Tuple[int, ...]] = set()
        state = self._random_lane_states(runs)
        for _ in range(cycles):
            inputs = {
                name: pack_bits(self.rng.getrandbits(runs), runs)
                for name in self.circuit.inputs
            }
            frame, state = bitsim.step(state, inputs, runs)
            for lane in range(runs):
                seen.add(frame.project(indices, lane))
        return seen
