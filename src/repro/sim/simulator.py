"""Levelized 3-valued gate-level simulator.

The simulator evaluates a circuit's gates once per cycle in topological
order (levelized event-free simulation).  Values are the 3-valued constants
from :mod:`repro.sim.logic3`; a 2-valued simulation is just a run in which
no X is ever injected.

It is the reference semantics of Step 4 of RFN: "we simulate step-by-step
on the original gate-level design the error trace of the abstract model"
with unassigned registers and inputs at X (Section 2.4).  The program
itself runs that step on the compiled kernel
(:class:`repro.kernel.BitParallelSimulator`); the tests, benchmarks and
examples use this simulator as the oracle it must agree with.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.netlist.circuit import Circuit
from repro.sim.logic3 import X, eval_gate

Valuation = Dict[str, int]


class Simulator:
    """Reusable simulator bound to one circuit.

    The gate evaluation order is computed once; each call to
    :meth:`evaluate` or :meth:`step` is a single levelized sweep.
    """

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit
        self._order = circuit.topo_gates()

    # ------------------------------------------------------------------

    def initial_state(self, default: int = X) -> Valuation:
        """The circuit's reset state; free-init registers get ``default``."""
        state: Valuation = {}
        for name, reg in self.circuit.registers.items():
            state[name] = default if reg.init is None else reg.init
        return state

    def evaluate(
        self,
        state: Mapping[str, int],
        inputs: Mapping[str, int],
    ) -> Valuation:
        """One combinational settle: return the value of *every* signal.

        Registers and primary inputs missing from ``state``/``inputs``
        evaluate to X, which is exactly the paper's convention for trace
        replay.
        """
        values: Valuation = {}
        for name in self.circuit.inputs:
            values[name] = inputs.get(name, X)
        for name in self.circuit.registers:
            values[name] = state.get(name, X)
        # Inputs dict may also assign register outputs (the error trace's
        # state cube); explicit input assignments win over `state`.
        for name, value in inputs.items():
            if self.circuit.is_register_output(name):
                values[name] = value
        for gate in self._order:
            values[gate.output] = eval_gate(
                gate.op, [values[s] for s in gate.inputs]
            )
        return values

    def next_state(self, values: Mapping[str, int]) -> Valuation:
        """Latch: map each register to the value of its data input."""
        return {
            name: values[reg.data]
            for name, reg in self.circuit.registers.items()
        }

    def step(
        self,
        state: Mapping[str, int],
        inputs: Mapping[str, int],
    ) -> Tuple[Valuation, Valuation]:
        """One clock cycle: returns ``(all_signal_values, next_state)``."""
        values = self.evaluate(state, inputs)
        return values, self.next_state(values)

    def iter_run(
        self,
        input_sequence: Iterable[Mapping[str, int]],
        state: Optional[Mapping[str, int]] = None,
    ) -> Iterator[Valuation]:
        """Lazily yield the full valuation of each cycle, starting from
        ``state`` (default: the reset state); the state after cycle ``i``
        feeds cycle ``i + 1``.  Nothing is simulated past the point the
        consumer stops iterating, so searches can short-circuit."""
        current: Valuation = (
            dict(state) if state is not None else self.initial_state()
        )
        for inputs in input_sequence:
            values, current = self.step(current, inputs)
            yield values

    def run(
        self,
        input_sequence: Iterable[Mapping[str, int]],
        state: Optional[Mapping[str, int]] = None,
    ) -> List[Valuation]:
        """Eager form of :meth:`iter_run`: the per-cycle valuations as a
        list."""
        return list(self.iter_run(input_sequence, state))

    def reaches(
        self,
        input_sequence: Iterable[Mapping[str, int]],
        signal: str,
        value: int,
        state: Optional[Mapping[str, int]] = None,
    ) -> bool:
        """Does ``signal`` take ``value`` at any cycle of the run?
        Streams the simulation and stops at the first hit."""
        for frame in self.iter_run(input_sequence, state):
            if frame[signal] == value:
                return True
        return False
