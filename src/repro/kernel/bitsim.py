"""Bit-parallel 3-valued simulation over a compiled circuit.

Values use a *two-plane* encoding: every signal carries a pair of machine
words ``(f0, f1)`` where bit ``k`` of ``f1`` means "pattern ``k`` may be
1" and bit ``k`` of ``f0`` means "pattern ``k`` may be 0".  The three
values of :mod:`repro.sim.logic3` map to

======  ====  ====
value    f0    f1
======  ====  ====
ZERO      1     0
ONE       0     1
X         1     1
======  ====  ====

Kleene connectives become plain bitwise ops on the planes (AND:
``o1 = a1 & b1``, ``o0 = a0 | b0``; NOT swaps the planes; XOR is a
2x2 plane product), so one Python-level sweep over the gate plan
evaluates *lanes* patterns at once -- and because Python integers are
arbitrary precision, ``lanes`` can be 64, 256 or 4096.

The public API mirrors :class:`repro.sim.Simulator`: states and inputs
are mappings from signal names, unassigned signals default to X, and
explicit input assignments to register outputs override the state (the
trace-replay convention of Section 2.4).  It is the one simulator on
production paths: :meth:`BitParallelSimulator.replay` serves the
single-lane replays (guided search, certification, the ATPG trace
check, the fuzz generator's walk, random runs), and the interpreted
simulator is kept as the reference the tests hold this module to.
"""

from __future__ import annotations

import time
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.kernel.compile import (
    CompiledCircuit,
    OP_AND,
    OP_BUF,
    OP_CONST0,
    OP_MUX,
    OP_NAND,
    OP_NOR,
    OP_NOT,
    OP_OR,
    OP_XNOR,
    OP_XOR,
)
from repro.kernel.perf import PERF
from repro.kernel.scache import compiled
from repro.netlist.circuit import Circuit

# The 3-valued constants of repro.sim.logic3, restated here because the
# kernel sits *below* repro.sim in the import graph (repro.sim's
# random simulator runs on this module).
ZERO = 0
ONE = 1
X = 2

Planes = Tuple[int, int]  # (f0, f1)
PackedCube = Dict[str, Planes]

_VALUE_OF = {(1, 0): ZERO, (0, 1): ONE, (1, 1): X}


def pack_value(value: int, lanes: int) -> Planes:
    """Broadcast one 3-valued constant across all lanes."""
    mask = (1 << lanes) - 1
    if value == ZERO:
        return (mask, 0)
    if value == ONE:
        return (0, mask)
    if value == X:
        return (mask, mask)
    raise ValueError(f"bad 3-valued constant {value!r}")


def pack_bits(bits: int, lanes: int) -> Planes:
    """Planes for a concrete per-lane 0/1 assignment given as a bitmask."""
    mask = (1 << lanes) - 1
    bits &= mask
    return (~bits & mask, bits)


def pack_lanes(cubes: Sequence[Mapping[str, int]]) -> PackedCube:
    """Pack per-lane cubes (lane ``k`` = ``cubes[k]``) into plane pairs.
    A signal missing from a lane's cube is X in that lane; signals never
    mentioned are absent from the result."""
    mask = (1 << len(cubes)) - 1
    packed: Dict[str, List[int]] = {}
    for lane, cube in enumerate(cubes):
        bit = 1 << lane
        for name, value in cube.items():
            planes = packed.get(name)
            if planes is None:
                planes = [mask, mask]  # X in every lane until assigned
                packed[name] = planes
            if value == ZERO:
                planes[1] &= ~bit
            elif value == ONE:
                planes[0] &= ~bit
            elif value != X:
                raise ValueError(f"bad 3-valued value {value!r} for {name!r}")
    return {name: (p[0], p[1]) for name, p in packed.items()}


def planes_value(planes: Planes, lane: int) -> int:
    """The 3-valued value of one lane of a plane pair."""
    pair = ((planes[0] >> lane) & 1, (planes[1] >> lane) & 1)
    try:
        return _VALUE_OF[pair]
    except KeyError:
        raise ValueError(f"lane {lane} holds invalid plane bits {pair}") from None


class Frame:
    """All signal values after one combinational settle, packed."""

    __slots__ = ("_cc", "f0", "f1", "lanes")

    def __init__(self, cc: CompiledCircuit, f0: List[int], f1: List[int], lanes: int) -> None:
        self._cc = cc
        self.f0 = f0
        self.f1 = f1
        self.lanes = lanes

    def planes(self, name: str) -> Planes:
        idx = self._cc.index_of(name)
        return (self.f0[idx], self.f1[idx])

    def value(self, name: str, lane: int = 0) -> int:
        return planes_value(self.planes(name), lane)

    def get(self, name: str, default: Optional[int] = None) -> Optional[int]:
        """Lane-0 value of ``name``, or ``default`` when the circuit has
        no such signal: the ``Mapping.get`` of a valuation, so
        ``UnreachabilityProperty.holds_in_state`` reads a frame as is."""
        idx = self._cc.index.get(name)
        if idx is None:
            return default
        return planes_value((self.f0[idx], self.f1[idx]), 0)

    def lanes_equal(self, name: str, value: int) -> int:
        """Bitmask of lanes in which ``name`` is exactly ``value``."""
        f0, f1 = self.planes(name)
        if value == ZERO:
            return f0 & ~f1
        if value == ONE:
            return f1 & ~f0
        if value == X:
            return f0 & f1
        raise ValueError(f"bad 3-valued constant {value!r}")

    def lane_valuation(self, lane: int = 0) -> Dict[str, int]:
        """One lane unpacked to a full name -> value dict (the shape the
        interpreted :class:`Simulator` returns)."""
        cc = self._cc
        f0 = self.f0
        f1 = self.f1
        return {
            name: _VALUE_OF[((f0[i] >> lane) & 1, (f1[i] >> lane) & 1)]
            for i, name in enumerate(cc.names)
        }

    def project(self, indices: Sequence[int], lane: int) -> Tuple[int, ...]:
        """Concrete 0/1 projection of pre-resolved signal indices in one
        lane (coverage-state marking); signals must be 2-valued there."""
        f1 = self.f1
        return tuple((f1[i] >> lane) & 1 for i in indices)


class BitParallelSimulator:
    """Bit-parallel counterpart of :class:`repro.sim.Simulator`.

    Compilation is cached across instances through the structural cache,
    so constructing one per call site is cheap.
    """

    #: plan ops between cooperative ``checkpoint`` polls
    CHECKPOINT_OPS = 2048

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit
        self._cc = compiled(circuit)
        # Optional zero-arg cancellation poll (a runtime Budget hook).
        # When unset the evaluate loop runs the whole plan in one
        # unsegmented sweep, so the hot path pays nothing for it.
        self.checkpoint: Optional[Callable[[], None]] = None

    @property
    def compiled(self) -> CompiledCircuit:
        if not self._cc.is_current(self.circuit):
            self._cc = compiled(self.circuit)
        return self._cc

    # ------------------------------------------------------------------

    def initial_state(self, lanes: int, default: int = X) -> PackedCube:
        """Packed reset state; free-init registers get ``default`` in
        every lane."""
        cc = self.compiled
        state: PackedCube = {}
        for pos, idx in enumerate(cc.register_indices):
            init = cc.register_init[pos]
            state[cc.names[idx]] = pack_value(
                default if init is None else init, lanes
            )
        return state

    def evaluate(
        self,
        state: Mapping[str, Planes],
        inputs: Mapping[str, Planes],
        lanes: int,
    ) -> Frame:
        """One combinational settle over all lanes.

        Mirrors ``Simulator.evaluate``: missing signals are X, and input
        assignments naming register outputs override ``state`` in every
        lane.
        """
        cc = self.compiled
        start = time.perf_counter()
        mask = (1 << lanes) - 1
        n = cc.num_signals
        f0 = [mask] * n
        f1 = [mask] * n
        names = cc.names
        for i in cc.input_indices:
            planes = inputs.get(names[i])
            if planes is not None:
                f0[i], f1[i] = planes
        for i in cc.register_indices:
            planes = state.get(names[i])
            if planes is not None:
                f0[i], f1[i] = planes
        index = cc.index
        is_reg = self.circuit.is_register_output
        for name, planes in inputs.items():
            if is_reg(name):
                f0[index[name]], f1[index[name]] = planes

        checkpoint = self.checkpoint
        if checkpoint is None:
            segments = (cc.plan,)
        else:
            step = self.CHECKPOINT_OPS
            segments = tuple(
                cc.plan[i : i + step]
                for i in range(0, len(cc.plan), step)
            ) or ((),)
        for segment in segments:
            if checkpoint is not None:
                checkpoint()
            for op, out, operands in segment:
                if op == OP_AND or op == OP_NAND:
                    a0 = 0
                    a1 = mask
                    for i in operands:
                        a0 |= f0[i]
                        a1 &= f1[i]
                    if op == OP_NAND:
                        a0, a1 = a1, a0
                elif op == OP_OR or op == OP_NOR:
                    a0 = mask
                    a1 = 0
                    for i in operands:
                        a0 &= f0[i]
                        a1 |= f1[i]
                    if op == OP_NOR:
                        a0, a1 = a1, a0
                elif op == OP_NOT:
                    i = operands[0]
                    a0 = f1[i]
                    a1 = f0[i]
                elif op == OP_BUF:
                    i = operands[0]
                    a0 = f0[i]
                    a1 = f1[i]
                elif op == OP_XOR or op == OP_XNOR:
                    a0 = mask  # ZERO
                    a1 = 0
                    for i in operands:
                        b0 = f0[i]
                        b1 = f1[i]
                        a0, a1 = (a0 & b0) | (a1 & b1), (a0 & b1) | (a1 & b0)
                    if op == OP_XNOR:
                        a0, a1 = a1, a0
                elif op == OP_MUX:
                    s, d0, d1 = operands
                    s0 = f0[s]
                    s1 = f1[s]
                    a0 = (s0 & f0[d0]) | (s1 & f0[d1])
                    a1 = (s0 & f1[d0]) | (s1 & f1[d1])
                elif op == OP_CONST0:
                    a0 = mask
                    a1 = 0
                else:  # OP_CONST1
                    a0 = 0
                    a1 = mask
                f0[out] = a0
                f1[out] = a1

        PERF.record_sweep(len(cc.plan), lanes, time.perf_counter() - start)
        return Frame(cc, f0, f1, lanes)

    def next_state(self, frame: Frame) -> PackedCube:
        """Latch: each register's planes become its data input's planes."""
        cc = self.compiled
        f0 = frame.f0
        f1 = frame.f1
        names = cc.names
        return {
            names[r]: (f0[d], f1[d])
            for r, d in zip(cc.register_indices, cc.register_data)
        }

    def step(
        self,
        state: Mapping[str, Planes],
        inputs: Mapping[str, Planes],
        lanes: int,
    ) -> Tuple[Frame, PackedCube]:
        frame = self.evaluate(state, inputs, lanes)
        return frame, self.next_state(frame)

    def run(
        self,
        input_sequence: Iterable[Mapping[str, Planes]],
        lanes: int,
        state: Optional[PackedCube] = None,
    ) -> Iterator[Frame]:
        """Lazily yield one packed :class:`Frame` per cycle."""
        current: PackedCube = (
            dict(state) if state is not None else self.initial_state(lanes)
        )
        for inputs in input_sequence:
            frame, current = self.step(current, inputs, lanes)
            yield frame

    # -- name-level conveniences ---------------------------------------

    def replay(
        self,
        state: Mapping[str, int],
        input_sequence: Iterable[Mapping[str, int]],
    ) -> Iterator[Frame]:
        """Single-lane, name-level run: the kernel counterpart of
        ``Simulator.iter_run``.

        ``state`` is a scalar register valuation (registers it omits
        start at X).  Each cycle's input mapping assigns primary inputs
        (missing ones are X) and may name register outputs, which then
        override the latched state for that cycle -- the trace-replay
        convention of Section 2.4.  One :class:`Frame` is yielded per
        cycle, and nothing is simulated past the point the consumer
        stops iterating.
        """
        current = {name: pack_value(value, 1) for name, value in state.items()}
        for inputs in input_sequence:
            frame = self.evaluate(
                current,
                {name: pack_value(value, 1) for name, value in inputs.items()},
                1,
            )
            current = self.next_state(frame)
            yield frame
