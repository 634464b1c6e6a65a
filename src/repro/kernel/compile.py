"""One-time compilation of a :class:`Circuit` to flat integer arrays.

The interpreted :class:`repro.sim.Simulator` walks Python dicts keyed by
signal *names* on every gate of every cycle.  The compiled form resolves
every name exactly once: signals become dense integer indices, the
levelized gate order becomes a flat evaluation *plan* of
``(opcode, output_index, operand_index_tuple)`` rows, and registers
become parallel index arrays (output index, data index, init value).

Everything downstream -- the bit-parallel simulator, the trace replayer,
the structural caches -- works in index space and only translates back to
names at the API boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.netlist.cell import GateOp
from repro.netlist.circuit import Circuit

# Dense opcodes for the evaluation plan.
OP_AND = 0
OP_OR = 1
OP_NOT = 2
OP_XOR = 3
OP_XNOR = 4
OP_NAND = 5
OP_NOR = 6
OP_BUF = 7
OP_MUX = 8
OP_CONST0 = 9
OP_CONST1 = 10

_OPCODE: Dict[GateOp, int] = {
    GateOp.AND: OP_AND,
    GateOp.OR: OP_OR,
    GateOp.NOT: OP_NOT,
    GateOp.XOR: OP_XOR,
    GateOp.XNOR: OP_XNOR,
    GateOp.NAND: OP_NAND,
    GateOp.NOR: OP_NOR,
    GateOp.BUF: OP_BUF,
    GateOp.MUX: OP_MUX,
    GateOp.CONST0: OP_CONST0,
    GateOp.CONST1: OP_CONST1,
}

PlanRow = Tuple[int, int, Tuple[int, ...]]


@dataclass
class CompiledCircuit:
    """Flat, index-based view of one circuit at one mutation generation.

    It holds the circuit's name, not the circuit: the structural cache
    keys its entries weakly by circuit, and a strong reference from the
    value back to its own key would keep every compiled circuit alive."""

    name: str
    generation: int
    names: List[str] = field(default_factory=list)  # index -> signal name
    index: Dict[str, int] = field(default_factory=dict)  # name -> index
    input_indices: List[int] = field(default_factory=list)
    register_indices: List[int] = field(default_factory=list)
    register_data: List[int] = field(default_factory=list)
    register_init: List[Optional[int]] = field(default_factory=list)
    plan: List[PlanRow] = field(default_factory=list)

    @property
    def num_signals(self) -> int:
        return len(self.names)

    @property
    def num_gates(self) -> int:
        return len(self.plan)

    def index_of(self, name: str) -> int:
        try:
            return self.index[name]
        except KeyError:
            raise KeyError(
                f"signal {name!r} not in circuit {self.name!r}"
            ) from None

    def is_current(self, circuit: Circuit) -> bool:
        """Does this compilation still describe ``circuit``, the circuit
        it was compiled from?"""
        return self.generation == circuit.generation


def compile_circuit_uncached(circuit: Circuit) -> CompiledCircuit:
    """Lower ``circuit`` to flat arrays (always recompiles; callers should
    normally go through :func:`repro.kernel.scache.compiled`)."""
    cc = CompiledCircuit(name=circuit.name, generation=circuit.generation)
    names = cc.names
    index = cc.index

    def intern(name: str) -> int:
        idx = index.get(name)
        if idx is None:
            idx = len(names)
            index[name] = idx
            names.append(name)
        return idx

    for name in circuit.inputs:
        cc.input_indices.append(intern(name))
    for name, reg in circuit.registers.items():
        cc.register_indices.append(intern(name))
        cc.register_init.append(reg.init)
    # Register data inputs may be any signal; intern after all registers so
    # register outputs keep contiguous low indices.
    order = circuit.topo_gates()
    for gate in order:
        intern(gate.output)
    for name, reg in circuit.registers.items():
        cc.register_data.append(intern(reg.data))
    for gate in order:
        cc.plan.append(
            (
                _OPCODE[gate.op],
                index[gate.output],
                tuple(index[s] for s in gate.inputs),
            )
        )
    return cc
