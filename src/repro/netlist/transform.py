"""Semantics-preserving netlist transformations.

Three families of transforms that change a circuit's *presentation*
without changing its transition relation:

- :func:`rename_signals` -- consistent signal renaming (alpha
  conversion); properties and traces map through the same dictionary,
- :func:`permute_gates` -- re-declare the gates in a different insertion
  order (the gate *set* is what defines the design; declaration order is
  an artifact of construction),
- :func:`reorder_inputs` -- permute the primary-input declaration order.

Every engine verdict must be invariant under all three -- that is the
metamorphic contract ``tests/test_metamorphic.py`` enforces, and the
reason these live in the product tree rather than the test tree: the
parallel portfolio executor relies on verdicts being a function of the
design's semantics, not of the declaration order a frontend happened to
emit.

Transforms return *new* circuits; the input circuit is never mutated.
:class:`SignalMap` packages the renaming with helpers that push
properties and traces forward (and back, via :meth:`SignalMap.inverse`).
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, Mapping, Optional

from repro.core.property import UnreachabilityProperty
from repro.netlist.cell import Gate, Register
from repro.netlist.circuit import Circuit, NetlistError
from repro.trace import Trace


class SignalMap:
    """A total or partial signal renaming ``old -> new``.

    Unmapped signals keep their names, so a partial map is always usable
    as a total function.
    """

    def __init__(self, mapping: Mapping[str, str]) -> None:
        self.mapping: Dict[str, str] = dict(mapping)
        values = list(self.mapping.values())
        if len(set(values)) != len(values):
            raise NetlistError("signal renaming is not injective")

    def __call__(self, name: str) -> str:
        return self.mapping.get(name, name)

    def inverse(self) -> "SignalMap":
        return SignalMap({new: old for old, new in self.mapping.items()})

    def map_property(
        self, prop: UnreachabilityProperty
    ) -> UnreachabilityProperty:
        return UnreachabilityProperty(
            prop.name, {self(s): v for s, v in prop.target.items()}
        )

    def map_trace(self, trace: Trace) -> Trace:
        return Trace(
            states=[
                {self(s): v for s, v in cube.items()}
                for cube in trace.states
            ],
            inputs=[
                {self(s): v for s, v in cube.items()}
                for cube in trace.inputs
            ],
            circuit_name=trace.circuit_name,
        )


def _rebuild(
    name: str,
    inputs: Iterable[str],
    gates: Iterable[Gate],
    registers: Iterable[Register],
    outputs: Iterable[str],
) -> Circuit:
    """Assemble a circuit from explicit cell sequences (declaration order
    is exactly the iteration order given)."""
    circuit = Circuit(name)
    for sig in inputs:
        circuit.add_input(sig)
    # Registers before gates: a register output is a legal gate fanin
    # regardless of declaration order, and keeping the register block
    # contiguous preserves the state-variable ordering everywhere.
    for reg in registers:
        circuit.add_register(reg.data, init=reg.init, output=reg.output)
    for gate in gates:
        circuit.add_gate(gate.op, gate.inputs, output=gate.output)
    for sig in outputs:
        circuit.mark_output(sig)
    circuit.validate()
    return circuit


def rename_signals(
    circuit: Circuit,
    mapping: Mapping[str, str],
    name: Optional[str] = None,
) -> Circuit:
    """Alpha-convert the circuit through ``mapping`` (old -> new).

    Unmapped signals keep their names; the mapping must be injective and
    must not collide with kept names.  Declaration order of every cell
    family is preserved, so engines that key off insertion order (BDD
    variable orders, canonical-trace pinning order) see the same
    *structure* under new labels.
    """
    smap = SignalMap(mapping)
    renamed = set(smap.mapping.values())
    for sig in circuit.signals():
        if sig not in smap.mapping and sig in renamed:
            raise NetlistError(
                f"renaming collides with existing signal {sig!r}"
            )
    return _rebuild(
        name or circuit.name,
        (smap(s) for s in circuit.inputs),
        (
            Gate(
                output=smap(g.output),
                op=g.op,
                inputs=tuple(smap(s) for s in g.inputs),
            )
            for g in circuit.gates.values()
        ),
        (
            Register(output=smap(r.output), data=smap(r.data), init=r.init)
            for r in circuit.registers.values()
        ),
        (smap(s) for s in circuit.outputs),
    )


def fresh_renaming(
    circuit: Circuit, seed: int = 0, prefix: str = "m"
) -> SignalMap:
    """A deterministic whole-circuit renaming: every signal gets a fresh
    opaque name ``<prefix><k>``, with ``k`` drawn from a seeded shuffle
    so the renaming does not accidentally preserve sort order."""
    signals = list(circuit.signals())
    indices = list(range(len(signals)))
    random.Random(seed).shuffle(indices)
    return SignalMap(
        {sig: f"{prefix}{idx}" for sig, idx in zip(signals, indices)}
    )


def permute_gates(circuit: Circuit, seed: int = 0) -> Circuit:
    """Re-declare the gates in a seeded random order.

    Inputs, registers and ports keep their declaration order; only the
    gate insertion order changes.  The gate *set* -- and therefore the
    transition relation -- is untouched.
    """
    gates = list(circuit.gates.values())
    random.Random(seed).shuffle(gates)
    return _rebuild(
        circuit.name,
        circuit.inputs,
        gates,
        circuit.registers.values(),
        circuit.outputs,
    )


def reorder_inputs(circuit: Circuit, seed: int = 0) -> Circuit:
    """Re-declare the primary inputs in a seeded random order.

    Gate and register order are preserved.  Input declaration order
    feeds lexicographic trace canonicalization and initial BDD variable
    orders, so verdicts (though not necessarily canonical-trace byte
    equality) must survive this permutation.
    """
    inputs = list(circuit.inputs)
    random.Random(seed).shuffle(inputs)
    return _rebuild(
        circuit.name,
        inputs,
        circuit.gates.values(),
        circuit.registers.values(),
        circuit.outputs,
    )


def permute_registers(circuit: Circuit, seed: int = 0) -> Circuit:
    """Re-declare the registers in a seeded random order (state-variable
    permutation).  The strongest declaration-order transform: it changes
    BDD variable orders and canonical pinning order, so only *verdicts*
    are expected to survive."""
    registers = list(circuit.registers.values())
    random.Random(seed).shuffle(registers)
    return _rebuild(
        circuit.name,
        circuit.inputs,
        circuit.gates.values(),
        registers,
        circuit.outputs,
    )


METAMORPHIC_TRANSFORMS = (
    "rename",
    "permute_gates",
    "reorder_inputs",
    "permute_registers",
)


def apply_transform(
    circuit: Circuit,
    prop: UnreachabilityProperty,
    transform: str,
    seed: int = 0,
):
    """Apply one named metamorphic transform; returns
    ``(circuit', prop', signal_map)`` with ``signal_map`` the renaming
    used (identity for pure reorderings)."""
    if transform == "rename":
        smap = fresh_renaming(circuit, seed=seed)
        return (
            rename_signals(circuit, smap.mapping),
            smap.map_property(prop),
            smap,
        )
    identity = SignalMap({})
    if transform == "permute_gates":
        return permute_gates(circuit, seed=seed), prop, identity
    if transform == "reorder_inputs":
        return reorder_inputs(circuit, seed=seed), prop, identity
    if transform == "permute_registers":
        return permute_registers(circuit, seed=seed), prop, identity
    raise ValueError(
        f"unknown transform {transform!r}; expected one of "
        f"{METAMORPHIC_TRANSFORMS}"
    )
