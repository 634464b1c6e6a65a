"""Seeded random netlist generation with auto-derived properties.

The generator produces *small sequential circuits* shaped like the
designs the engines disagree about in practice: a soup of primitive
gates over primary inputs and register feedback, optionally spiced with
word-level blocks (counters with hold enables, comparators, shift
registers) built through :mod:`repro.netlist.words` -- the same helpers
the benchmark designs use, so fuzzing exercises the construction idioms
of the real workloads.

Everything is derived from one ``random.Random(seed)`` stream: the same
``(seed, GenConfig)`` pair always yields the identical circuit and
property, which is what makes corpus reproducers and CI fuzz smoke runs
stable across machines.  The rare-cube mode's random walk runs on the
kernel simulator; a test holds it to the instances an interpreted walk
derives.

Sizes are deliberately bounded so that the explicit-state kernel engine
of :mod:`repro.fuzz.oracle` remains a complete ground truth: total
register count stays small enough that the reachable state space is
exhaustively enumerable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.property import UnreachabilityProperty, watchdog_property
from repro.kernel.bitsim import BitParallelSimulator
from repro.netlist.cell import GateOp
from repro.netlist.circuit import Circuit
from repro.netlist.words import (
    WordReg,
    w_eq_const,
    w_inc,
    w_mux,
    w_shift_in,
)

# Gate ops the generator draws from, weighted roughly by how often they
# appear in the synthesized benchmark designs.
_OPS: Tuple[GateOp, ...] = (
    GateOp.AND,
    GateOp.OR,
    GateOp.XOR,
    GateOp.NAND,
    GateOp.NOR,
    GateOp.XNOR,
    GateOp.NOT,
    GateOp.BUF,
    GateOp.MUX,
)


@dataclass(frozen=True)
class GenConfig:
    """Knobs of the random netlist generator.

    ``min_/max_`` pairs are inclusive ranges sampled per instance.  The
    register ceiling (plain + word-block + watchdog) must stay small:
    the oracle's exhaustive kernel engine enumerates ``2**registers``
    states and ``2**inputs`` input vectors per state.
    """

    min_inputs: int = 2
    max_inputs: int = 4
    min_registers: int = 2
    max_registers: int = 4
    min_gates: int = 6
    max_gates: int = 16
    # Probability that one word-level block (counter / shift register)
    # is synthesized into the gate soup.
    word_block_prob: float = 0.5
    word_width_min: int = 2
    word_width_max: int = 3
    # Probability weights for register init values (0, 1, free).
    init_weights: Tuple[int, int, int] = (6, 3, 1)
    # Probability that a CONST0/CONST1 gets mixed into the signal pool.
    const_prob: float = 0.15
    # Property derivation: relative weights of the three modes --
    # watchdog over a random internal signal, a direct random cube over
    # register outputs, and a simulation-guided *rare cube* (a register
    # valuation a short random walk never visited, which biases toward
    # properties that are True or need deep counterexamples).
    mode_weights: Tuple[int, int, int] = (3, 3, 4)
    max_target_registers: int = 2
    rare_cube_registers: int = 3
    rare_cube_sim_cycles: int = 64


@dataclass
class FuzzInstance:
    """One generated (circuit, property) pair, plus its provenance."""

    circuit: Circuit
    prop: UnreachabilityProperty
    seed: Optional[int] = None
    config: Optional[GenConfig] = None

    @property
    def name(self) -> str:
        return self.circuit.name

    def stats(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "inputs": self.circuit.num_inputs,
            "gates": self.circuit.num_gates,
            "registers": self.circuit.num_registers,
            "target": dict(self.prop.target),
        }


def _random_init(rng: random.Random, config: GenConfig) -> Optional[int]:
    zero, one, free = config.init_weights
    pick = rng.randrange(zero + one + free)
    if pick < zero:
        return 0
    if pick < zero + one:
        return 1
    return None


def _add_word_block(
    circuit: Circuit, rng: random.Random, config: GenConfig, pool: List[str]
) -> None:
    """Synthesize one word-level construct and feed its bits into the
    signal pool."""
    width = rng.randint(config.word_width_min, config.word_width_max)
    if rng.random() < 0.5:
        # Counter with a hold enable and a comparator tap.
        ctr = WordReg(circuit, "wcnt", width, init=rng.randrange(1 << width))
        step, _ = w_inc(circuit, ctr.q)
        enable = rng.choice(pool)
        ctr.drive(w_mux(circuit, enable, ctr.q, step))
        pool.extend(ctr.q)
        pool.append(w_eq_const(circuit, ctr.q, rng.randrange(1 << width)))
    else:
        # Shift register clocking in a random pool bit.
        sreg = WordReg(circuit, "wsh", width, init=rng.randrange(1 << width))
        sreg.drive(w_shift_in(circuit, sreg.q, rng.choice(pool)))
        pool.extend(sreg.q)


def generate_circuit(
    seed: int, config: Optional[GenConfig] = None
) -> Tuple[Circuit, random.Random]:
    """Build one random sequential circuit; returns it together with the
    still-live RNG so property derivation continues the same stream."""
    config = config or GenConfig()
    rng = random.Random(seed)
    circuit = Circuit(f"fuzz{seed}")

    pool: List[str] = [
        circuit.add_input(f"i{k}")
        for k in range(rng.randint(config.min_inputs, config.max_inputs))
    ]

    # Plain registers: data nets declared up front so feedback through
    # the gate soup is possible; driven at the end.
    num_regs = rng.randint(config.min_registers, config.max_registers)
    data_nets: List[str] = []
    for k in range(num_regs):
        data = f"rd{k}"
        data_nets.append(data)
        pool.append(
            circuit.add_register(
                data, init=_random_init(rng, config), output=f"r{k}"
            )
        )

    if rng.random() < config.word_block_prob:
        _add_word_block(circuit, rng, config, pool)

    num_gates = rng.randint(config.min_gates, config.max_gates)
    for _ in range(num_gates):
        if rng.random() < config.const_prob:
            pool.append(circuit.g_const(rng.randint(0, 1)))
            continue
        op = rng.choice(_OPS)
        if op in (GateOp.NOT, GateOp.BUF):
            fanins = [rng.choice(pool)]
        elif op is GateOp.MUX:
            fanins = [rng.choice(pool) for _ in range(3)]
        else:
            arity = rng.randint(2, 3)
            fanins = rng.sample(pool, min(arity, len(pool)))
        pool.append(circuit.add_gate(op, fanins))

    for data in data_nets:
        circuit.g_buf(rng.choice(pool), output=data)

    circuit.validate()
    return circuit, rng


def _random_cube_property(
    circuit: Circuit, rng: random.Random, config: GenConfig, seed: int
) -> UnreachabilityProperty:
    registers = list(circuit.registers)
    count = rng.randint(1, min(config.max_target_registers, len(registers)))
    target = {name: rng.randint(0, 1) for name in rng.sample(registers, count)}
    return UnreachabilityProperty(f"fuzz{seed}_cube", target)


def _rare_cube_property(
    circuit: Circuit, rng: random.Random, config: GenConfig, seed: int
) -> UnreachabilityProperty:
    """A cube over a few registers that a short random walk (on the
    kernel simulator) never visited.  Such cubes are either genuinely
    unreachable or reachable only along narrow paths -- both the
    interesting cases for engine disagreement.

    The rng draws -- free-init registers, then each cycle's inputs in
    ``circuit.inputs`` order -- are part of the instance: reordering
    them changes every rare-cube instance a seed names."""
    registers = list(circuit.registers)
    count = min(len(registers), rng.randint(2, config.rare_cube_registers))
    chosen = rng.sample(registers, count)
    state = {
        name: (reg.init if reg.init is not None else rng.randint(0, 1))
        for name, reg in circuit.registers.items()
    }
    seen = {tuple(state[r] for r in chosen)}
    walk = (
        {name: rng.randint(0, 1) for name in circuit.inputs}
        for _ in range(config.rare_cube_sim_cycles)
    )
    data = [circuit.registers[r].data for r in chosen]
    for frame in BitParallelSimulator(circuit).replay(state, walk):
        seen.add(tuple(frame.value(d) for d in data))
    unseen = [
        bits
        for bits in itertools_product_bits(count)
        if bits not in seen
    ]
    if not unseen:
        return _random_cube_property(circuit, rng, config, seed)
    target = dict(zip(chosen, rng.choice(unseen)))
    return UnreachabilityProperty(f"fuzz{seed}_rare", target)


def itertools_product_bits(count: int) -> List[Tuple[int, ...]]:
    """All 0/1 tuples of the given length, lexicographic."""
    combos: List[Tuple[int, ...]] = [()]
    for _ in range(count):
        combos = [bits + (b,) for bits in combos for b in (0, 1)]
    return combos


def generate_instance(
    seed: int, config: Optional[GenConfig] = None
) -> FuzzInstance:
    """One (circuit, property) fuzz instance, reproducible from ``seed``.

    The property is auto-derived in one of three modes (see
    :attr:`GenConfig.mode_weights`): a watchdog over a random internal
    signal (the paper's Section-3 modeling of combinational safety
    conditions), a direct unreachability cube over register outputs, or
    a simulation-guided rare cube.  Whether it is True is for the
    engines to decide -- the oracle only demands that they all decide
    *the same thing*.
    """
    config = config or GenConfig()
    circuit, rng = generate_circuit(seed, config)
    wd_weight, cube_weight, rare_weight = config.mode_weights
    pick = rng.randrange(wd_weight + cube_weight + rare_weight)
    if pick < wd_weight or not circuit.registers:
        bad = rng.choice([s for s in circuit.signals()])
        prop = watchdog_property(circuit, bad, f"fuzz{seed}_wd")
        circuit.validate()
    elif pick < wd_weight + cube_weight:
        prop = _random_cube_property(circuit, rng, config, seed)
    else:
        prop = _rare_cube_property(circuit, rng, config, seed)
    prop.validate_against(circuit)
    return FuzzInstance(circuit=circuit, prop=prop, seed=seed, config=config)
