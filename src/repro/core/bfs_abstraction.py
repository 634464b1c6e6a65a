"""The BFS abstraction method of Ho et al. [8] (Table 2 baseline).

Given a set of coverage signals and a register budget ``k``, the BFS
method uses purely *topological* information: it keeps the ``k`` registers
closest to the coverage signals in the register dependency graph, builds
the min-cut subcircuit around them, and runs one forward fixpoint on that
subcircuit.  RFN's trace-driven refinement is compared against this
baseline in the paper's unreachable-coverage-state experiments.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set

from repro.netlist.circuit import Circuit
from repro.netlist.ops import (
    extract_subcircuit,
    register_dependency_graph,
    support_of,
)


@dataclass
class BfsAbstractionResult:
    model: Circuit
    registers: List[str]  # the k closest registers, in BFS order


def closest_registers(
    circuit: Circuit,
    signals: Iterable[str],
    k: int,
) -> List[str]:
    """The ``k`` registers closest to ``signals``: breadth-first over the
    register dependency graph, seeded with the registers the signals
    combinationally depend on (and the signals that are registers)."""
    graph = register_dependency_graph(circuit)
    seeds: List[str] = []
    seen: Set[str] = set()

    def add_seed(reg: str) -> None:
        if reg not in seen:
            seen.add(reg)
            seeds.append(reg)

    for sig in signals:
        if circuit.is_register_output(sig):
            add_seed(sig)
    for sig in support_of(circuit, list(signals)):
        if circuit.is_register_output(sig):
            add_seed(sig)

    order: List[str] = []
    queue = deque(seeds)
    while queue and len(order) < k:
        reg = queue.popleft()
        order.append(reg)
        for dep in sorted(graph[reg]):
            if dep not in seen:
                seen.add(dep)
                queue.append(dep)
    return order


def bfs_abstract_model(
    circuit: Circuit,
    signals: Sequence[str],
    k: int,
    name: Optional[str] = None,
) -> BfsAbstractionResult:
    """The BFS method's abstract model: the subcircuit of the ``k``
    topologically closest registers (the paper then min-cuts it before
    image computation; our symbolic engine quantifies inputs early, so the
    plain subcircuit is the honest equivalent)."""
    registers = closest_registers(circuit, signals, k)
    model = extract_subcircuit(
        circuit,
        registers,
        [s for s in signals if circuit.is_defined(s)],
        name=name or f"{circuit.name}.bfs{k}",
    )
    return BfsAbstractionResult(model=model, registers=registers)
