"""Unreachability properties and safety watchdogs.

An unreachability property P specifies a set A of initial states and a set
B of target ("bad") states; P is True when no target state is reachable
from any initial state (Section 2).  The initial states A come from the
circuit's register init values (free-init registers contribute both
values).  The target states B are given as a cube over register outputs.

All safety properties can be modeled this way; following Section 3, a
combinational "bad condition" is turned into a state property by a
*watchdog*: a sticky register that asserts once the condition fires.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping

from repro.netlist.circuit import Circuit, NetlistError


@dataclass(frozen=True)
class UnreachabilityProperty:
    """``target`` is a cube over register outputs defining the bad states."""

    name: str
    target: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.target:
            raise ValueError("property needs a non-empty target cube")
        for value in self.target.values():
            if value not in (0, 1):
                raise ValueError("target cube values must be 0 or 1")

    def signals(self) -> List[str]:
        """The signals mentioned in the property (the abstraction seeds)."""
        return sorted(self.target)

    def validate_against(self, circuit: Circuit) -> None:
        for name in self.target:
            if not circuit.is_register_output(name):
                raise NetlistError(
                    f"property {self.name!r}: target signal {name!r} is not "
                    f"a register output of {circuit.name!r} (wrap "
                    f"combinational conditions in a watchdog)"
                )

    def holds_in_state(self, state: Mapping[str, int]) -> bool:
        """Is this (total or partial) state a bad state?  Unassigned target
        signals count as non-matching."""
        return all(state.get(s) == v for s, v in self.target.items())


def watchdog_property(
    circuit: Circuit,
    bad_signal: str,
    name: str,
    watchdog_name: str = "",
) -> UnreachabilityProperty:
    """Model a safety property as unreachability with a watchdog module.

    Adds a sticky register that latches 1 forever once ``bad_signal`` is 1,
    and returns the property "watchdog = 1 is unreachable".  This mirrors
    how the paper's five Table-1 properties were modeled (Section 3).
    """
    if not circuit.is_defined(bad_signal):
        raise NetlistError(f"undefined bad-condition signal {bad_signal!r}")
    wd = watchdog_name or f"wd_{name}"
    data = circuit.fresh_name(f"{wd}_d")
    out = circuit.add_register(data, init=0, output=wd)
    circuit.g_or(out, bad_signal, output=data)
    circuit.mark_output(wd)
    return UnreachabilityProperty(name=name, target={wd: 1})
