"""An integer-unit-like control cluster (Table 2: coverage sets IU1-IU5).

The paper draws its first five coverage-signal sets from the integer unit
of the Sun picoJava microprocessor -- registers "that encode control state
machines", all apparently inside one strongly connected control component
(the five sets share an identical COI).  This generator reproduces that
shape:

- ``units`` interlocked control FSMs, each with a ``state_bits``-bit
  binary state register that legally cycles through ``num_states``
  phases (so the encodings above ``num_states - 1`` are unreachable --
  the ground truth the coverage analysis should discover);
- an interlock chain: a unit leaves IDLE only while its predecessor is
  mid-pipeline, creating cross-unit unreachable combinations;
- a shared phase counter and a small datapath whose zero-flag gates every
  FSM's progress, putting all units (and the datapath) into one COI.

Each coverage set IUk is 10 state bits drawn from two adjacent units plus
the shared phase counter, giving 1024 coverage states per set like the
paper's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.netlist.circuit import Circuit
from repro.netlist.words import (
    WordReg,
    or_reduce,
    w_add,
    w_eq_const,
    w_inc,
    w_mux,
    word_input,
)


@dataclass(frozen=True)
class IuParams:
    units: int = 5
    state_bits: int = 4
    num_states: int = 10
    datapath_words: int = 4
    word_width: int = 8

    def __post_init__(self) -> None:
        if self.num_states > (1 << self.state_bits):
            raise ValueError("num_states does not fit in state_bits")
        if self.units < 2:
            raise ValueError("need at least two interlocked units")

    @classmethod
    def paper_scale(cls) -> "IuParams":
        """Hundreds of COI registers, like the picoJava IU runs."""
        return cls(units=5, state_bits=4, num_states=10,
                   datapath_words=24, word_width=16)


def build_iu(
    params: IuParams = IuParams(),
) -> Tuple[Circuit, Dict[str, List[str]]]:
    """Build the IU-like cluster; returns (circuit, coverage sets).

    Coverage sets ``IU1`` .. ``IU5``, 10 register outputs each.
    """
    c = Circuit("iu")
    go = [c.add_input(f"go{i}") for i in range(params.units)]
    din = word_input(c, "din", params.word_width)

    # Shared 2-bit phase counter: free-running scheduler phase.
    phase = WordReg(c, "phase", 2, init=0)
    phase_next, _ = w_inc(c, phase.q)
    phase.drive(phase_next)

    # Datapath: accumulators chained through adders; the zero flag of the
    # last accumulator gates FSM progress (datapath joins the COI).
    accs = [
        WordReg(c, f"acc{i}", params.word_width, init=0)
        for i in range(params.datapath_words)
    ]
    prev_word = din
    for acc in accs:
        total, _ = w_add(c, acc.q, prev_word)
        acc.drive(total)
        prev_word = acc.q
    dp_nonzero = or_reduce(c, accs[-1].q)
    dp_ready = c.g_not(dp_nonzero, output="dp_ready")

    # Interlocked FSM units.
    states: List[WordReg] = []
    for i in range(params.units):
        states.append(WordReg(c, f"u{i}_state", params.state_bits, init=0))
    for i, state in enumerate(states):
        idle = w_eq_const(c, state.q, 0)
        last = w_eq_const(c, state.q, params.num_states - 1)
        prev_state = states[(i - 1) % params.units]
        prev_mid = w_eq_const(c, prev_state.q, 2)
        prev_idle = w_eq_const(c, prev_state.q, 0)
        # Unit 0 may start whenever its predecessor is idle; the others
        # need their predecessor mid-pipeline (phase 2).
        enable = prev_idle if i == 0 else prev_mid
        start = c.g_and(go[i], idle, enable, dp_ready)
        advance = c.g_and(
            c.g_not(idle), c.g_not(last),
            c.g_or(dp_ready, w_eq_const(c, phase.q, i % 4)),
        )
        inc, _ = w_inc(c, state.q)
        zero = [c.g_const(0)] * params.state_bits
        one = [c.g_const(1)] + [c.g_const(0)] * (params.state_bits - 1)
        after_start = w_mux(c, start, state.q, one)
        after_adv = w_mux(c, advance, after_start, inc)
        nxt = w_mux(c, last, after_adv, zero)
        state.drive(nxt)

    coverage: Dict[str, List[str]] = {}
    for k in range(1, 6):
        a = (k - 1) % params.units
        b = k % params.units
        signals = list(states[a].q) + list(states[b].q) + list(phase.q)
        coverage[f"IU{k}"] = signals[:10]
    c.validate()
    return c, coverage
