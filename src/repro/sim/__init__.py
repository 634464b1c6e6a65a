"""Gate-level simulation engines.

RFN's refinement step relies on a *3-valued* (0/1/X) simulator: the abstract
error trace is replayed step-by-step on the original design, with every
register and primary input not assigned by the trace driven to the unknown
value X (Section 2.4).  This package holds the readable, interpreted form of
that simulator -- the reference semantics the tests hold the compiled
kernel (:mod:`repro.kernel.bitsim`, which every production path runs on)
to -- and random simulation utilities, which run on the kernel.
"""

from repro.sim.logic3 import ONE, X, ZERO, eval_gate, v_and, v_mux, v_not, v_or, v_xor
from repro.sim.simulator import Simulator, Valuation
from repro.sim.random_sim import RandomSimulator

__all__ = [
    "ONE",
    "RandomSimulator",
    "Simulator",
    "Valuation",
    "X",
    "ZERO",
    "eval_gate",
    "v_and",
    "v_mux",
    "v_not",
    "v_or",
    "v_xor",
]
