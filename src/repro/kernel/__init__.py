"""Compiled circuit kernel: the performance substrate of the RFN loop.

Three layers, each usable on its own:

- :mod:`repro.kernel.compile` -- one-time lowering of a
  :class:`~repro.netlist.circuit.Circuit` to flat integer-indexed arrays
  (signal table, levelized evaluation plan, register arrays),
- :mod:`repro.kernel.bitsim` -- a bit-parallel 3-valued simulator over
  the compiled form: two-plane word encoding, so one Python-level sweep
  evaluates 64+ patterns per gate,
- :mod:`repro.kernel.scache` -- structural caches keyed by circuit
  identity (mutation generation within an object, full structural
  fingerprint across objects): compiled circuits, Tseitin frame
  templates, static BDD variable orders.

:mod:`repro.kernel.perf` holds the process-global perf counters that the
``python -m repro stats --perf`` view and the throughput microbenchmark
report.
"""

from repro.kernel.bitsim import (
    BitParallelSimulator,
    Frame,
    pack_bits,
    pack_lanes,
    pack_value,
    planes_value,
)
from repro.kernel.compile import CompiledCircuit, compile_circuit_uncached
from repro.kernel.perf import PERF, PerfCounters
from repro.kernel.scache import (
    compiled,
    fingerprint,
    frame_template,
    FrameTemplate,
    static_order,
)

__all__ = [
    "PERF",
    "BitParallelSimulator",
    "CompiledCircuit",
    "Frame",
    "FrameTemplate",
    "PerfCounters",
    "compile_circuit_uncached",
    "compiled",
    "fingerprint",
    "frame_template",
    "pack_bits",
    "pack_lanes",
    "pack_value",
    "planes_value",
    "static_order",
]
