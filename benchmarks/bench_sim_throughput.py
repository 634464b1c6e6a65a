"""Microbenchmark: compiled kernel vs interpreted hot paths.

Tracks the perf trajectory of the two kernels this repo's RFN loop leans
on from this PR onward, emitting machine-readable JSON
(``benchmarks/out/sim_throughput.json``):

- **simulation throughput**: random 2-valued patterns/second through the
  interpreted :class:`repro.sim.Simulator` vs the bit-parallel
  :class:`repro.kernel.BitParallelSimulator`, on the FIFO and CPU
  designs at CI scale;
- **Tseitin encoding**: wall time to unroll a refinement-iteration model
  with a cold structural cache vs a warm one (the cross-CEGAR
  frame-template cache);
- **tracing overhead**: bit-parallel throughput with the obs tracer
  enabled vs disabled, the median over alternating pairs.  Spans wrap
  phases, never per-gate work, so the enabled tracer must cost nothing
  measurable inside the hot loop.

Runs standalone (``python benchmarks/bench_sim_throughput.py``) or under
pytest (``pytest benchmarks/bench_sim_throughput.py``).
"""

from __future__ import annotations

import random
import statistics
import time

from repro.atpg.encode import Unroller
from repro.core.abstraction import Abstraction
from repro.designs import table1_workloads
from repro.kernel import PERF, BitParallelSimulator, pack_bits
from repro.kernel.scache import clear_caches
from repro.sim import Simulator

from reporting import emit_json

LANES = 256
CYCLES = 32
UNROLL_CYCLES = 12
#: untraced/traced pairs behind the tracing-overhead median
OVERHEAD_PAIRS = 9


def _interpreted_pps(circuit, cycles: int) -> float:
    rng = random.Random(0)
    sim = Simulator(circuit)
    state = sim.initial_state(default=0)
    start = time.perf_counter()
    for _ in range(cycles):
        inputs = {n: rng.randint(0, 1) for n in circuit.inputs}
        _, state = sim.step(state, inputs)
    return cycles / (time.perf_counter() - start)


def _bitparallel_pps(circuit, lanes: int, cycles: int) -> float:
    rng = random.Random(0)
    bitsim = BitParallelSimulator(circuit)
    state = bitsim.initial_state(lanes, default=0)
    start = time.perf_counter()
    for _ in range(cycles):
        inputs = {
            n: pack_bits(rng.getrandbits(lanes), lanes)
            for n in circuit.inputs
        }
        _, state = bitsim.step(state, inputs, lanes)
    return lanes * cycles / (time.perf_counter() - start)


def _encode_seconds(model, cycles: int) -> float:
    start = time.perf_counter()
    Unroller(model, cycles, use_initial_state=True)
    return time.perf_counter() - start


def _tracing_overhead(circuit) -> dict:
    """Bit-parallel throughput with tracing off vs on, measured as
    ``OVERHEAD_PAIRS`` back-to-back pairs whose first side alternates,
    so host drift lands on both sides alike; the overhead is the median
    of the per-pair overheads.  The hot loop contains no obs call sites
    by design; the budget for the enabled tracer is <= 2% (noise floor
    permitting)."""
    from repro.obs import tracer as obs

    def patterns_per_s(traced: bool) -> float:
        if not traced:
            return _bitparallel_pps(circuit, LANES, CYCLES)
        obs.TRACER.enable()
        try:
            with obs.span("bench.sim_throughput", design=circuit.name):
                return _bitparallel_pps(circuit, LANES, CYCLES)
        finally:
            obs.TRACER.close()

    obs.TRACER.close()
    pairs = []
    for index in range(OVERHEAD_PAIRS):
        traced_first = index % 2 == 1
        first = patterns_per_s(traced_first)
        second = patterns_per_s(not traced_first)
        off, on = (second, first) if traced_first else (first, second)
        pairs.append({
            "traced_first": traced_first,
            "disabled_patterns_per_s": round(off, 1),
            "enabled_patterns_per_s": round(on, 1),
            "overhead_pct": round(100.0 * (1.0 - on / off), 2),
        })
    return {
        "disabled_patterns_per_s": statistics.median(
            p["disabled_patterns_per_s"] for p in pairs
        ),
        "enabled_patterns_per_s": statistics.median(
            p["enabled_patterns_per_s"] for p in pairs
        ),
        "overhead_pct": statistics.median(p["overhead_pct"] for p in pairs),
        "pairs": pairs,
    }


def run_benchmark() -> dict:
    workloads = {w.name: w for w in table1_workloads()}
    payload = {"lanes": LANES, "cycles": CYCLES, "designs": {}}

    for name in ("psh_full", "mutex"):
        circuit = workloads[name].circuit
        interp = _interpreted_pps(circuit, CYCLES)
        kernel = _bitparallel_pps(circuit, LANES, CYCLES)
        payload["designs"][circuit.name] = {
            "gates": circuit.num_gates,
            "registers": circuit.num_registers,
            "interpreted_patterns_per_s": round(interp, 1),
            "bitparallel_patterns_per_s": round(kernel, 1),
            "speedup": round(kernel / interp, 1),
        }

    # A refinement-iteration shape: the mutex property's abstract model
    # after pulling a slice of the COI in, unrolled the way
    # trace_satisfiable_on would.  Cold = empty structural cache
    # (template built from scratch); warm = the cross-CEGAR cache hit
    # the next iteration gets.
    mutex = workloads["mutex"]
    abstraction = Abstraction.initial(mutex.circuit, mutex.prop)
    abstraction.refine(sorted(abstraction.remaining_coi_registers())[:16])
    model = abstraction.model
    clear_caches()
    cold = _encode_seconds(model, UNROLL_CYCLES)
    warm = _encode_seconds(model, UNROLL_CYCLES)
    payload["tseitin_encode"] = {
        "model_gates": model.num_gates,
        "unroll_cycles": UNROLL_CYCLES,
        "cold_seconds": round(cold, 6),
        "cached_seconds": round(warm, 6),
        "speedup": round(cold / warm, 2) if warm > 0 else None,
    }
    payload["tracing_overhead"] = _tracing_overhead(
        workloads["psh_full"].circuit
    )
    payload["perf_counters"] = PERF.snapshot()
    return payload


def test_sim_throughput():
    """CI gate: bit-parallel simulation is >= 10x the interpreted
    simulator on both designs, and cached re-encoding beats cold."""
    payload = run_benchmark()
    emit_json("sim_throughput", payload)
    for name, row in payload["designs"].items():
        assert row["speedup"] >= 10.0, (name, row)
    enc = payload["tseitin_encode"]
    assert enc["cached_seconds"] < enc["cold_seconds"], enc
    # Budget: <= 2% tracing overhead.  The CI gate allows 10% because
    # shared runners jitter more than the budget itself; the measured
    # number lands in the JSON artifact for trend tracking.
    overhead = payload["tracing_overhead"]
    assert overhead["overhead_pct"] <= 10.0, overhead


if __name__ == "__main__":
    result = run_benchmark()
    emit_json("sim_throughput", result)
