"""Lightweight performance counters for the compiled kernel.

A process-global :class:`PerfCounters` instance (``PERF``) accumulates
simulation throughput (gate evaluations, pattern-gate evaluations),
structural-cache hit rates (compile, topo, COI, Tseitin frame templates),
named event counters and gauges.  Everything is plain counters -- one
dict update per *call*, never per gate -- so the instrumentation itself
stays off the hot path.  Phase timing is not kept here: the kernel's
compile, Tseitin-template, unroll and replay phases are tracer spans
(:mod:`repro.obs.tracer`), the one timing mechanism.

Surfaced through ``python -m repro stats --perf`` and the
``benchmarks/bench_sim_throughput.py`` microbenchmark.
"""

from __future__ import annotations

from typing import Dict


class PerfCounters:
    """Accumulating counters; ``snapshot()`` renders a plain dict."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.gate_evals = 0  # one sweep over one gate (any lane count)
        self.pattern_gate_evals = 0  # gate sweeps x lanes
        self.patterns_simulated = 0  # lanes x cycles
        self.sim_seconds = 0.0
        self.cache_hits: Dict[str, int] = {}
        self.cache_misses: Dict[str, int] = {}
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}

    # -- generic named counters ----------------------------------------

    def bump(self, name: str, count: int = 1) -> None:
        """Accumulate a named event counter (incremental-SAT accounting:
        ``sat.clauses_reused``, ``sat.learned_retained``,
        ``unroll.frames_appended``, ...)."""
        self.counters[name] = self.counters.get(name, 0) + count

    def gauge(self, name: str, value: float, high_water: bool = True) -> None:
        """Record a point-in-time level (live BDD nodes, solver conflicts).
        By default keeps the high-water mark, the useful aggregate when a
        gauge is sampled at phase boundaries."""
        if high_water and name in self.gauges:
            value = max(value, self.gauges[name])
        self.gauges[name] = float(value)

    # -- cache accounting ----------------------------------------------

    def hit(self, cache: str, count: int = 1) -> None:
        self.cache_hits[cache] = self.cache_hits.get(cache, 0) + count

    def miss(self, cache: str, count: int = 1) -> None:
        self.cache_misses[cache] = self.cache_misses.get(cache, 0) + count

    def hit_rate(self, cache: str) -> float:
        hits = self.cache_hits.get(cache, 0)
        total = hits + self.cache_misses.get(cache, 0)
        return hits / total if total else 0.0

    # -- simulation accounting -----------------------------------------

    def record_sweep(self, gates: int, lanes: int, seconds: float = 0.0) -> None:
        """One levelized evaluation of ``gates`` gates over ``lanes``
        bit-parallel patterns."""
        self.gate_evals += gates
        self.pattern_gate_evals += gates * lanes
        self.patterns_simulated += lanes
        self.sim_seconds += seconds

    @property
    def pattern_gates_per_second(self) -> float:
        if self.sim_seconds <= 0.0:
            return 0.0
        return self.pattern_gate_evals / self.sim_seconds

    # -- cross-process aggregation ---------------------------------------

    def merge(self, snapshot: Dict[str, object]) -> None:
        """Fold a :meth:`snapshot` payload from another process into this
        instance.  Portfolio workers reset their own ``PERF``, run, and
        ship the snapshot over the result pipe; the parent merges every
        envelope so run-level counters cover the whole pool.  Derived
        fields (hit rates, pattern-gates/s) are recomputed, not merged.

        Tolerant by contract: a snapshot from a *newer* worker may carry
        keys this process has never heard of, or reshape a section this
        process does not consume -- both must merge without raising.
        Unknown top-level keys (among them the ``phases`` section older
        snapshots carried) are ignored; known sections skip entries
        whose values do not coerce."""
        self.gate_evals += _as_int(snapshot.get("gate_evals"))
        self.pattern_gate_evals += _as_int(snapshot.get("pattern_gate_evals"))
        self.patterns_simulated += _as_int(snapshot.get("patterns_simulated"))
        self.sim_seconds += _as_float(snapshot.get("sim_seconds"))
        for name, value in _as_dict(snapshot.get("counters")).items():
            self.bump(name, _as_int(value))
        for name, info in _as_dict(snapshot.get("caches")).items():
            info = _as_dict(info)
            self.hit(name, _as_int(info.get("hits")))
            self.miss(name, _as_int(info.get("misses")))
        for name, value in _as_dict(snapshot.get("gauges")).items():
            try:
                self.gauge(name, float(value))
            except (TypeError, ValueError):
                continue

    # -- reporting -------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        caches = {}
        for name in sorted(set(self.cache_hits) | set(self.cache_misses)):
            hits = self.cache_hits.get(name, 0)
            misses = self.cache_misses.get(name, 0)
            caches[name] = {
                "hits": hits,
                "misses": misses,
                "hit_rate": round(self.hit_rate(name), 4),
            }
        snap: Dict[str, object] = {
            "gate_evals": self.gate_evals,
            "pattern_gate_evals": self.pattern_gate_evals,
            "patterns_simulated": self.patterns_simulated,
            "sim_seconds": round(self.sim_seconds, 6),
            "pattern_gates_per_second": round(self.pattern_gates_per_second),
            "counters": dict(sorted(self.counters.items())),
            "caches": caches,
        }
        if self.gauges:
            snap["gauges"] = {
                name: round(self.gauges[name], 6)
                for name in sorted(self.gauges)
            }
        return snap

    def format(self) -> str:
        snap = self.snapshot()
        lines = ["kernel perf counters:"]
        lines.append(
            f"  simulation: {snap['pattern_gate_evals']} pattern-gate evals "
            f"in {snap['sim_seconds']}s "
            f"({snap['pattern_gates_per_second']:,} pattern-gates/s)"
        )
        if snap["counters"]:
            lines.append("  counters:")
            for name, value in snap["counters"].items():
                lines.append(f"    {name}: {value}")
        if snap["caches"]:
            lines.append("  caches:")
            for name, info in snap["caches"].items():
                lines.append(
                    f"    {name}: {info['hits']} hits / "
                    f"{info['misses']} misses "
                    f"({100 * info['hit_rate']:.1f}% hit rate)"
                )
        # Only present when gauges exist, so pre-gauge output stays
        # byte-identical.
        if snap.get("gauges"):
            lines.append("  gauges:")
            for name, value in snap["gauges"].items():
                lines.append(f"    {name}: {value:g}")
        return "\n".join(lines)


def _as_int(value: object) -> int:
    try:
        return int(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return 0


def _as_float(value: object) -> float:
    try:
        return float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return 0.0


def _as_dict(value: object) -> Dict[str, object]:
    return value if isinstance(value, dict) else {}


PERF = PerfCounters()
