"""Per-layer tracing for the benchmark's traced run.

The wrappers live here, in the benchmark, around the public entry point
of each layer; nothing under ``src/`` is touched.  Installing them
follows three rules:

- Every binding a caller uses is patched.  Methods are patched on the
  class.  Functions are patched in the defining module *and* in every
  loaded ``repro`` module that imported the name (``forward_reach`` is
  bound in ``repro.core.rfn``, ``repro.core.coverage`` and
  ``repro.engine.adapters``); lazy ``from x import f`` statements inside
  function bodies resolve to the patched defining module at call time.
- Self time is a wrapped call's duration minus the wrapped calls beneath
  it, so each second lands in exactly one layer.
- Forked workers (``batch``) exit through ``os._exit``, so nothing is
  written at exit: :class:`RaceTimer` ships each call's delta home as
  one appended line while the worker is still running.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# (layer key, module, class or None, attribute).  A key may appear
# twice when one layer has two entry points (post/pre image).
ENTRY_POINTS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("core.rfn", "repro.core.rfn", "RFN", "run"),
    ("core.hybrid", "repro.core.hybrid", "HybridTraceEngine", "build_trace"),
    ("core.guided", "repro.core.guided", None, "guided_concrete_search"),
    ("core.refine", "repro.core.refine", None, "refine_from_trace"),
    ("core.refine_sim3", "repro.core.refine", None,
     "crucial_register_candidates"),
    ("core.refine_minimize", "repro.core.refine", None, "minimize_candidates"),
    ("atpg.session", "repro.atpg.encode", "SolverSession", "__init__"),
    ("atpg.unroll", "repro.atpg.encode", "Unroller", "extend_to"),
    ("atpg.sequential", "repro.atpg.engine", None, "sequential_atpg"),
    ("atpg.combinational", "repro.atpg.engine", None, "combinational_atpg"),
    ("sat.solve", "repro.sat.solver", "Solver", "solve"),
    ("mc.reach", "repro.mc.reach", None, "forward_reach"),
    ("mc.image", "repro.mc.images", "ImageComputer", "post_image"),
    ("mc.image", "repro.mc.images", "ImageComputer", "pre_image"),
    ("mc.encode", "repro.mc.encode", "SymbolicEncoding", "__init__"),
    ("mc.bmc", "repro.mc.bmc", None, "bmc"),
    ("bdd.sift", "repro.bdd.reorder", "ReorderMixin", "sift"),
    ("mincut", "repro.mincut.mincut", None, "min_cut_design"),
    ("netlist.extract", "repro.netlist.ops", None, "extract_subcircuit"),
    ("netlist.parse", "repro.netlist.textio", None, "circuit_from_text"),
    ("sim.interp", "repro.sim.simulator", "Simulator", "step"),
    ("engine", "repro.engine.base", "Engine", "run"),
    ("parallel.canonical", "repro.parallel.portfolio", None,
     "canonical_witness"),
)

#: The four race strategies ``repro batch`` runs by default.
ENGINES = ("bdd", "rfn", "kinduction", "bmc")
CACHES = ("compile", "frame_template", "solver_pool", "static_order")


def _bind_everywhere(original, replacement) -> None:
    """Point every loaded ``repro`` module binding of ``original`` at
    ``replacement``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class LayerTrace:
    """Self time, call counts and result-derived counters per layer."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[float] = []  # time spent in wrapped children
        self._patches: List[Tuple[object, str, object, object]] = []

    # -- accounting ------------------------------------------------------

    def _wrap(self, key, fn: Callable, hook: Optional[Callable]) -> Callable:
        stack = self._stack
        self_s, calls = self.self_s, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = key(args) if callable(key) else key
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self_s[name] += elapsed - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += elapsed
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return wrapper

    def state(self) -> Dict[str, Dict[str, float]]:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }

    def delta_since(self, before: Dict[str, Dict[str, float]]) -> Dict:
        now = self.state()
        return {
            part: {
                name: value - before[part].get(name, 0)
                for name, value in now[part].items()
                if value != before[part].get(name, 0)
            }
            for part in now
        }

    def merge(self, delta: Dict[str, Dict[str, float]]) -> None:
        for part in ("self_s", "calls", "counts"):
            target = getattr(self, part)
            for name, value in delta.get(part, {}).items():
                target[name] += value

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        for key, module_name, class_name, attr in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            hook = _HOOKS.get(key)
            wrapped_key = _engine_key if key == "engine" else key
            if class_name is not None:
                owner = getattr(module, class_name)
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(wrapped_key, original, hook))
                self._patches.append((owner, attr, original, None))
            else:
                original = getattr(module, attr)
                wrapper = self._wrap(wrapped_key, original, hook)
                _bind_everywhere(original, wrapper)
                self._patches.append((None, attr, original, wrapper))

    def uninstall(self) -> None:
        for owner, attr, original, wrapper in reversed(self._patches):
            if owner is not None:
                setattr(owner, attr, original)
            else:
                _bind_everywhere(wrapper, original)
        self._patches.clear()


def _engine_key(args) -> str:
    return f"engine.{args[0].name}"


# -- result hooks: counters read from what an entry point returns ---------


def _hook_rfn(counts, args, result) -> None:
    rfn = args[0]
    counts["core.iterations"] += len(result.iterations) - result.resumed_iterations
    counts["runtime.aborts"] += len(result.aborts)
    # An abort below the retry ceiling is what triggers a retry.
    counts["runtime.retries"] += sum(
        1 for abort in result.aborts if abort.attempt < rfn.config.max_retries
    )
    counts["runtime.fallbacks"] += sum(
        len(it.fallbacks.split(",")) for it in result.iterations if it.fallbacks
    )


def _hook_guided(counts, args, result) -> None:
    counts["core.guided_found"] += 1 if result.found else 0


def _hook_refine(counts, args, result) -> None:
    counts["core.refine_added"] += len(result.registers)
    counts["core.refine_candidates"] += result.stats.candidates


def _hook_atpg(counts, args, result) -> None:
    counts["atpg.aborted"] += 1 if result.outcome.value == "aborted" else 0


def _hook_sat(counts, args, result) -> None:
    counts["sat.conflicts"] += result.conflicts
    counts["sat.clauses"] += args[0].num_clauses


_HOOKS = {
    "core.rfn": _hook_rfn,
    "core.guided": _hook_guided,
    "core.refine": _hook_refine,
    "atpg.sequential": _hook_atpg,
    "atpg.combinational": _hook_atpg,
    "sat.solve": _hook_sat,
}


# -- kernel perf counters ---------------------------------------------------


def perf_state(perf) -> Dict[str, float]:
    """The ``PERF`` values the layer table uses, flattened."""
    snap = perf.snapshot()
    state = {"pattern_gate_evals": float(snap["pattern_gate_evals"])}
    for cache in CACHES:
        info = snap["caches"].get(cache, {})
        state[f"hits.{cache}"] = float(info.get("hits", 0))
        state[f"misses.{cache}"] = float(info.get("misses", 0))
    state["bdd.nodes"] = float(snap.get("gauges", {}).get("bdd.nodes", 0.0))
    return state


def merge_perf(total: Dict[str, float], delta: Dict[str, float]) -> None:
    for name, value in delta.items():
        if name == "bdd.nodes":  # a high-water gauge, not a counter
            total[name] = max(total.get(name, 0.0), value)
        else:
            total[name] = total.get(name, 0.0) + value


def perf_delta(before: Dict[str, float], after: Dict[str, float]) -> Dict:
    return {
        name: (value if name == "bdd.nodes" else value - before.get(name, 0.0))
        for name, value in after.items()
    }


class RaceTimer:
    """Times each ``repro.parallel.race`` call where it runs, in wall
    seconds (``t``) and in CPU seconds of the calling process (``cpu``).

    In the benchmark process a sample is kept in memory.  Inside a
    forked ``batch`` worker it is appended to ``path`` as one JSON line
    per call -- with the worker's layer and ``PERF`` deltas when a
    :class:`LayerTrace` is active -- because the worker leaves through
    ``os._exit`` and never runs exit handlers.
    """

    def __init__(self, perf, path: str) -> None:
        self.perf = perf
        self.owner = os.getpid()
        self.path = path
        self.layers: Optional[LayerTrace] = None
        self.local: List[Dict] = []

    def install(self) -> None:
        from repro.parallel import portfolio

        original = portfolio.race
        timer = self

        @functools.wraps(original)
        def race(*args, **kwargs):
            # In the benchmark process the active LayerTrace accumulates
            # directly; only a worker's deltas need shipping.
            in_worker = os.getpid() != timer.owner
            layers = timer.layers if in_worker else None
            if layers is not None:
                before, perf_before = layers.state(), perf_state(timer.perf)
            start, cpu_start = time.perf_counter(), time.process_time()
            result = original(*args, **kwargs)
            record: Dict = {
                "t": time.perf_counter() - start,
                "cpu": time.process_time() - cpu_start,
            }
            if layers is not None:
                record["layers"] = layers.delta_since(before)
                record["perf"] = perf_delta(perf_before, perf_state(timer.perf))
            if in_worker:
                timer._append(record)
            else:
                timer.local.append(record)
            return result

        _bind_everywhere(original, race)

    def _append(self, record: Dict) -> None:
        line = (json.dumps(record, sort_keys=True) + "\n").encode()
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, line)
        finally:
            os.close(fd)

    def collect(self) -> List[Dict]:
        """Every record since the last collect, in-process ones first."""
        records, self.local = self.local, []
        if os.path.exists(self.path):
            with open(self.path) as handle:
                records.extend(json.loads(line) for line in handle if line.strip())
            os.unlink(self.path)
        return records
