"""The unified resource budget with cooperative ``checkpoint()`` polling.

One :class:`Budget` carries every limit a verification run can have --
wall-clock deadline, SAT conflicts/decisions, BDD nodes, a process
memory watermark -- and is threaded *into* the engines' hot loops.  It
is the only wall-clock mechanism below ``Engine.run`` (which turns
``Limits.max_seconds`` into one):

- ``sat.solver.Solver.solve(budget=...)`` charges conflicts/decisions
  and polls the deadline every few dozen decisions,
- ``bdd.manager.BDD.checkpoint_hook`` polls it every few thousand node
  allocations (so a single enormous image computation, or the
  transition-relation build before it, still aborts),
- ``mc.reach.forward_reach`` and ``mc.approx`` poll it per fixpoint
  iteration, ``mc.bmc`` per unrolling depth,
- ``kernel.bitsim.BitParallelSimulator`` polls it between plan segments,
- the RFN loop polls it per CEGAR iteration.

When a limit trips, the budget raises the matching
:class:`~repro.runtime.abort.EngineAbort` subtype; only the portfolio
supervisor catches those.  Sub-budgets (:meth:`sub`) let the supervisor
give one step a slice of the remaining time while still charging the
parent, so no retry cascade can overrun the top-level deadline.

Budgets serialize their *spent* side (:meth:`spent`, :meth:`to_json`)
so checkpoint files can report cumulative cost across resumed runs.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict, Optional

from repro.runtime.abort import (
    ConflictsOut,
    DecisionsOut,
    MemoryOut,
    NodesOut,
    Timeout,
)


_TRACER = None


def _tracer():
    """The obs tracer, resolved lazily (keeps this module import-light
    for the kernel layer that shares it) and cached."""
    global _TRACER
    if _TRACER is None:
        from repro.obs.tracer import TRACER as _TRACER_IMPORT

        _TRACER = _TRACER_IMPORT
    return _TRACER


def process_rss_mb() -> Optional[float]:
    """Peak resident-set size of this process in MiB, or None when the
    platform has no ``resource`` module (Windows)."""
    try:
        import resource as _resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS.
    if sys.platform == "darwin":  # pragma: no cover - platform specific
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0


class Budget:
    """A unified, hierarchical resource budget.

    ``None`` limits are unlimited.  All wall-clock accounting uses
    ``time.monotonic()``; ``deadline`` is the absolute monotonic instant
    the budget expires (the form the SAT solver consumes directly).
    """

    def __init__(
        self,
        max_seconds: Optional[float] = None,
        max_conflicts: Optional[int] = None,
        max_decisions: Optional[int] = None,
        max_bdd_nodes: Optional[int] = None,
        max_memory_mb: Optional[float] = None,
        name: str = "run",
        parent: Optional["Budget"] = None,
        prior: Optional[Dict[str, float]] = None,
    ) -> None:
        self.max_seconds = max_seconds
        self.max_conflicts = max_conflicts
        self.max_decisions = max_decisions
        self.max_bdd_nodes = max_bdd_nodes
        self.max_memory_mb = max_memory_mb
        self.name = name
        self.parent = parent
        self.conflicts = 0
        self.decisions = 0
        # Spent totals carried over from a resumed run (reporting only;
        # they do not shrink this run's limits).
        self.prior: Dict[str, float] = dict(prior or {})
        self._start = time.monotonic()
        # Last wall-clock decile (0-10) announced to the trace.
        self._decile = 0

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------

    def elapsed(self) -> float:
        """Seconds spent in *this* run (prior runs excluded)."""
        return time.monotonic() - self._start

    @property
    def deadline(self) -> Optional[float]:
        """Absolute ``time.monotonic()`` instant this budget expires,
        intersected with every ancestor's deadline."""
        own = (
            None
            if self.max_seconds is None
            else self._start + self.max_seconds
        )
        if self.parent is not None:
            up = self.parent.deadline
            if up is not None:
                own = up if own is None else min(own, up)
        return own

    def remaining_seconds(self) -> Optional[float]:
        deadline = self.deadline
        if deadline is None:
            return None
        return max(0.0, deadline - time.monotonic())

    def expired(self) -> bool:
        remaining = self.remaining_seconds()
        return remaining is not None and remaining <= 0.0

    # ------------------------------------------------------------------
    # Cooperative polling
    # ------------------------------------------------------------------

    def checkpoint(self, engine: Optional[str] = None) -> None:
        """Poll the deadline and memory watermark; raise on exhaustion.

        This is the call wired into every engine's hot loop.  It is
        cheap (one ``time.monotonic()``) and safe to invoke thousands of
        times per second.
        """
        deadline = self.deadline
        now = time.monotonic()
        if self.max_seconds is not None:
            tracer = _tracer()
            if tracer.enabled:
                decile = min(
                    10, int(10.0 * (now - self._start) / self.max_seconds)
                )
                if decile > self._decile:
                    self._decile = decile
                    spent = self.spent()
                    tracer.event(
                        "budget.spend",
                        {
                            "budget": self.name,
                            "decile": decile,
                            "engine": engine,
                            "seconds": spent["seconds"],
                            "conflicts": spent["conflicts"],
                            "decisions": spent["decisions"],
                        },
                    )
        if deadline is not None and now >= deadline:
            raise Timeout(
                f"budget {self.name!r} deadline passed after "
                f"{self.elapsed():.3f}s",
                engine=engine,
            )
        if self.max_memory_mb is not None:
            rss = process_rss_mb()
            if rss is not None and rss > self.max_memory_mb:
                raise MemoryOut(
                    f"budget {self.name!r}: RSS {rss:.1f} MiB over "
                    f"watermark {self.max_memory_mb:.1f} MiB",
                    engine=engine,
                )

    def charge(
        self,
        conflicts: int = 0,
        decisions: int = 0,
        engine: Optional[str] = None,
        enforce: bool = True,
    ) -> None:
        """Account SAT work against this budget (and every ancestor).

        With ``enforce`` the matching abort is raised once a counter
        limit is crossed; pass ``enforce=False`` for the final charge
        after a solver call already produced a definite answer.
        """
        self.conflicts += conflicts
        self.decisions += decisions
        if self.parent is not None:
            self.parent.charge(
                conflicts, decisions, engine=engine, enforce=enforce
            )
        if not enforce:
            return
        if (
            self.max_conflicts is not None
            and self.conflicts >= self.max_conflicts
        ):
            raise ConflictsOut(
                f"budget {self.name!r}: {self.conflicts} conflicts "
                f">= limit {self.max_conflicts}",
                engine=engine,
            )
        if (
            self.max_decisions is not None
            and self.decisions >= self.max_decisions
        ):
            raise DecisionsOut(
                f"budget {self.name!r}: {self.decisions} decisions "
                f">= limit {self.max_decisions}",
                engine=engine,
            )

    def note_nodes(self, nodes: int, engine: Optional[str] = None) -> None:
        """Check a BDD allocation count against the node budget."""
        if self.max_bdd_nodes is not None and nodes > self.max_bdd_nodes:
            raise NodesOut(
                f"budget {self.name!r}: {nodes} BDD nodes over limit "
                f"{self.max_bdd_nodes}",
                engine=engine,
            )
        if self.parent is not None:
            self.parent.note_nodes(nodes, engine=engine)

    def remaining_conflicts(self) -> Optional[int]:
        own = (
            None
            if self.max_conflicts is None
            else max(0, self.max_conflicts - self.conflicts)
        )
        if self.parent is not None:
            up = self.parent.remaining_conflicts()
            if up is not None:
                own = up if own is None else min(own, up)
        return own

    def hook(self, engine: str) -> Callable[[], None]:
        """A zero-argument checkpoint closure tagged with an engine name
        (the shape ``BDD.checkpoint_hook`` and the kernel expect)."""
        return lambda: self.checkpoint(engine=engine)

    # ------------------------------------------------------------------
    # Sub-budgets
    # ------------------------------------------------------------------

    def sub(
        self,
        name: str,
        seconds: Optional[float] = None,
        conflicts: Optional[int] = None,
        nodes: Optional[int] = None,
    ) -> "Budget":
        """A child budget for one supervised step.

        The child's limits are intersected with whatever remains here,
        its charges propagate upward, and its deadline can never exceed
        the parent's -- so a retried step cannot overrun the run.
        """
        remaining = self.remaining_seconds()
        if seconds is None:
            seconds = remaining
        elif remaining is not None:
            seconds = min(seconds, remaining)
        return Budget(
            max_seconds=seconds,
            max_conflicts=conflicts,
            max_bdd_nodes=nodes,
            max_memory_mb=self.max_memory_mb,
            name=f"{self.name}/{name}",
            parent=self,
        )

    # ------------------------------------------------------------------
    # Reporting / serialization
    # ------------------------------------------------------------------

    def spent(self) -> Dict[str, float]:
        """Cumulative spend, prior (resumed) runs included."""
        return {
            "seconds": round(
                self.elapsed() + float(self.prior.get("seconds", 0.0)), 4
            ),
            "conflicts": self.conflicts
            + int(self.prior.get("conflicts", 0)),
            "decisions": self.decisions
            + int(self.prior.get("decisions", 0)),
        }

    def limits(self) -> Dict[str, Optional[float]]:
        return {
            "max_seconds": self.max_seconds,
            "max_conflicts": self.max_conflicts,
            "max_decisions": self.max_decisions,
            "max_bdd_nodes": self.max_bdd_nodes,
            "max_memory_mb": self.max_memory_mb,
        }

    def to_json(self) -> dict:
        return {"name": self.name, "limits": self.limits(),
                "spent": self.spent()}

    @classmethod
    def from_json(cls, payload: dict) -> "Budget":
        limits = payload.get("limits", {})
        return cls(
            max_seconds=limits.get("max_seconds"),
            max_conflicts=limits.get("max_conflicts"),
            max_decisions=limits.get("max_decisions"),
            max_bdd_nodes=limits.get("max_bdd_nodes"),
            max_memory_mb=limits.get("max_memory_mb"),
            name=payload.get("name", "run"),
            prior=payload.get("spent", {}),
        )

    def __repr__(self) -> str:
        remaining = self.remaining_seconds()
        left = "inf" if remaining is None else f"{remaining:.2f}s"
        return f"Budget({self.name!r}, remaining={left})"
