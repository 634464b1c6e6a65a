"""The structured ``EngineAbort`` exception taxonomy.

Every engine in the repro (SAT, BDD, reachability, ATPG, the kernel
simulator) can exhaust a resource mid-run.  Historically each reported
that differently -- ``SatStatus.UNKNOWN`` return codes, a raw
``BDDNodeLimit``, ad-hoc time checks -- which made it impossible for a
caller to tell *what* ran out and whether retrying with a bigger budget
could help.  This module is the single vocabulary: one base class with a
``resource`` tag, one subclass per exhaustible resource, and an
``injected`` flag so the chaos harness (:mod:`repro.runtime.chaos`) can
raise the very same exceptions the real engines do.

Design rule: engine-*local* countable caps (``AtpgBudget``'s per-solve
conflicts/decisions/propagations, ``ReachLimits``' iterations and
nodes, BMC depth) keep their return-code semantics -- the paper's
trace/impossible/resource-out answer; wall clock is the *runtime*
:class:`~repro.runtime.budget.Budget` alone, which is exception-based
and raises these aborts from its cooperative ``checkpoint()``/
``charge()`` calls.  The portfolio supervisor, ``Engine.run`` and the
fixpoint engines are the layers that catch them.
"""

from __future__ import annotations

from typing import Dict, Optional, Type


class EngineAbort(Exception):
    """An engine stopped because a resource ran out (or a fault was
    injected).  ``resource`` names what ran out; ``engine`` names the
    engine/step that was running; ``injected`` marks chaos faults."""

    resource: str = "resource"

    def __init__(
        self,
        detail: str = "",
        *,
        engine: Optional[str] = None,
        resource: Optional[str] = None,
        injected: bool = False,
    ) -> None:
        if resource is not None:
            self.resource = resource
        self.detail = detail or self.resource
        self.engine = engine
        self.injected = injected
        super().__init__(self.detail)

    def describe(self) -> str:
        where = f" in {self.engine}" if self.engine else ""
        tag = " (injected)" if self.injected else ""
        return f"{self.resource} exhausted{where}{tag}: {self.detail}"


class Timeout(EngineAbort):
    """Wall-clock deadline passed."""

    resource = "time"


class ConflictsOut(EngineAbort):
    """SAT conflict budget exhausted."""

    resource = "conflicts"


class DecisionsOut(EngineAbort):
    """SAT decision budget exhausted."""

    resource = "decisions"


class NodesOut(EngineAbort):
    """BDD node budget exhausted (``bdd.manager.BDDNodeLimit`` is a
    subclass, so catching ``NodesOut`` catches real manager blowups)."""

    resource = "nodes"


class MemoryOut(EngineAbort):
    """Process memory watermark exceeded."""

    resource = "memory"


class DepthOut(EngineAbort):
    """A bounded search (BMC fallback) exhausted its depth without an
    answer."""

    resource = "depth"


class InjectedFault(EngineAbort):
    """A chaos-harness fault with no real-engine counterpart (garbage
    verdicts, invalid results)."""

    resource = "injected-fault"

    def __init__(self, detail: str = "", **kwargs) -> None:
        kwargs.setdefault("injected", True)
        super().__init__(detail, **kwargs)


#: resource tag -> abort class, for reconstructing aborts from
#: serialized checkpoints and reach results.
ABORT_BY_RESOURCE: Dict[str, Type[EngineAbort]] = {
    cls.resource: cls
    for cls in (
        Timeout,
        ConflictsOut,
        DecisionsOut,
        NodesOut,
        MemoryOut,
        DepthOut,
        InjectedFault,
    )
}
