"""The `Engine` protocol and the name-keyed engine registry.

An engine is anything that answers ``run(circuit, prop, limits) ->
VerifyResult``.  Subclasses implement :meth:`Engine._run`; the public
:meth:`Engine.run` turns ``Limits.max_seconds`` into the run's
:class:`~repro.runtime.budget.Budget` (the one wall-clock mechanism
below it), wraps the body with the standard containment the rest of
the system relies on (contained aborts degrade to ``UNKNOWN`` with an
:class:`AbortInfo`, crashes degrade to ``ERROR``) and stamps elapsed
time and the ``PERF`` snapshot.  The portfolio worker runs every
strategy through that containment (its chaos injection points sit
inside the contained body); only the fuzz oracle, which classifies
failures itself, passes ``contain=False``.

Capability tags are advisory labels consumers can filter on: the paper
distinguishes *formal*, *simulation* and *hybrid* engines, and a
portfolio scheduler cares whether an engine can ever answer VERIFIED
(``sound-for-true``) or is a falsification specialist.

The registry is deliberately lazy: ``repro.engine`` is imported by
`core.rfn` (for the verdict algebra) while the adapters import
`core.rfn` (to run the CEGAR loop).  Loading adapters on first lookup
-- not at package import -- is what breaks that cycle.
"""

from __future__ import annotations

import abc
import contextlib
import time
from dataclasses import replace
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.property import UnreachabilityProperty
from repro.engine.result import Limits, VerifyResult
from repro.engine.verdict import Verdict
from repro.kernel.perf import PERF
from repro.netlist.circuit import Circuit
from repro.runtime.budget import Budget
from repro.runtime.supervisor import CONTAINED, AbortInfo

#: Capability tags.
SOUND_FOR_TRUE = "sound-for-true"    #: a VERIFIED answer is trustworthy
SOUND_FOR_FALSE = "sound-for-false"  #: a FALSIFIED answer is trustworthy
BOUNDED = "bounded"                  #: explores up to a depth bound only
COMPLETE = "complete"                #: terminates with a definite answer
                                     #: given enough resources
NEEDS_ABSTRACT_MODEL = "needs-abstract-model"  #: reserved: runs on an
                                     #: abstraction, not the concrete design
FORMAL = "formal"                    #: symbolic/SAT/BDD engine
SIMULATION = "simulation"            #: explicit simulation engine
HYBRID = "hybrid"                    #: formal+simulation combination

CAPABILITIES = (
    SOUND_FOR_TRUE,
    SOUND_FOR_FALSE,
    BOUNDED,
    COMPLETE,
    NEEDS_ABSTRACT_MODEL,
    FORMAL,
    SIMULATION,
    HYBRID,
)


class Engine(abc.ABC):
    """One verification engine behind the canonical entrypoint."""

    name: str = ""
    description: str = ""
    capabilities: frozenset = frozenset()

    @abc.abstractmethod
    def _run(
        self,
        circuit: Circuit,
        prop: UnreachabilityProperty,
        limits: Limits,
    ) -> VerifyResult:
        """Engine body; may raise (containment happens in :meth:`run`)."""

    def run(
        self,
        circuit: Circuit,
        prop: UnreachabilityProperty,
        limits: Optional[Limits] = None,
        *,
        contain: bool = True,
    ) -> VerifyResult:
        """Run the engine; with ``contain`` (the default) this never
        raises short of ``KeyboardInterrupt``: contained aborts come
        back as ``UNKNOWN`` + :class:`AbortInfo`, crashes as ``ERROR``.
        ``contain=False`` propagates raw exceptions for callers with
        their own classification.

        ``limits.max_seconds`` becomes the budget the engine body sees
        (a child of ``limits.budget`` when both are set), so the float
        and a ``Budget`` of the same seconds stop every engine at the
        same point."""
        limits = limits if limits is not None else Limits()
        if limits.max_seconds is not None:
            parent = limits.budget
            # Under a parent: its deadline, node cap and memory
            # watermark still bind, and charges flow up to it.
            budget = (
                Budget(max_seconds=limits.max_seconds, name=self.name)
                if parent is None
                else parent.sub(
                    self.name,
                    seconds=limits.max_seconds,
                    nodes=parent.max_bdd_nodes,
                )
            )
            limits = replace(limits, max_seconds=None, budget=budget)
        start = time.perf_counter()
        try:
            result = self._run(circuit, prop, limits)
        except CONTAINED as error:
            if not contain:
                raise
            abort = AbortInfo.from_exception(self.name, error)
            result = VerifyResult(
                engine=self.name,
                verdict=Verdict.UNKNOWN,
                detail=abort.describe(),
                abort=abort,
            )
        except Exception as error:
            if not contain:
                raise
            result = VerifyResult(
                engine=self.name,
                verdict=Verdict.ERROR,
                detail=f"{type(error).__name__}: {error}",
            )
        if not result.seconds:
            result.seconds = time.perf_counter() - start
        if not result.perf:
            result.perf = PERF.snapshot()
        return result

    def describe(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "capabilities": sorted(self.capabilities),
        }


EngineBody = Callable[
    [Circuit, UnreachabilityProperty, Limits], VerifyResult
]


class FunctionEngine(Engine):
    """An engine wrapping a plain callable -- the adapter for ad-hoc
    bodies (service-layer checkpoint wiring, test stubs)."""

    def __init__(
        self,
        name: str,
        body: EngineBody,
        description: str = "",
        capabilities: frozenset = frozenset(),
    ) -> None:
        self.name = name
        self.description = description
        self.capabilities = capabilities
        self._body = body

    def _run(
        self,
        circuit: Circuit,
        prop: UnreachabilityProperty,
        limits: Limits,
    ) -> VerifyResult:
        return self._body(circuit, prop, limits)


class EngineRegistry:
    """Name-keyed engine registry with a lazy default-population hook.

    ``loader`` runs once, on first access, and registers the built-in
    adapters; explicit :meth:`register` calls before that first access
    also trigger it (so a replacement really replaces the built-in
    rather than shadowing a not-yet-loaded one).
    """

    def __init__(self, loader: Optional[Callable[[], None]] = None) -> None:
        self._engines: Dict[str, Engine] = {}
        self._loader = loader
        self._loaded = loader is None

    def _ensure_loaded(self) -> None:
        if not self._loaded:
            self._loaded = True  # set first: the loader calls register()
            loader = self._loader
            assert loader is not None
            loader()

    def register(self, engine: Engine, replace: bool = False) -> Engine:
        """Add an engine under its own name; ``replace`` allows
        overriding an existing entry (tests substitute instrumented
        engines this way -- the patch is inherited by forked workers)."""
        self._ensure_loaded()
        if not engine.name:
            raise ValueError("an engine needs a non-empty name")
        if engine.name in self._engines and not replace:
            raise ValueError(f"engine {engine.name!r} already registered")
        self._engines[engine.name] = engine
        return engine

    def get(self, name: str) -> Engine:
        self._ensure_loaded()
        try:
            return self._engines[name]
        except KeyError:
            raise KeyError(
                f"unknown engine {name!r} (known: {', '.join(self.names())})"
            ) from None

    def require(self, names: Iterable[str]) -> Tuple[str, ...]:
        """``names`` as a tuple once every one is registered; a
        ``ValueError`` (a usage error wherever names enter) lists the
        unknown ones."""
        checked = tuple(names)
        unknown = [name for name in checked if name not in self]
        if unknown:
            raise ValueError(
                f"unknown engine {', '.join(map(repr, unknown))} "
                f"(known: {', '.join(self.names())})"
            )
        return checked

    def names(self) -> Tuple[str, ...]:
        self._ensure_loaded()
        return tuple(sorted(self._engines))

    def __contains__(self, name: object) -> bool:
        self._ensure_loaded()
        return name in self._engines

    def __iter__(self) -> Iterator[Engine]:
        self._ensure_loaded()
        return iter([self._engines[name] for name in sorted(self._engines)])

    def describe(self) -> List[dict]:
        """JSON-able listing (the ``repro engines`` command)."""
        return [engine.describe() for engine in self]

    @contextlib.contextmanager
    def overlay(self, *engines: Engine) -> Iterator[None]:
        """Temporarily replace entries (by name); restores the previous
        mapping on exit.  The registry object is mutated in place, so
        workers forked inside the block inherit the overlay."""
        self._ensure_loaded()
        saved = dict(self._engines)
        try:
            for engine in engines:
                self.register(engine, replace=True)
            yield
        finally:
            self._engines.clear()
            self._engines.update(saved)


def _load_default_engines() -> None:
    # Imported here, not at module top: the adapters import the engine
    # implementations (core.rfn among them), and core.rfn imports this
    # package for the verdict algebra.
    import repro.engine.adapters  # noqa: F401


#: The process-wide registry every consumer resolves names against.
registry = EngineRegistry(loader=_load_default_engines)
