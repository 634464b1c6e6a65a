"""The portfolio supervisor: budgeted attempts, escalating retry,
engine fallback, and fault containment.

The supervisor is the *only* layer that catches
:class:`~repro.runtime.abort.EngineAbort` (plus ``MemoryError`` and
``RecursionError``, which it converts into the taxonomy).  Every RFN
step runs through :meth:`Supervisor.attempt`:

1. the step callable runs (through the chaos monkey when one is
   installed, so injected faults hit exactly here),
2. on an abort the step is retried -- the callable receives the attempt
   index so it can scale its own budgets (2x conflicts, 2x nodes, ...),
3. when retries are spent, an optional *fallback* engine runs (e.g. the
   hybrid trace engine falls back to BMC on the abstract model),
4. if everything failed the step returns a :class:`StepResult` whose
   ``abort`` names the failing engine and exhausted resource -- the
   caller downgrades to RESOURCE_OUT-with-partial-results instead of
   crashing.

Results are screened: a :class:`~repro.runtime.chaos.Garbage` sentinel
or a validator rejection counts as a fault, so a corrupted verdict can
never propagate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

from repro.obs import tracer as obs
from repro.runtime.abort import EngineAbort, InjectedFault, MemoryOut
from repro.runtime.budget import Budget, process_rss_mb
from repro.runtime.chaos import ChaosMonkey, Garbage

#: Exception classes the supervisor contains.  ``KeyboardInterrupt``
#: (BaseException) deliberately passes through: the CLI owns it.
CONTAINED = (EngineAbort, MemoryError, RecursionError)


@dataclass
class AbortInfo:
    """One contained engine failure, in JSON-able form."""

    engine: str
    resource: str
    detail: str
    injected: bool = False
    attempt: int = 0
    #: RSS watermark (MiB) snapshotted when a memory abort was contained,
    #: so post-mortems can tell an OOM near the limit from a stray
    #: MemoryError raised at 5% RSS.  None for non-memory aborts.
    rss_mb: Optional[float] = None

    @classmethod
    def from_exception(
        cls, engine: str, error: BaseException, attempt: int = 0
    ) -> "AbortInfo":
        if isinstance(error, EngineAbort):
            rss = None
            if error.resource == MemoryOut.resource and not error.injected:
                rss = process_rss_mb()
            return cls(
                engine=error.engine or engine,
                resource=error.resource,
                detail=error.detail,
                injected=error.injected,
                attempt=attempt,
                rss_mb=rss,
            )
        if isinstance(error, MemoryError):
            injected = "chaos" in str(error)
            return cls(
                engine=engine,
                resource=MemoryOut.resource,
                detail=str(error) or "MemoryError",
                injected=injected,
                attempt=attempt,
                rss_mb=None if injected else process_rss_mb(),
            )
        return cls(
            engine=engine,
            resource="recursion",
            detail=str(error) or type(error).__name__,
            attempt=attempt,
        )

    def describe(self) -> str:
        tag = " (injected)" if self.injected else ""
        return f"{self.engine}: {self.resource}{tag}: {self.detail}"

    def to_json(self) -> dict:
        payload = {
            "engine": self.engine,
            "resource": self.resource,
            "detail": self.detail,
            "injected": self.injected,
            "attempt": self.attempt,
        }
        if self.rss_mb is not None:
            payload["rss_mb"] = round(self.rss_mb, 1)
        return payload

    @classmethod
    def from_json(cls, payload: dict) -> "AbortInfo":
        return cls(
            engine=payload.get("engine", "?"),
            resource=payload.get("resource", "?"),
            detail=payload.get("detail", ""),
            injected=bool(payload.get("injected", False)),
            attempt=int(payload.get("attempt", 0)),
            rss_mb=payload.get("rss_mb"),
        )


@dataclass
class StepResult:
    """Outcome of one supervised step."""

    engine: str
    ok: bool = False
    value: Any = None
    attempts: int = 0
    fell_back: bool = False
    abort: Optional[AbortInfo] = None
    aborts: List[AbortInfo] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        """Did this step need a retry or fallback to succeed?"""
        return self.ok and (self.fell_back or bool(self.aborts))


class Supervisor:
    """Runs engine steps under containment (see module docstring)."""

    def __init__(
        self,
        budget: Optional[Budget] = None,
        chaos: Optional[ChaosMonkey] = None,
        log: Optional[Callable[[str], None]] = None,
        max_retries: int = 1,
    ) -> None:
        self.budget = budget
        self.chaos = chaos
        self.log = log
        self.max_retries = max_retries
        self.current_engine: Optional[str] = None
        self.aborts: List[AbortInfo] = []

    def _note(self, message: str) -> None:
        if self.log is not None:
            self.log(message)

    @property
    def budget_exhausted(self) -> bool:
        """Is the *run-level* wall clock gone?  (Retries are pointless
        then; the caller should finish with RESOURCE_OUT.)"""
        return self.budget is not None and self.budget.expired()

    # ------------------------------------------------------------------

    def _call(
        self,
        engine: str,
        fn: Callable[[int], Any],
        attempt: int,
        validate: Optional[Callable[[Any], bool]],
    ) -> Any:
        self.current_engine = engine
        try:
            with obs.span(f"step.{engine}", attempt=attempt):
                if self.chaos is not None:
                    self.chaos.before(engine)
                value = fn(attempt)
                if self.chaos is not None:
                    value = self.chaos.mangle(engine, value)
                if isinstance(value, Garbage):
                    raise InjectedFault(
                        f"garbage verdict from {engine!r}", engine=engine
                    )
                if validate is not None and not validate(value):
                    raise EngineAbort(
                        f"result from {engine!r} failed validation",
                        engine=engine,
                        resource="invalid-result",
                    )
                return value
        finally:
            self.current_engine = None

    def _record(
        self, engine: str, error: BaseException, attempt: int
    ) -> AbortInfo:
        info = AbortInfo.from_exception(engine, error, attempt)
        self.aborts.append(info)
        obs.event(
            "supervisor.contained",
            engine=info.engine,
            resource=info.resource,
            detail=info.detail,
            injected=info.injected,
            attempt=info.attempt,
        )
        self._note(f"[supervisor] contained {info.describe()}")
        return info

    def attempt(
        self,
        engine: str,
        fn: Callable[[int], Any],
        *,
        retries: Optional[int] = None,
        validate: Optional[Callable[[Any], bool]] = None,
        fallback: Optional[Callable[[int], Any]] = None,
        fallback_name: Optional[str] = None,
    ) -> StepResult:
        """Run ``fn`` under containment with escalating retry and an
        optional fallback engine.  Never raises a contained exception.

        ``fn(attempt)`` receives the 0-based attempt index so it can
        scale its budgets; ``fallback(0)`` runs once after retries are
        spent.  ``validate(value)`` screens results (garbage verdicts
        are screened unconditionally).
        """
        retries = self.max_retries if retries is None else retries
        result = StepResult(engine=engine)
        for attempt in range(retries + 1):
            if attempt > 0 and self.budget_exhausted:
                break
            if attempt > 0:
                obs.event(
                    "supervisor.retry", engine=engine, attempt=attempt
                )
            result.attempts += 1
            try:
                value = self._call(engine, fn, attempt, validate)
            except CONTAINED as error:
                result.aborts.append(self._record(engine, error, attempt))
                continue
            result.ok = True
            result.value = value
            return result
        if fallback is not None and not self.budget_exhausted:
            name = fallback_name or f"{engine}-fallback"
            result.attempts += 1
            try:
                value = self._call(name, fallback, 0, validate)
            except CONTAINED as error:
                result.aborts.append(self._record(name, error, 0))
            else:
                result.ok = True
                result.value = value
                result.fell_back = True
                obs.event(
                    "supervisor.fallback", engine=engine, fallback=name
                )
                self._note(
                    f"[supervisor] {engine!r} degraded to {name!r}"
                )
                return result
        result.abort = result.aborts[-1] if result.aborts else AbortInfo(
            engine=engine, resource="unknown", detail="no attempt ran"
        )
        return result
