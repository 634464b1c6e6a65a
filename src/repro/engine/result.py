"""`Limits` and `VerifyResult`: the one request/response pair every
engine speaks.

``Limits`` is the resource envelope an engine may spend: a wall-clock
cap that :meth:`~repro.engine.base.Engine.run` turns into the run's
:class:`~repro.runtime.budget.Budget` (a live ``Budget`` may ride along
too), countable caps, and the engine-specific knobs -- unrolling depth
for the SAT engines, a state cap for the explicit kernel.  Engines read
the caps they understand and ignore the rest.

``VerifyResult`` is the complete, self-describing answer: the canonical
:class:`~repro.engine.verdict.Verdict`, a witness kind naming *why* the
verdict can be trusted, the counterexample trace when falsified, the
contained :class:`AbortInfo` when the engine hit a resource wall, the
engine's ``PERF`` snapshot and wall-clock seconds.  Both directions of
JSON conversion are provided so results survive the journal, the result
files and the worker pipe without a per-layer serialization dialect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.engine.verdict import Verdict
from repro.runtime.budget import Budget
from repro.runtime.supervisor import AbortInfo
from repro.trace import Trace

#: Witness kinds: what a definite verdict offers as evidence.
WITNESS_TRACE = "trace"                    #: concrete counterexample
WITNESS_KINDUCTION = "k-induction"         #: inductive strengthening by depth
WITNESS_INVARIANT = "inductive-invariant"  #: reachable-set fixpoint
WITNESS_EXHAUSTIVE = "exhaustive-search"   #: full explicit state sweep
WITNESS_ABSTRACT_PROOF = "abstract-proof"  #: proof on a sound abstraction

WITNESS_KINDS = (
    WITNESS_TRACE,
    WITNESS_KINDUCTION,
    WITNESS_INVARIANT,
    WITNESS_EXHAUSTIVE,
    WITNESS_ABSTRACT_PROOF,
)


@dataclass
class Limits:
    """Resource envelope for one engine run.

    All caps are optional; ``None`` means unlimited.  ``max_seconds``
    is the engine boundary's time limit: ``Engine.run`` turns it into
    the ``Budget`` the engine body sees (a child of ``budget`` when both
    are set), the only wall-clock mechanism below it.  A live ``Budget``
    (never serialized -- it holds a deadline and a parent link) carries
    the cooperative metering hooks; the scalar caps exist so a forked
    worker can rebuild an equivalent budget on its side of the pipe.
    ``max_conflicts`` is the per-solve conflict cap the SAT adapters
    read, not a run total.
    """

    max_seconds: Optional[float] = None
    max_depth: Optional[int] = None
    max_conflicts: Optional[int] = None
    max_bdd_nodes: Optional[int] = None
    max_memory_mb: Optional[float] = None
    max_states: Optional[int] = None
    budget: Optional[Budget] = None

    def unlimited(self) -> bool:
        """True when no cap of any kind is set."""
        return (
            self.max_seconds is None
            and self.max_depth is None
            and self.max_conflicts is None
            and self.max_bdd_nodes is None
            and self.max_memory_mb is None
            and self.max_states is None
            and self.budget is None
        )


@dataclass
class VerifyResult:
    """One engine's complete answer to one verification instance."""

    engine: str
    verdict: Verdict = Verdict.UNKNOWN
    detail: str = ""
    #: witness kind (one of ``WITNESS_KINDS``) for definite verdicts;
    #: None when there is nothing to certify (unknown/error).
    witness: Optional[str] = None
    trace: Optional[Trace] = None
    abort: Optional[AbortInfo] = None
    seconds: float = 0.0
    perf: Dict[str, object] = field(default_factory=dict)
    #: Process-local proof artifacts (BDD function + encoding for an
    #: inductive-invariant witness).  Never serialized -- BDD nodes do
    #: not cross process boundaries; certification happens in-process.
    invariant: Optional[object] = None
    invariant_encoding: Optional[object] = None

    @property
    def definite(self) -> bool:
        return self.verdict.definite

    @property
    def verified(self) -> bool:
        return self.verdict is Verdict.VERIFIED

    @property
    def falsified(self) -> bool:
        return self.verdict is Verdict.FALSIFIED

    def to_json(self, include_trace: bool = False) -> dict:
        payload = {
            "engine": self.engine,
            "verdict": self.verdict.value,
            "detail": self.detail,
            "witness": self.witness,
            "trace_length": None if self.trace is None else self.trace.length,
            "abort": None if self.abort is None else self.abort.to_json(),
            "seconds": round(self.seconds, 4),
        }
        if include_trace and self.trace is not None:
            payload["trace"] = self.trace.to_json()
        return payload

    @classmethod
    def from_json(cls, payload: dict) -> "VerifyResult":
        trace = payload.get("trace")
        abort = payload.get("abort")
        return cls(
            engine=payload["engine"],
            verdict=Verdict(payload.get("verdict", "unknown")),
            detail=payload.get("detail", ""),
            witness=payload.get("witness"),
            trace=None if trace is None else Trace.from_json(trace),
            abort=None if abort is None else AbortInfo(**abort),
            seconds=payload.get("seconds", 0.0),
        )
