"""The differential oracle: one instance, every engine, one verdict.

Each engine answers "is the property's target cube reachable?" through a
completely different mechanism (each a registry engine of
:mod:`repro.engine`, run under the oracle's fixed per-engine ``Limits``
plus the instance budget):

- ``bmc``     -- SAT bounded model checking with simple-path k-induction
  (the registry's ``kinduction`` engine),
- ``bdd``     -- BDD forward reachability on the COI-reduced design,
- ``rfn``     -- the full abstraction-refinement CEGAR loop,
- ``kernel``  -- exhaustive explicit-state search, with the next-state
  function evaluated by the bit-parallel kernel simulator (a complete
  ground truth on the small circuits the fuzzer generates).

Verdicts are the canonical :class:`repro.engine.Verdict`; UNKNOWN
(a resource limit) never counts as disagreement.  Consensus and
disagreement detection are both a fold over :meth:`Verdict.join` --
the same code path the portfolio uses -- so the two layers cannot drift
apart on what "engines disagree" means.  Every verdict that carries an
artifact is independently certified through :mod:`repro.core.certify`:

- FALSIFIED traces are replayed on the simulator (``certify_error_trace``),
- VERIFIED answers with an inductive-invariant BDD (``bdd`` fixpoints and
  ``rfn`` results) are discharged as SAT obligations **on the original
  circuit** (``certify_invariant``) -- one engine's proof becomes the
  other engine's theorem.

A ``bmc`` TRUE comes from a k-induction proof with no exportable
artifact and is cross-checked only by agreement.

Any VERIFIED/FALSIFIED split, failed certificate, or engine exception is
a finding: :attr:`OracleReport.ok` is False and the shrinker takes over.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.certify import certify_error_trace, certify_invariant
from repro.core.property import UnreachabilityProperty
from repro.engine import (
    DisagreeError,
    Limits,
    Verdict,
    VerifyResult,
    join_all,
    registry,
)
from repro.netlist.circuit import Circuit
from repro.runtime.abort import EngineAbort
from repro.runtime.budget import Budget
from repro.trace import Trace


#: The oracle's fixed caps per engine, sized for the fuzzer's small
#: circuits; every limit degrades the verdict to UNKNOWN, never to a
#: wrong answer.  The ``bmc`` depth is further capped per circuit.
BMC_LIMITS = Limits(max_depth=34, max_conflicts=200_000)
BDD_LIMITS = Limits(max_bdd_nodes=500_000, max_seconds=20.0)
RFN_LIMITS = Limits(max_seconds=20.0)
KERNEL_LIMITS = Limits(max_states=1 << 13)
#: per-solve conflict cap of every invariant certificate
CERTIFY_MAX_CONFLICTS = 500_000


@dataclass
class EngineVerdict:
    engine: str
    verdict: Verdict
    detail: str = ""
    seconds: float = 0.0
    trace: Optional[Trace] = None
    #: witness kind for definite verdicts (``repro.engine`` constants)
    witness: Optional[str] = None
    # Certification outcome: None = no artifact to check.
    certificate: Optional[str] = None
    certificate_detail: str = ""
    #: process-local proof artifacts for ``certify_invariant`` (never
    #: serialized)
    invariant: Optional[object] = None
    invariant_encoding: Optional[object] = None

    @classmethod
    def from_result(cls, engine: str, result: VerifyResult) -> "EngineVerdict":
        """Oracle view of a :class:`VerifyResult` (the oracle keeps its
        own engine naming: its ``bmc`` entry is the k-induction
        adapter)."""
        return cls(
            engine=engine,
            verdict=result.verdict,
            detail=result.detail,
            seconds=result.seconds,
            trace=result.trace,
            witness=result.witness,
            invariant=result.invariant,
            invariant_encoding=result.invariant_encoding,
        )

    def to_json(self) -> dict:
        return {
            "engine": self.engine,
            "verdict": self.verdict.value,
            "detail": self.detail,
            "seconds": round(self.seconds, 4),
            "trace_length": None if self.trace is None else self.trace.length,
            "witness": self.witness,
            "certificate": self.certificate,
            "certificate_detail": self.certificate_detail,
        }


@dataclass
class OracleReport:
    name: str
    verdicts: List[EngineVerdict] = field(default_factory=list)
    disagreements: List[str] = field(default_factory=list)
    failed_certificates: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    seconds: float = 0.0
    #: did an instance budget cut one or more engines short?
    resource_out: bool = False

    @property
    def ok(self) -> bool:
        return not (self.disagreements or self.failed_certificates or self.errors)

    @property
    def consensus(self) -> Optional[Verdict]:
        """The agreed definite verdict, or None if there is none.

        A fold over :meth:`Verdict.join` -- identical to the portfolio's
        disagreement detection; a conflict (a finding, recorded in
        ``disagreements``) yields no consensus."""
        try:
            joined = join_all(
                v.verdict for v in self.verdicts if v.verdict.definite
            )
        except DisagreeError:
            return None
        return joined if joined.definite else None

    def verdict_of(self, engine: str) -> Optional[EngineVerdict]:
        for v in self.verdicts:
            if v.engine == engine:
                return v
        return None

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "consensus": None if self.consensus is None else self.consensus.value,
            "verdicts": [v.to_json() for v in self.verdicts],
            "disagreements": list(self.disagreements),
            "failed_certificates": list(self.failed_certificates),
            "errors": list(self.errors),
            "seconds": round(self.seconds, 4),
            "resource_out": self.resource_out,
        }

    def summary(self) -> str:
        parts = [
            f"{v.engine}={v.verdict.value}" for v in self.verdicts
        ]
        flag = "ok" if self.ok else "FINDING"
        return f"{self.name}: {' '.join(parts)} [{flag}]"


# ----------------------------------------------------------------------
# Engines
# ----------------------------------------------------------------------
#
# Each runner adds the instance budget to its engine's fixed Limits and
# runs the registry's engine with contain=False: run_oracle classifies
# raised aborts itself (a budget stop is a resource limit, an arbitrary
# crash is a finding), exactly as it always has.


def _run(
    oracle_name: str,
    engine: str,
    circuit: Circuit,
    prop: UnreachabilityProperty,
    limits: Limits,
    budget: Optional[Budget],
) -> EngineVerdict:
    result = registry.get(engine).run(
        circuit, prop, replace(limits, budget=budget), contain=False
    )
    return EngineVerdict.from_result(oracle_name, result)


def _run_bmc(
    circuit: Circuit, prop: UnreachabilityProperty, budget: Optional[Budget]
) -> EngineVerdict:
    # With simple-path constraints k-induction is complete at the
    # recurrence diameter; cap the unrolling at the state-count bound.
    depth = min(BMC_LIMITS.max_depth, (1 << circuit.num_registers) + 2)
    limits = replace(BMC_LIMITS, max_depth=depth)
    return _run("bmc", "kinduction", circuit, prop, limits, budget)


def _run_bdd(
    circuit: Circuit, prop: UnreachabilityProperty, budget: Optional[Budget]
) -> EngineVerdict:
    """Forward reachability on the COI reduction; a FIXPOINT exposes its
    reached-set BDD as a certifiable inductive invariant."""
    return _run("bdd", "bdd", circuit, prop, BDD_LIMITS, budget)


def _run_rfn(
    circuit: Circuit, prop: UnreachabilityProperty, budget: Optional[Budget]
) -> EngineVerdict:
    return _run("rfn", "rfn", circuit, prop, RFN_LIMITS, budget)


def _run_kernel(
    circuit: Circuit, prop: UnreachabilityProperty, budget: Optional[Budget]
) -> EngineVerdict:
    return _run("kernel", "kernel", circuit, prop, KERNEL_LIMITS, budget)


EngineRunner = Callable[
    [Circuit, UnreachabilityProperty, Optional[Budget]], EngineVerdict
]

# Name -> runner.  Tests monkeypatch entries here to inject deliberate
# engine bugs.
ENGINES: Dict[str, EngineRunner] = {
    "bmc": _run_bmc,
    "bdd": _run_bdd,
    "rfn": _run_rfn,
    "kernel": _run_kernel,
}

DEFAULT_ENGINES: Tuple[str, ...] = ("bmc", "bdd", "rfn", "kernel")


# ----------------------------------------------------------------------
# Certification and cross-checking
# ----------------------------------------------------------------------


def _certify_verdict(
    circuit: Circuit,
    prop: UnreachabilityProperty,
    verdict: EngineVerdict,
) -> None:
    """Attach an independent certificate to a definite verdict."""
    if verdict.verdict is Verdict.FALSIFIED and verdict.trace is not None:
        cert = certify_error_trace(circuit, prop, verdict.trace)
        verdict.certificate = cert.status.value
        verdict.certificate_detail = "; ".join(
            f"{k}: {v}" for k, v in cert.obligations.items()
        )
        return
    if (
        verdict.verdict is Verdict.VERIFIED
        and verdict.invariant is not None
        and verdict.invariant_encoding is not None
    ):
        cert = certify_invariant(
            circuit,
            prop,
            verdict.invariant,
            verdict.invariant_encoding,
            max_conflicts=CERTIFY_MAX_CONFLICTS,
        )
        verdict.certificate = cert.status.value
        verdict.certificate_detail = "; ".join(
            f"{k}: {v}" for k, v in cert.obligations.items()
        )


def run_oracle(
    circuit: Circuit,
    prop: UnreachabilityProperty,
    engines: Optional[Sequence[str]] = None,
    budget: Optional[Budget] = None,
) -> OracleReport:
    """Run every engine on one instance, certify every definite verdict
    and reconcile the verdicts.

    ``budget`` is a per-instance runtime budget: once it expires,
    remaining engines report UNKNOWN instead of running, and an
    in-flight engine that trips it is recorded as UNKNOWN -- a resource
    limit is never a finding.
    """
    names = tuple(engines) if engines is not None else DEFAULT_ENGINES
    report = OracleReport(name=circuit.name)
    start = time.monotonic()
    for name in names:
        runner = ENGINES[name]
        engine_start = time.monotonic()
        if budget is not None and budget.expired():
            report.resource_out = True
            report.verdicts.append(
                EngineVerdict(
                    name, Verdict.UNKNOWN, detail="instance budget exhausted"
                )
            )
            continue
        try:
            verdict = runner(circuit, prop, budget)
        except (EngineAbort, MemoryError) as error:
            # A budget stop is a resource limit, not an engine bug.
            report.resource_out = True
            verdict = EngineVerdict(
                name,
                Verdict.UNKNOWN,
                detail=f"instance budget: {error}",
                seconds=time.monotonic() - engine_start,
            )
        except Exception as error:  # an engine crash is itself a finding
            verdict = EngineVerdict(
                name,
                Verdict.ERROR,
                detail=f"{type(error).__name__}: {error}",
                seconds=time.monotonic() - engine_start,
            )
            report.errors.append(f"{name}: {verdict.detail}")
        report.verdicts.append(verdict)
        if verdict.verdict.definite:
            try:
                _certify_verdict(circuit, prop, verdict)
            except (EngineAbort, MemoryError):
                # Budget ran out mid-certification: not a finding.
                report.resource_out = True
            except Exception as error:
                verdict.certificate = "failed"
                verdict.certificate_detail = (
                    f"certifier crashed: {type(error).__name__}: {error}"
                )
            if verdict.certificate == "failed":
                report.failed_certificates.append(
                    f"{name}: {verdict.certificate_detail}"
                )

    definite = [v for v in report.verdicts if v.verdict.definite]
    try:
        # Identical detection to the portfolio: a fold over Verdict.join.
        join_all(v.verdict for v in definite)
    except DisagreeError:
        for a, b in itertools.combinations(definite, 2):
            if a.verdict is not b.verdict:
                report.disagreements.append(
                    f"{a.engine}={a.verdict.value} vs {b.engine}={b.verdict.value}"
                )
    report.seconds = time.monotonic() - start
    return report
