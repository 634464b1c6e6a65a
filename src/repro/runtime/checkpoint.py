"""Checkpoint/resume for the CEGAR loop.

The RFN trajectory is deterministic given the circuit, the property,
the kept-register set, and the BDD variable order -- so a checkpoint
only needs those plus the iteration counter and the budget already
spent.  ``repro verify --resume ckpt.json`` reloads the file, rebuilds
the abstraction at the recorded refinement frontier, and continues the
loop from the next iteration instead of redoing completed refinements.

The file is plain JSON so operators can inspect a stuck run with
``jq``.  A version field and a circuit/property fingerprint guard
against resuming the wrong design.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.runtime.fsio import atomic_write_text

CHECKPOINT_VERSION = 1


@dataclass
class RfnCheckpoint:
    """Serializable CEGAR loop state (see module docstring)."""

    circuit_name: str = ""
    property_name: str = ""
    target: Dict[str, Any] = field(default_factory=dict)
    #: number of *completed* refinement iterations
    iteration: int = 0
    kept_registers: List[str] = field(default_factory=list)
    var_order: List[str] = field(default_factory=list)
    budget_spent: Dict[str, float] = field(default_factory=dict)
    iterations: List[Dict[str, Any]] = field(default_factory=list)
    status: str = "in_progress"
    version: int = CHECKPOINT_VERSION

    # ------------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "version": self.version,
            "circuit_name": self.circuit_name,
            "property_name": self.property_name,
            "target": self.target,
            "iteration": self.iteration,
            "kept_registers": sorted(self.kept_registers),
            "var_order": list(self.var_order),
            "budget_spent": dict(self.budget_spent),
            "iterations": list(self.iterations),
            "status": self.status,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "RfnCheckpoint":
        version = payload.get("version", 0)
        if version != CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {version!r} "
                f"(expected {CHECKPOINT_VERSION})"
            )
        return cls(
            circuit_name=payload.get("circuit_name", ""),
            property_name=payload.get("property_name", ""),
            target=dict(payload.get("target", {})),
            iteration=int(payload.get("iteration", 0)),
            kept_registers=list(payload.get("kept_registers", [])),
            var_order=list(payload.get("var_order", [])),
            budget_spent=dict(payload.get("budget_spent", {})),
            iterations=list(payload.get("iterations", [])),
            status=payload.get("status", "in_progress"),
            version=version,
        )

    def save(self, path: str) -> str:
        """Crash-atomically write the checkpoint (write-temp + fsync +
        rename via :func:`repro.runtime.fsio.atomic_write_text`), so a
        ``kill -9`` mid-write can never leave a truncated JSON file --
        the previous checkpoint survives intact."""
        text = json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"
        return atomic_write_text(path, text)

    @classmethod
    def load(cls, path: str) -> "RfnCheckpoint":
        with open(path) as handle:
            payload = json.load(handle)
        if not isinstance(payload, dict):
            raise ValueError(f"checkpoint {path!r} is not a JSON object")
        return cls.from_json(payload)

    # ------------------------------------------------------------------

    def validate_against(self, circuit, prop) -> None:
        """Refuse to resume onto a different design or property."""
        circuit_name = getattr(circuit, "name", "") or ""
        if self.circuit_name and circuit_name and (
            self.circuit_name != circuit_name
        ):
            raise ValueError(
                f"checkpoint is for circuit {self.circuit_name!r}, "
                f"not {circuit_name!r}"
            )
        prop_name = getattr(prop, "name", "") or ""
        if self.property_name and prop_name and (
            self.property_name != prop_name
        ):
            raise ValueError(
                f"checkpoint is for property {self.property_name!r}, "
                f"not {prop_name!r}"
            )
        registers = set(circuit.registers)  # dict of name -> Register
        missing = sorted(set(self.kept_registers) - registers)
        if missing:
            raise ValueError(
                f"checkpoint keeps registers absent from the circuit: "
                f"{', '.join(missing)}"
            )

    def describe(self) -> str:
        return (
            f"checkpoint: {self.circuit_name or '?'} / "
            f"{self.property_name or '?'}, iteration {self.iteration}, "
            f"{len(self.kept_registers)} registers kept, "
            f"status {self.status}"
        )
