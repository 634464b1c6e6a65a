"""Differential fuzzing: the engine-equivalence audit layer.

The repo holds several independently implemented answers to "is this
state reachable?" -- BDD forward reachability, SAT BMC with k-induction,
the full RFN CEGAR loop, and explicit-state search on the bit-parallel
kernel.  This package turns that redundancy into a machine-checked
correctness argument:

- :mod:`repro.fuzz.gen` -- a seeded, reproducible random netlist
  generator with auto-derived unreachability properties,
- :mod:`repro.fuzz.oracle` -- the differential harness: run every engine
  on one (circuit, property) instance, certify each VERIFIED/FALSIFIED
  verdict through :mod:`repro.core.certify`, flag disagreements,
- :mod:`repro.fuzz.shrink` -- delta-debugging of a disagreeing instance
  down to a minimal reproducer, serialized into the persistent corpus
  under ``tests/corpus/``,
- :mod:`repro.fuzz.campaign` -- the fuzz-loop driver behind the
  ``repro fuzz`` CLI subcommand and the CI smoke job.
"""

from repro.fuzz.gen import FuzzInstance, GenConfig, generate_circuit, generate_instance
from repro.fuzz.oracle import (
    EngineVerdict,
    OracleReport,
    Verdict,
    run_oracle,
)
from repro.fuzz.shrink import (
    instance_from_text,
    instance_to_text,
    load_corpus,
    load_instance,
    save_reproducer,
    shrink_instance,
    shrink_trace,
)
from repro.fuzz.campaign import CampaignResult, run_campaign

__all__ = [
    "CampaignResult",
    "EngineVerdict",
    "FuzzInstance",
    "GenConfig",
    "OracleReport",
    "Verdict",
    "generate_circuit",
    "generate_instance",
    "instance_from_text",
    "instance_to_text",
    "load_corpus",
    "load_instance",
    "run_campaign",
    "run_oracle",
    "save_reproducer",
    "shrink_instance",
    "shrink_trace",
]
