"""BDD-based symbolic model checking.

The formal engine of RFN's Step 2 and of the registry's ``bdd`` engine
(:class:`repro.engine.adapters.BddReachEngine`, the plain COI-reduced
model checker RFN is compared against in Table 1):

- :mod:`repro.mc.encode` -- circuit-to-BDD encoding: grouped current/next
  state variables, a DFS static variable order, next-state functions,
- :mod:`repro.mc.images` -- clustered transition relations with early
  quantification; post-image and pre-image operators,
- :mod:`repro.mc.reach` -- forward fixpoint computation with onion rings
  (the per-cycle reachable sets S1..Sk the hybrid engine consumes),
  on-the-fly target checking and error-trace extraction through the
  rings.
"""

from repro.mc.encode import SymbolicEncoding
from repro.mc.images import ImageComputer
from repro.mc.reach import ReachOutcome, ReachResult, forward_reach

__all__ = [
    "ImageComputer",
    "ReachOutcome",
    "ReachResult",
    "SymbolicEncoding",
    "forward_reach",
]
