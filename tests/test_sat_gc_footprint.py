"""Session building stays cheap for the cyclic garbage collector.

Every container object a solver session keeps alive is one the cyclic
collector traverses on each full collection, and a Table 1 pass builds
hundreds of sessions.  A clause costs one tracked object: the solver's
literal list.  The CNF keeps its clauses as all-int tuples, which the
collector stops tracking the first time it sees them.
"""

import gc

from repro.atpg.encode import SolverSession
from repro.designs import table1_workloads
from repro.kernel.scache import coi_model

MAX_TRACKED_PER_CLAUSE = 2.0


def test_session_adds_at_most_two_tracked_objects_per_clause():
    rows = {w.name: w for w in table1_workloads(paper_scale=False)}
    coi = coi_model(rows["error_flag"].circuit, rows["error_flag"].prop.signals())
    SolverSession(coi, 8)  # build the cached frame template first
    gc.collect()
    before = len(gc.get_objects())
    session = SolverSession(coi, 8)
    gc.collect()
    added = len(gc.get_objects()) - before
    clauses = session.cnf.num_clauses
    assert clauses > 10000
    assert added / clauses <= MAX_TRACKED_PER_CLAUSE, (added, clauses)
