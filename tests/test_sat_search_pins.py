"""The CDCL search, pinned: every solve below must reproduce the exact
``(status, conflicts, decisions, propagations, model digest)`` recorded
for it.

Any change to the solver's clause storage, watch-list order, decision
heap, learned-clause handling or restart schedule that alters the search
shows up here as a different conflict, decision or propagation count,
even when the answer stays the same.  The formulas are random 3-SAT
near the satisfiability threshold (clause/variable ratio 4.26), built
from a seeded integer LCG: no ``random`` module and no string hashing,
so the pins hold under any ``PYTHONHASHSEED`` and Python version.  The
cases cover both load paths (``absorb`` through an attached CNF and
per-clause ``add_clause``), assumptions, conflict caps, repeated solves
on one solver, a ``push``/``pop`` group and searches long enough to run
learned-clause reduction.
"""

import hashlib

import pytest

from repro.sat.cnf import CNF
from repro.sat.solver import Solver


class Lcg:
    """Knuth's MMIX LCG; ``below(n)`` draws from the high bits."""

    def __init__(self, seed):
        self.state = seed

    def below(self, bound):
        self.state = (
            self.state * 6364136223846793005 + 1442695040888963407
        ) % (1 << 64)
        return (self.state >> 33) % bound


def random_3sat(num_vars, seed, ratio=4.26):
    rng = Lcg(seed)
    clauses = []
    for _ in range(round(ratio * num_vars)):
        chosen = []
        while len(chosen) < 3:
            var = 1 + rng.below(num_vars)
            if var not in chosen:
                chosen.append(var)
        clauses.append([v if rng.below(2) else -v for v in chosen])
    return clauses


def random_lits(num_vars, count, seed):
    rng = Lcg(seed)
    lits = []
    while len(lits) < count:
        var = 1 + rng.below(num_vars)
        if var not in lits and -var not in lits:
            lits.append(var if rng.below(2) else -var)
    return lits


class CountingSolver(Solver):
    """Counts learned-clause reductions (the pins prove a case ran one)."""

    reductions = 0

    def _reduce_learned(self):
        self.reductions += 1
        super()._reduce_learned()


def loaded(num_vars, clauses, absorb):
    """A solver holding ``clauses``: through ``absorb`` or per clause."""
    if absorb:
        cnf = CNF()
        for _ in range(num_vars):
            cnf.new_var()
        cnf.add_clauses(clauses)
        solver = CountingSolver()
        solver.attach(cnf)
        solver.absorb()
    else:
        solver = CountingSolver()
        for clause in clauses:
            solver.add_clause(clause)
    return solver


def digest(result):
    bits = "".join("1" if result.model[v] else "0" for v in sorted(result.model))
    return hashlib.sha1(bits.encode()).hexdigest()[:12]


def pin(result):
    return (
        result.status.value,
        result.conflicts,
        result.decisions,
        result.propagations,
        digest(result),
    )


def run_case(name):
    kind, num_vars, seed = name.split("-")
    num_vars, seed = int(num_vars), int(seed)
    clauses = random_3sat(num_vars, seed)
    absorb = seed % 2 == 0
    solver = loaded(num_vars, clauses, absorb)
    if kind == "plain":
        pins = [pin(solver.solve())]
    elif kind == "assume":
        pins = [
            pin(solver.solve(random_lits(num_vars, count, seed + count)))
            for count in (2, 4, 6)
        ]
    elif kind == "capped":
        pins = [
            pin(solver.solve(max_conflicts=20)),
            pin(solver.solve(max_decisions=15)),
            pin(solver.solve()),
        ]
    elif kind == "group":
        base = solver.solve()
        solver.push()
        for clause in random_3sat(num_vars, seed + 1, ratio=0.8):
            solver.add_clause(clause)
        inside = solver.solve(random_lits(num_vars, 2, seed))
        solver.pop()
        pins = [pin(base), pin(inside), pin(solver.solve())]
    else:
        raise ValueError(name)
    return pins, solver


# case name -> (learned-clause reductions, one pin per solve in order)
PINS = {
    "plain-40-1": (0, [("unsat", 37, 39, 406, "da39a3ee5e6b")]),
    "plain-40-2": (0, [("unsat", 46, 50, 503, "da39a3ee5e6b")]),
    "plain-40-3": (0, [("sat", 0, 14, 40, "bd2cd33ca8d2")]),
    "plain-40-5": (0, [("sat", 14, 32, 224, "999c051d75b9")]),
    "plain-60-1": (0, [("sat", 33, 54, 596, "9adb405d91f7")]),
    "plain-60-2": (0, [("unsat", 111, 134, 1591, "da39a3ee5e6b")]),
    "plain-60-3": (0, [("sat", 70, 106, 1005, "57b79464ee4c")]),
    "plain-60-4": (0, [("sat", 30, 46, 468, "c76a86b415de")]),
    "plain-80-2": (0, [("sat", 87, 114, 1794, "4a104a0d4bbe")]),
    "plain-80-4": (0, [("unsat", 286, 337, 5373, "da39a3ee5e6b")]),
    "plain-100-1": (0, [("sat", 481, 564, 12129, "53340086a060")]),
    "plain-100-4": (0, [("unsat", 319, 366, 7112, "da39a3ee5e6b")]),
    "plain-120-1": (0, [("unsat", 623, 752, 16915, "da39a3ee5e6b")]),
    "plain-120-4": (0, [("sat", 719, 905, 19545, "a0a7e8f60085")]),
    "plain-150-5": (4, [("unsat", 2879, 3399, 88840, "da39a3ee5e6b")]),
    "plain-150-6": (2, [("sat", 1644, 2012, 55065, "9a980c05932d")]),
    "plain-150-8": (3, [("unsat", 2141, 2611, 66659, "da39a3ee5e6b")]),
    "plain-150-9": (4, [("sat", 2620, 3198, 82388, "afb944a880c6")]),
    "assume-60-4": (0, [
        ("sat", 17, 27, 349, "d72651d1ae4a"),
        ("sat", 1, 12, 72, "7649b7d3acc4"),
        ("sat", 0, 10, 60, "bee51010a508"),
    ]),
    "assume-60-5": (0, [
        ("sat", 5, 16, 155, "846db4bc33e9"),
        ("sat", 0, 8, 60, "846db4bc33e9"),
        ("unsat", 8, 7, 138, "da39a3ee5e6b"),
    ]),
    "assume-60-6": (0, [
        ("sat", 16, 33, 255, "5f4064d1b38b"),
        ("unsat", 29, 37, 450, "da39a3ee5e6b"),
        ("unsat", 15, 15, 206, "da39a3ee5e6b"),
    ]),
    "assume-80-1": (0, [
        ("sat", 19, 28, 452, "80a96949d1dc"),
        ("unsat", 29, 39, 477, "da39a3ee5e6b"),
        ("sat", 4, 17, 177, "d5acbe49b0aa"),
    ]),
    "assume-80-2": (0, [
        ("sat", 26, 47, 592, "164a7206b2f5"),
        ("sat", 0, 8, 80, "e5eb553dcc7c"),
        ("sat", 8, 18, 195, "66e87a3aac8f"),
    ]),
    "assume-80-3": (0, [
        ("unsat", 72, 83, 1417, "da39a3ee5e6b"),
        ("unsat", 37, 38, 784, "da39a3ee5e6b"),
        ("unsat", 1, 0, 16, "da39a3ee5e6b"),
    ]),
    "assume-80-4": (0, [
        ("unsat", 143, 169, 2761, "da39a3ee5e6b"),
        ("unsat", 23, 22, 402, "da39a3ee5e6b"),
        ("unsat", 9, 14, 176, "da39a3ee5e6b"),
    ]),
    "assume-80-5": (0, [
        ("sat", 20, 48, 518, "621c865a7fe2"),
        ("unsat", 51, 56, 1004, "da39a3ee5e6b"),
        ("unsat", 3, 3, 62, "da39a3ee5e6b"),
    ]),
    "capped-100-1": (0, [
        ("unknown", 46, 63, 990, "da39a3ee5e6b"),
        ("unknown", 45, 63, 1162, "da39a3ee5e6b"),
        ("sat", 448, 519, 11195, "d9a0cdb15fa8"),
    ]),
    "capped-100-2": (0, [
        ("unknown", 43, 63, 918, "da39a3ee5e6b"),
        ("unknown", 48, 63, 1093, "da39a3ee5e6b"),
        ("sat", 383, 441, 9894, "c02dab42f1a4"),
    ]),
    "capped-100-4": (0, [
        ("unknown", 48, 63, 1186, "da39a3ee5e6b"),
        ("unknown", 53, 63, 1148, "da39a3ee5e6b"),
        ("unsat", 309, 367, 6645, "da39a3ee5e6b"),
    ]),
    "capped-100-5": (0, [
        ("unknown", 54, 63, 1456, "da39a3ee5e6b"),
        ("unknown", 51, 63, 1406, "da39a3ee5e6b"),
        ("sat", 74, 99, 2139, "6d209702326e"),
    ]),
    "capped-120-1": (0, [
        ("unknown", 45, 63, 1184, "da39a3ee5e6b"),
        ("unknown", 46, 63, 1337, "da39a3ee5e6b"),
        ("unsat", 568, 681, 15025, "da39a3ee5e6b"),
    ]),
    "capped-120-2": (0, [
        ("unknown", 44, 63, 1192, "da39a3ee5e6b"),
        ("unknown", 46, 63, 1158, "da39a3ee5e6b"),
        ("unsat", 604, 706, 17086, "da39a3ee5e6b"),
    ]),
    "capped-120-3": (0, [
        ("unknown", 47, 63, 1118, "da39a3ee5e6b"),
        ("unknown", 48, 63, 1487, "da39a3ee5e6b"),
        ("sat", 366, 458, 10100, "e66afe7be58c"),
    ]),
    "capped-120-4": (0, [
        ("unknown", 48, 63, 1395, "da39a3ee5e6b"),
        ("unknown", 43, 63, 1188, "da39a3ee5e6b"),
        ("sat", 619, 756, 17382, "f07c2957d8b9"),
    ]),
    "group-60-1": (0, [
        ("sat", 33, 54, 596, "9adb405d91f7"),
        ("unsat", 6, 5, 66, "da39a3ee5e6b"),
        ("sat", 3, 9, 77, "d96e4310b9b4"),
    ]),
    "group-60-3": (0, [
        ("sat", 70, 106, 1005, "57b79464ee4c"),
        ("unsat", 4, 3, 37, "da39a3ee5e6b"),
        ("sat", 23, 31, 357, "e4227f67d01d"),
    ]),
    "group-60-4": (0, [
        ("sat", 30, 46, 468, "c76a86b415de"),
        ("unsat", 9, 8, 145, "da39a3ee5e6b"),
        ("sat", 15, 28, 266, "65fc8a2985b5"),
    ]),
    "group-80-2": (0, [
        ("sat", 87, 114, 1794, "4a104a0d4bbe"),
        ("unsat", 33, 38, 621, "da39a3ee5e6b"),
        ("sat", 27, 46, 639, "2a1ec815b6a1"),
    ]),
    "group-80-5": (0, [
        ("sat", 94, 143, 2382, "4acb64e5898f"),
        ("unsat", 63, 76, 1157, "da39a3ee5e6b"),
        ("sat", 31, 50, 682, "bb4186f949e6"),
    ]),
    "group-80-6": (0, [
        ("sat", 94, 129, 1914, "4f30016be9ef"),
        ("unsat", 33, 33, 593, "da39a3ee5e6b"),
        ("sat", 62, 93, 1502, "2cef0ae54de8"),
    ]),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_search_is_pinned(name):
    pins, solver = run_case(name)
    assert (pins, solver.reductions) == (PINS[name][1], PINS[name][0])


def test_some_cases_reduce_learned_clauses():
    assert sum(1 for reductions, _ in PINS.values() if reductions) >= 2
