"""A conflict-driven clause-learning (CDCL) SAT solver.

MiniSat-style architecture: two-watched-literal propagation, VSIDS
branching with phase saving, first-UIP conflict analysis with clause
minimization, Luby restarts and activity-based learned-clause reduction.

The solver is *budgeted*: ``solve`` takes optional conflict and decision
limits and reports :data:`SatStatus.UNKNOWN` when they are exceeded, which
is how the ATPG layer reproduces the paper's "some resource limits are
exceeded" outcome.  It is also *incremental*: clauses may be added between
``solve`` calls, each call may carry assumption literals, and learned
clauses survive across calls, so a sequence of related queries (BMC
depths, CEGAR refinement probes) keeps paying into one clause database
instead of restarting from zero (the single-instance formulation of
Een-Mishchenko-Amla).

Two mechanisms make single-instance reuse practical:

- :meth:`Solver.attach`/:meth:`Solver.absorb` bind the solver to a
  growing :class:`~repro.sat.cnf.CNF` and feed it only the clauses added
  since the last sync -- the unroller appends one time frame, the solver
  absorbs one frame;
- :meth:`Solver.push`/:meth:`Solver.pop` open and retract activation-
  literal clause groups: clauses added inside a group are extended with
  the negated activation literal, every ``solve`` assumes the open
  groups' literals, and ``pop`` retracts the group by unit-asserting the
  negation and garbage-collecting the group's clauses (learned clauses
  that depend on the group carry the same literal and are collected with
  it; independent learned clauses survive).
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.sat.cnf import CNF

UNASSIGNED = -1


class SatStatus(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass
class SatResult:
    """Outcome of one ``solve`` call."""

    status: SatStatus
    model: Dict[int, bool] = field(default_factory=dict)
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0

    @property
    def is_sat(self) -> bool:
        return self.status is SatStatus.SAT

    @property
    def is_unsat(self) -> bool:
        return self.status is SatStatus.UNSAT

    @property
    def is_unknown(self) -> bool:
        return self.status is SatStatus.UNKNOWN


class _Clause:
    __slots__ = ("lits", "learned", "activity")

    def __init__(self, lits: List[int], learned: bool = False) -> None:
        self.lits = lits
        self.learned = learned
        self.activity = 0.0


class Solver:
    """CDCL solver over DIMACS-style integer literals."""

    def __init__(self, cnf: Optional[CNF] = None) -> None:
        self._nvars = 0
        self._value: List[int] = [UNASSIGNED]  # 1-indexed by var
        self._level: List[int] = [0]
        self._reason: List[Optional[_Clause]] = [None]
        self._phase: List[int] = [0]
        self._activity: List[float] = [0.0]
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._cla_inc = 1.0
        self._cla_decay = 0.999
        self._order: List[tuple] = []  # lazy max-heap of (-activity, var)
        self._watches: Dict[int, List[_Clause]] = {}
        self._clauses: List[_Clause] = []
        self._learned: List[_Clause] = []
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._qhead = 0
        self._unsat = False
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self._groups: List[int] = []  # open activation literals, LIFO
        self._attached: Optional[CNF] = None
        self._absorbed = 0  # clauses of the attached CNF already added
        if cnf is not None:
            self.attach(cnf)
            self.absorb()

    # ------------------------------------------------------------------
    # Problem construction
    # ------------------------------------------------------------------

    def new_var(self) -> int:
        self._nvars += 1
        self._value.append(UNASSIGNED)
        self._level.append(0)
        self._reason.append(None)
        self._phase.append(0)
        self._activity.append(0.0)
        heapq.heappush(self._order, (0.0, self._nvars))
        return self._nvars

    def _ensure_var(self, var: int) -> None:
        while self._nvars < var:
            self.new_var()

    # ------------------------------------------------------------------
    # Incremental growth: attached CNF sync and activation-literal groups
    # ------------------------------------------------------------------

    def attach(self, cnf: CNF) -> None:
        """Bind this solver to a growing CNF: :meth:`absorb` then feeds
        only the clauses appended since the previous sync.  Variable
        numbering is shared -- :meth:`push` allocates its activation
        variables in the attached CNF so the two never diverge."""
        if self._attached is not None and self._attached is not cnf:
            raise RuntimeError("solver is already attached to another CNF")
        self._attached = cnf

    def absorb(self) -> int:
        """Add every clause of the attached CNF not yet in the solver;
        returns how many were absorbed.  Clauses land in the innermost
        open activation group, if any.

        The load is one inlined pass: :class:`CNF` clauses are already
        deduplicated and tautology-free, so a clause of two or more
        literals none of which is assigned at level 0 is attached
        directly.  Every other clause (units, empty clauses, clauses
        touching a level-0 assignment, clauses joining an open group)
        goes through :meth:`add_clause` at the same point in the
        sequence, so the clause order, watch lists, trail and heap end
        up exactly as per-clause ``add_clause`` calls leave them."""
        cnf = self._attached
        if cnf is None:
            raise RuntimeError("no CNF attached (call attach first)")
        start = self._absorbed
        pending = cnf.clauses_since(start)
        if pending and self._trail_lim:
            raise RuntimeError("absorb only permitted at decision level 0")
        self._absorbed = len(cnf.clauses)
        while self._nvars < cnf.num_vars:
            self.new_var()
        if self._unsat:
            return self._absorbed - start
        value = self._value
        watches = self._watches
        problem = self._clauses
        direct = not self._groups
        for clause in pending:
            if direct and len(clause) > 1:
                for lit in clause:
                    if value[lit if lit > 0 else -lit] != UNASSIGNED:
                        break
                else:
                    attached = _Clause(clause[:])
                    problem.append(attached)
                    watchers = watches.get(clause[0])
                    if watchers is None:
                        watches[clause[0]] = [attached]
                    else:
                        watchers.append(attached)
                    watchers = watches.get(clause[1])
                    if watchers is None:
                        watches[clause[1]] = [attached]
                    else:
                        watchers.append(attached)
                    continue
            self.add_clause(clause)
            if self._unsat:
                break
        return self._absorbed - start

    def push(self) -> int:
        """Open a retractable clause group; returns its activation
        literal.  Clauses added (or absorbed) while the group is open get
        the negated activation literal appended and are enforced by every
        ``solve`` through an implicit assumption; :meth:`pop` retracts
        them.  Groups nest LIFO."""
        if self._trail_lim:
            raise RuntimeError("push only permitted at decision level 0")
        if self._attached is not None:
            act = self._attached.new_var()
            self._ensure_var(act)
        else:
            act = self.new_var()
        self._groups.append(act)
        return act

    def pop(self) -> None:
        """Retract the innermost clause group: unit-assert the negated
        activation literal and garbage-collect every clause (problem and
        learned) that carries it."""
        if not self._groups:
            raise RuntimeError("pop without matching push")
        if self._trail_lim:
            raise RuntimeError("pop only permitted at decision level 0")
        act = self._groups.pop()
        marker = -act
        survivors: List[_Clause] = []
        for clause in self._clauses:
            if marker in clause.lits:
                self._detach(clause)
            else:
                survivors.append(clause)
        self._clauses = survivors
        learned_survivors: List[_Clause] = []
        for clause in self._learned:
            if marker in clause.lits:
                self._detach(clause)
            else:
                learned_survivors.append(clause)
        self._learned = learned_survivors
        # Deactivate for good: any stray dependent clause (e.g. a unit
        # the group propagated at level 0) stays satisfied forever.
        if not self._unsat and self._lit_value(marker) != 1:
            if not self.add_clause([marker]):
                self._unsat = True

    @property
    def open_groups(self) -> int:
        return len(self._groups)

    @property
    def num_clauses(self) -> int:
        return len(self._clauses)

    @property
    def num_learned(self) -> int:
        return len(self._learned)

    def add_clause(self, literals: Iterable[int]) -> bool:
        """Add a problem clause at decision level 0.

        While an activation group is open the clause is extended with the
        negated activation literal, making it retractable via :meth:`pop`.
        Returns ``False`` if the formula became trivially unsatisfiable.
        """
        if self._trail_lim:
            raise RuntimeError("add_clause only permitted at decision level 0")
        if self._groups:
            literals = list(literals) + [-self._groups[-1]]
        seen = set()
        lits: List[int] = []
        for lit in literals:
            if lit == 0:
                raise ValueError("literal 0 is invalid")
            self._ensure_var(abs(lit))
            if -lit in seen:
                return True  # tautology
            value = self._lit_value(lit)
            if value == 1:
                return True  # already satisfied at level 0
            if value == 0:
                continue  # falsified at level 0: drop literal
            if lit not in seen:
                seen.add(lit)
                lits.append(lit)
        if not lits:
            self._unsat = True
            return False
        if len(lits) == 1:
            if not self._enqueue(lits[0], None):
                self._unsat = True
                return False
            conflict = self._propagate()
            if conflict is not None:
                self._unsat = True
                return False
            return True
        clause = _Clause(lits)
        self._clauses.append(clause)
        self._attach(clause)
        return True

    def _attach(self, clause: _Clause) -> None:
        self._watches.setdefault(clause.lits[0], []).append(clause)
        self._watches.setdefault(clause.lits[1], []).append(clause)

    def _detach(self, clause: _Clause) -> None:
        for lit in clause.lits[:2]:
            watchers = self._watches.get(lit)
            if watchers is not None and clause in watchers:
                watchers.remove(clause)

    # ------------------------------------------------------------------
    # Assignment plumbing
    # ------------------------------------------------------------------

    def _lit_value(self, lit: int) -> int:
        value = self._value[abs(lit)]
        if value == UNASSIGNED:
            return UNASSIGNED
        return value if lit > 0 else 1 - value

    @property
    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _enqueue(self, lit: int, reason: Optional[_Clause]) -> bool:
        value = self._lit_value(lit)
        if value != UNASSIGNED:
            return value == 1
        var = abs(lit)
        self._value[var] = 1 if lit > 0 else 0
        self._level[var] = self._decision_level
        self._reason[var] = reason
        self._trail.append(lit)
        return True

    def _propagate(self) -> Optional[_Clause]:
        while self._qhead < len(self._trail):
            lit = self._trail[self._qhead]
            self._qhead += 1
            self.propagations += 1
            false_lit = -lit
            watchers = self._watches.get(false_lit)
            if not watchers:
                continue
            kept: List[_Clause] = []
            conflict: Optional[_Clause] = None
            index = 0
            while index < len(watchers):
                clause = watchers[index]
                index += 1
                lits = clause.lits
                if lits[0] == false_lit:
                    lits[0], lits[1] = lits[1], lits[0]
                first = lits[0]
                if self._lit_value(first) == 1:
                    kept.append(clause)
                    continue
                moved = False
                for k in range(2, len(lits)):
                    if self._lit_value(lits[k]) != 0:
                        lits[1], lits[k] = lits[k], lits[1]
                        self._watches.setdefault(lits[1], []).append(clause)
                        moved = True
                        break
                if moved:
                    continue
                # Clause is unit or conflicting.
                kept.append(clause)
                if self._lit_value(first) == 0:
                    conflict = clause
                    kept.extend(watchers[index:])
                    break
                self._enqueue(first, clause)
            self._watches[false_lit] = kept
            if conflict is not None:
                return conflict
        return None

    def _backtrack(self, target_level: int) -> None:
        if self._decision_level <= target_level:
            return
        boundary = self._trail_lim[target_level]
        for lit in reversed(self._trail[boundary:]):
            var = abs(lit)
            self._phase[var] = self._value[var]
            self._value[var] = UNASSIGNED
            self._reason[var] = None
            heapq.heappush(self._order, (-self._activity[var], var))
        del self._trail[boundary:]
        del self._trail_lim[target_level:]
        self._qhead = len(self._trail)

    # ------------------------------------------------------------------
    # Activities
    # ------------------------------------------------------------------

    def _bump_var(self, var: int) -> None:
        self._activity[var] += self._var_inc
        if self._activity[var] > 1e100:
            for v in range(1, self._nvars + 1):
                self._activity[v] *= 1e-100
            self._var_inc *= 1e-100
        if self._value[var] == UNASSIGNED:
            heapq.heappush(self._order, (-self._activity[var], var))

    def _decay_activities(self) -> None:
        self._var_inc /= self._var_decay
        self._cla_inc /= self._cla_decay

    def _bump_clause(self, clause: _Clause) -> None:
        clause.activity += self._cla_inc
        if clause.activity > 1e100:
            for c in self._learned:
                c.activity *= 1e-100
            self._cla_inc *= 1e-100

    # ------------------------------------------------------------------
    # Conflict analysis
    # ------------------------------------------------------------------

    def _analyze(self, conflict: _Clause) -> tuple:
        """First-UIP learning; returns (learned_lits, backtrack_level)."""
        learned: List[int] = [0]  # placeholder for the asserting literal
        seen = [False] * (self._nvars + 1)
        counter = 0
        p = 0
        index = len(self._trail) - 1
        clause: Optional[_Clause] = conflict
        while True:
            if clause is not None:
                if clause.learned:
                    self._bump_clause(clause)
                for q in clause.lits:
                    if p != 0 and q == -p:
                        continue
                    var = abs(q)
                    if not seen[var] and self._level[var] > 0:
                        seen[var] = True
                        self._bump_var(var)
                        if self._level[var] == self._decision_level:
                            counter += 1
                        else:
                            learned.append(q)
            while not seen[abs(self._trail[index])]:
                index -= 1
            p = self._trail[index]
            clause = self._reason[abs(p)]
            index -= 1
            counter -= 1
            if counter == 0:
                break
        learned[0] = -p

        # Clause minimization: drop literals implied by the rest.
        def redundant(lit: int) -> bool:
            reason = self._reason[abs(lit)]
            if reason is None:
                return False
            for other in reason.lits:
                var = abs(other)
                if var == abs(lit):
                    continue
                if not seen[var] and self._level[var] > 0:
                    return False
            return True

        minimized = [learned[0]] + [
            lit for lit in learned[1:] if not redundant(lit)
        ]
        if len(minimized) == 1:
            return minimized, 0
        # Move a max-level literal into the second watch position.
        max_index = max(
            range(1, len(minimized)),
            key=lambda i: self._level[abs(minimized[i])],
        )
        minimized[1], minimized[max_index] = minimized[max_index], minimized[1]
        return minimized, self._level[abs(minimized[1])]

    # ------------------------------------------------------------------
    # Learned-clause reduction and restarts
    # ------------------------------------------------------------------

    def _reduce_learned(self) -> None:
        locked = {
            id(self._reason[abs(lit)])
            for lit in self._trail
            if self._reason[abs(lit)] is not None
        }
        self._learned.sort(key=lambda c: c.activity)
        cut = len(self._learned) // 2
        survivors: List[_Clause] = []
        for i, clause in enumerate(self._learned):
            if i < cut and id(clause) not in locked and len(clause.lits) > 2:
                self._detach(clause)
            else:
                survivors.append(clause)
        self._learned = survivors

    @staticmethod
    def _luby(index: int) -> int:
        """The Luby restart sequence 1 1 2 1 1 2 4 ... (0-indexed)."""
        size, seq = 1, 0
        while size < index + 1:
            seq += 1
            size = 2 * size + 1
        while size - 1 != index:
            size = (size - 1) // 2
            seq -= 1
            index %= size
        return 1 << seq

    # ------------------------------------------------------------------
    # Main search
    # ------------------------------------------------------------------

    def _pick_branch_var(self) -> int:
        while self._order:
            _, var = heapq.heappop(self._order)
            if self._value[var] == UNASSIGNED:
                return var
        return 0

    def solve(
        self,
        assumptions: Sequence[int] = (),
        max_conflicts: Optional[int] = None,
        max_decisions: Optional[int] = None,
        max_propagations: Optional[int] = None,
        budget=None,
    ) -> SatResult:
        """Search for a model consistent with ``assumptions``.

        Returns SAT with a total model, UNSAT, or UNKNOWN when one of the
        per-call caps (conflicts, decisions, propagations) is exhausted.
        ``budget`` is an optional :class:`repro.runtime.Budget` and the
        only wall-clock limit: conflicts/decisions are charged to it as
        search progresses, and the restart loop and the per-decision
        poll call its ``checkpoint``, which raises a structured
        :class:`repro.runtime.EngineAbort` (``Timeout`` once the
        deadline passes) -- the exception-based path the portfolio
        supervisor consumes.  The budget is also polled on entry, so a
        loop of quick calls (one per unrolling depth, one per
        minimization probe) stops on it too.
        """
        if budget is not None:
            budget.checkpoint(engine="sat")
        if self._attached is not None and (
            self._absorbed < len(self._attached.clauses)
        ):
            self.absorb()  # pick up clauses appended since the last call
        stats_base = (self.conflicts, self.decisions, self.propagations)
        charged = [0, 0]  # conflicts, decisions already charged to budget

        def sync_budget(enforce: bool = True) -> None:
            if budget is None:
                return
            spent_conflicts = self.conflicts - stats_base[0]
            spent_decisions = self.decisions - stats_base[1]
            budget.charge(
                conflicts=spent_conflicts - charged[0],
                decisions=spent_decisions - charged[1],
                engine="sat",
                enforce=enforce,
            )
            charged[0] = spent_conflicts
            charged[1] = spent_decisions
            if enforce:
                budget.checkpoint(engine="sat")

        def result(status: SatStatus, model: Optional[Dict[int, bool]] = None):
            # Definite answers still account their cost, without raising.
            sync_budget(enforce=status is SatStatus.UNKNOWN)
            return SatResult(
                status=status,
                model=model or {},
                conflicts=self.conflicts - stats_base[0],
                decisions=self.decisions - stats_base[1],
                propagations=self.propagations - stats_base[2],
            )

        if self._unsat:
            return result(SatStatus.UNSAT)
        self._backtrack(0)
        conflict = self._propagate()
        if conflict is not None:
            self._unsat = True
            return result(SatStatus.UNSAT)

        # Open activation groups are enforced through implicit leading
        # assumptions, so group clauses act like ordinary clauses until
        # the group is popped.
        assumption_list = list(self._groups) + list(assumptions)
        for lit in assumption_list:
            self._ensure_var(abs(lit))

        restart_round = 0
        restart_base = 100
        max_learned = max(1000, (len(self._clauses) // 3) or 1000)
        conflicts_at_start = self.conflicts

        def out_of_budget() -> bool:
            sync_budget()  # raises EngineAbort when a runtime limit trips
            if max_conflicts is not None and (
                self.conflicts - conflicts_at_start >= max_conflicts
            ):
                return True
            if max_decisions is not None and (
                self.decisions - stats_base[1] >= max_decisions
            ):
                return True
            if max_propagations is not None and (
                self.propagations - stats_base[2] >= max_propagations
            ):
                return True
            return False

        while True:
            conflict_budget = restart_base * self._luby(restart_round)
            restart_round += 1
            try:
                status = self._search(
                    conflict_budget,
                    assumption_list,
                    max_learned,
                    out_of_budget,
                )
            except BaseException:
                # A runtime Budget abort (or interrupt) mid-search: leave
                # the solver reusable before propagating.
                self._backtrack(0)
                raise
            if status is SatStatus.SAT:
                model = {
                    var: self._value[var] == 1
                    for var in range(1, self._nvars + 1)
                }
                self._backtrack(0)
                return result(SatStatus.SAT, model)
            if status is SatStatus.UNSAT:
                self._backtrack(0)
                return result(SatStatus.UNSAT)
            # Restart or budget exhaustion.
            if out_of_budget():
                self._backtrack(0)
                return result(SatStatus.UNKNOWN)
            if len(self._learned) > max_learned:
                max_learned = int(max_learned * 1.3)
            self._backtrack(0)

    def _search(
        self,
        conflict_budget: int,
        assumptions: List[int],
        max_learned: int,
        out_of_budget,
    ) -> Optional[SatStatus]:
        """Run until SAT/UNSAT, or return None to signal a restart or a
        budget stop (``out_of_budget`` is polled per decision so searches
        that wander without conflicting still terminate)."""
        local_conflicts = 0
        decisions_since_check = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                local_conflicts += 1
                if self._decision_level == 0:
                    self._unsat = True
                    return SatStatus.UNSAT
                if self._decision_level <= len(assumptions):
                    # Conflict within the assumption prefix.
                    return SatStatus.UNSAT
                learned, back_level = self._analyze(conflict)
                back_level = max(back_level, 0)
                self._backtrack(max(back_level, 0))
                if len(learned) == 1:
                    self._backtrack(0)
                    if not self._enqueue(learned[0], None):
                        self._unsat = True
                        return SatStatus.UNSAT
                else:
                    clause = _Clause(learned, learned=True)
                    self._learned.append(clause)
                    self._attach(clause)
                    self._bump_clause(clause)
                    self._enqueue(learned[0], clause)
                self._decay_activities()
                # Conflict-heavy phases reach few decisions, so poll the
                # caps and the runtime budget on the conflict path too.
                if local_conflicts % 256 == 0 and out_of_budget():
                    return None
                continue
            if local_conflicts >= conflict_budget:
                return None  # restart
            if len(self._learned) > max_learned:
                self._reduce_learned()
            # Assumption decisions first.
            if self._decision_level < len(assumptions):
                lit = assumptions[self._decision_level]
                value = self._lit_value(lit)
                if value == 0:
                    return SatStatus.UNSAT
                self._trail_lim.append(len(self._trail))
                if value == UNASSIGNED:
                    self._enqueue(lit, None)
                continue
            var = self._pick_branch_var()
            if var == 0:
                return SatStatus.SAT
            decisions_since_check += 1
            if decisions_since_check >= 64:
                decisions_since_check = 0
                if out_of_budget():
                    return None
            self.decisions += 1
            self._trail_lim.append(len(self._trail))
            lit = var if self._phase[var] == 1 else -var
            self._enqueue(lit, None)

    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        return {
            "vars": self._nvars,
            "clauses": len(self._clauses),
            "learned": len(self._learned),
            "conflicts": self.conflicts,
            "decisions": self.decisions,
            "propagations": self.propagations,
        }

    def __repr__(self) -> str:
        return (
            f"Solver(vars={self._nvars}, clauses={len(self._clauses)}, "
            f"learned={len(self._learned)})"
        )
