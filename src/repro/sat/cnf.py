"""CNF formula container.

Literals follow the DIMACS convention: variables are positive integers,
a negative integer is the negated variable.  The container also keeps an
optional name table so circuit encodings stay debuggable.

Clauses are stored as tuples of ints.  They are immutable, so frame
templates and the solver can read them without copying defensively, and
CPython's cyclic garbage collector stops tracking an all-int tuple the
first time it examines it: a large unrolling costs later collections
nothing.  (A list per clause would be traversed by every full
collection for as long as the CNF lives.)
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple


class CNF:
    """A growable CNF formula with named variables."""

    def __init__(self) -> None:
        self.num_vars = 0
        self.clauses: List[Tuple[int, ...]] = []
        self._name2var: Dict[str, int] = {}
        self._var2name: Dict[int, str] = {}

    def new_var(self, name: Optional[str] = None) -> int:
        """Allocate a fresh variable; optionally bind a unique name."""
        self.num_vars += 1
        var = self.num_vars
        if name is not None:
            if name in self._name2var:
                raise ValueError(f"variable name {name!r} already in use")
            self._name2var[name] = var
            self._var2name[var] = name
        return var

    def var(self, name: str) -> int:
        try:
            return self._name2var[name]
        except KeyError:
            raise KeyError(f"unknown variable name {name!r}") from None

    def has_name(self, name: str) -> bool:
        return name in self._name2var

    def name_of(self, var: int) -> Optional[str]:
        return self._var2name.get(abs(var))

    def add_clause(self, literals: Iterable[int]) -> None:
        """Add a clause; deduplicates literals and drops tautologies."""
        seen = set()
        clause: List[int] = []
        for lit in literals:
            if lit == 0 or abs(lit) > self.num_vars:
                raise ValueError(f"literal {lit} out of range")
            if -lit in seen:
                return  # tautology
            if lit not in seen:
                seen.add(lit)
                clause.append(lit)
        self.clauses.append(tuple(clause))

    def add_clauses(self, clauses: Iterable[Sequence[int]]) -> None:
        for clause in clauses:
            self.add_clause(clause)

    # -- bulk operations for cached encodings ---------------------------

    def alloc_block(self, names: Sequence[Optional[str]]) -> int:
        """Allocate ``len(names)`` consecutive variables at once; entry
        ``i`` (if not ``None``) names variable ``base + i + 1``.  Returns
        ``base``, the variable count before allocation -- template literal
        ``k`` instantiates as ``base + k``."""
        base = self.num_vars
        self.num_vars += len(names)
        name2var = self._name2var
        var2name = self._var2name
        for i, name in enumerate(names):
            if name is not None:
                if name in name2var:
                    raise ValueError(f"variable name {name!r} already in use")
                var = base + i + 1
                name2var[name] = var
                var2name[var] = name
        return base

    def add_offset_clauses(
        self, clauses: Iterable[Sequence[int]], offset: int
    ) -> None:
        """Append pre-deduplicated clause templates, shifting every
        literal's variable by ``offset``.  Skips the per-literal range and
        tautology checks of :meth:`add_clause` -- callers guarantee the
        templates are clean (they were built through ``add_clause``)."""
        self.clauses.extend(
            tuple([lit + offset if lit > 0 else lit - offset for lit in clause])
            for clause in clauses
        )

    # -- convenience encodings -----------------------------------------

    def add_unit(self, lit: int) -> None:
        self.add_clause([lit])

    def add_equiv(self, a: int, b: int) -> None:
        """a <-> b."""
        self.add_clause([-a, b])
        self.add_clause([a, -b])

    def add_implies(self, a: int, b: int) -> None:
        self.add_clause([-a, b])

    def add_and(self, out: int, inputs: Sequence[int]) -> None:
        """out <-> AND(inputs) (Tseitin)."""
        for lit in inputs:
            self.add_clause([-out, lit])
        self.add_clause([out] + [-lit for lit in inputs])

    def add_or(self, out: int, inputs: Sequence[int]) -> None:
        """out <-> OR(inputs) (Tseitin)."""
        for lit in inputs:
            self.add_clause([-lit, out])
        self.add_clause([-out] + list(inputs))

    def add_xor2(self, out: int, a: int, b: int) -> None:
        """out <-> a XOR b."""
        self.add_clause([-out, a, b])
        self.add_clause([-out, -a, -b])
        self.add_clause([out, -a, b])
        self.add_clause([out, a, -b])

    def add_mux(self, out: int, sel: int, d0: int, d1: int) -> None:
        """out <-> (sel ? d1 : d0)."""
        self.add_clause([sel, -d0, out])
        self.add_clause([sel, d0, -out])
        self.add_clause([-sel, -d1, out])
        self.add_clause([-sel, d1, -out])

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    def clauses_since(self, start: int) -> List[Tuple[int, ...]]:
        """The clauses appended after watermark ``start`` (a previous
        ``num_clauses`` reading).  This is the sync contract incremental
        solving relies on: clauses are append-only, so an attached
        :class:`~repro.sat.solver.Solver` can absorb exactly the suffix
        it has not seen."""
        if not 0 <= start <= len(self.clauses):
            raise ValueError(
                f"clause watermark {start} outside 0..{len(self.clauses)}"
            )
        return self.clauses[start:]

    # -- DIMACS ----------------------------------------------------------

    def to_dimacs(self) -> str:
        lines = [f"p cnf {self.num_vars} {self.num_clauses}"]
        for var, name in sorted(self._var2name.items()):
            lines.insert(0, f"c var {var} = {name}")
        for clause in self.clauses:
            lines.append(" ".join(str(lit) for lit in clause) + " 0")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_dimacs(cls, text: str) -> "CNF":
        cnf = cls()
        declared = 0
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            if line.startswith("p"):
                parts = line.split()
                if len(parts) != 4 or parts[1] != "cnf":
                    raise ValueError(f"bad problem line: {line!r}")
                declared = int(parts[2])
                while cnf.num_vars < declared:
                    cnf.new_var()
                continue
            literals = [int(tok) for tok in line.split()]
            if literals and literals[-1] == 0:
                literals = literals[:-1]
            for lit in literals:
                while abs(lit) > cnf.num_vars:
                    cnf.new_var()
            cnf.add_clause(literals)
        return cnf

    def __repr__(self) -> str:
        return f"CNF(vars={self.num_vars}, clauses={self.num_clauses})"
