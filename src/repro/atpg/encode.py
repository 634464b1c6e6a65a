"""Time-frame expansion: Tseitin encoding of a circuit into CNF.

Frame ``t`` holds one CNF variable per circuit signal, named
``"<signal>@<t>"``.  Register semantics connect frames: the register output
variable at frame ``t + 1`` is equivalent to its data input variable at
frame ``t``.  With a single frame and no initial-state constraint the
encoding is the plain combinational view in which register outputs act as
free pseudo-inputs -- exactly what combinational ATPG needs.

The per-frame clauses come from the kernel's cached
:class:`~repro.kernel.scache.FrameTemplate`: the circuit's one-frame CNF
is derived once (per structural fingerprint, shared across the identical
models that CEGAR iterations keep rebuilding) and each time frame is
instantiated by offsetting the template's literals.  Variable numbering
and clause order are byte-identical to a cold gate-by-gate encoding.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.kernel.perf import PERF
from repro.kernel.scache import frame_template
from repro.netlist.circuit import Circuit
from repro.obs import tracer as obs
from repro.sat.cnf import CNF
from repro.sat.solver import SatResult, Solver


class Unroller:
    """CNF encoding of ``cycles`` time frames of a circuit.

    Parameters
    ----------
    circuit:
        The gate-level design.
    cycles:
        Number of time frames (>= 1).
    use_initial_state:
        When true (default), registers are constrained to their declared
        initial values at frame 0; registers with a free initial value
        (``init=None``) stay unconstrained.  Pass ``False`` to leave the
        whole initial state free (combinational ATPG), or pass an explicit
        state via ``initial_state`` to start elsewhere.
    initial_state:
        Optional explicit (partial) initial state overriding the declared
        init values.
    guarded:
        Registers whose frame connections and initial-value constraint
        are guarded by an activation variable (:attr:`activation`): each
        such clause carries the negated activation literal, so the
        register behaves as a register while its literal is assumed and
        as a free input at every frame otherwise.  One unrolling then
        answers queries on every model between "none of them" and "all
        of them" (Een-Mishchenko-Amla's abstraction literals).
    """

    def __init__(
        self,
        circuit: Circuit,
        cycles: int,
        use_initial_state: bool = True,
        initial_state: Optional[Mapping[str, int]] = None,
        guarded: Iterable[str] = (),
    ) -> None:
        if cycles < 1:
            raise ValueError("cycles must be >= 1")
        self.circuit = circuit
        self.cycles = cycles
        self.cnf = CNF()
        self._vars: List[Dict[str, int]] = []
        self._template = frame_template(circuit)
        #: guarded register -> its activation variable
        self.activation: Dict[str, int] = {}
        for name in guarded:
            if not circuit.is_register_output(name):
                raise ValueError(f"{name!r} is not a register output")
            if name not in self.activation:
                self.activation[name] = self.cnf.new_var(f"{name}$active")
        with obs.span("kernel.unroll"):
            for frame in range(cycles):
                self._append_frame(frame)
        if initial_state is not None:
            for name, value in initial_state.items():
                if not circuit.is_register_output(name):
                    raise ValueError(f"{name!r} is not a register output")
                self._constrain(
                    name, [self.lit(name, 0) if value else -self.lit(name, 0)]
                )
        elif use_initial_state:
            for name, reg in circuit.registers.items():
                if reg.init is not None:
                    self._constrain(
                        name,
                        [self.lit(name, 0) if reg.init else -self.lit(name, 0)],
                    )

    # ------------------------------------------------------------------

    def _constrain(self, register: str, clause: List[int]) -> None:
        """Add a clause about ``register``, guarded if the register is."""
        act = self.activation.get(register)
        self.cnf.add_clause(clause if act is None else clause + [-act])

    def _append_frame(self, frame: int) -> None:
        frame_vars = self._template.instantiate(self.cnf, frame)
        self._vars.append(frame_vars)
        if frame > 0:
            previous = self._vars[frame - 1]
            for name, reg in self.circuit.registers.items():
                now, before = frame_vars[name], previous[reg.data]
                self._constrain(name, [-now, before])
                self._constrain(name, [now, -before])

    def extend_to(self, cycles: int) -> int:
        """Grow the unrolling to ``cycles`` time frames, appending only
        the missing frames' clauses (the initial-state constraint on
        frame 0 is untouched).  Returns the number of frames appended;
        shrinking is not supported (a request below the current depth is
        a no-op)."""
        if cycles <= self.cycles:
            return 0
        appended = cycles - self.cycles
        with obs.span("kernel.unroll"):
            for frame in range(self.cycles, cycles):
                self._append_frame(frame)
        self.cycles = cycles
        PERF.bump("unroll.frames_appended", appended)
        return appended

    def lit(self, signal: str, cycle: int, value: int = 1) -> int:
        """CNF literal asserting ``signal`` has ``value`` at ``cycle``."""
        try:
            var = self._vars[cycle][signal]
        except (IndexError, KeyError):
            raise KeyError(f"no encoding for {signal!r} at cycle {cycle}") from None
        return var if value else -var

    def has_signal(self, signal: str, cycle: int = 0) -> bool:
        return 0 <= cycle < self.cycles and signal in self._vars[cycle]

    def cube_lits(self, cube: Mapping[str, int], cycle: int) -> List[int]:
        """Literals asserting a cube at a given cycle; signals without an
        encoding (not in this circuit) raise ``KeyError``."""
        return [self.lit(name, cycle, value) for name, value in cube.items()]

    def decode_frame(
        self, model: Mapping[int, bool], cycle: int
    ) -> Dict[str, int]:
        """Extract the valuation of every signal at a cycle from a model."""
        return {
            name: int(model.get(var, False))
            for name, var in self._vars[cycle].items()
        }

    def decode_inputs(
        self, model: Mapping[int, bool], cycle: int
    ) -> Dict[str, int]:
        return {
            name: int(model.get(self._vars[cycle][name], False))
            for name in self.circuit.inputs
        }

    def decode_state(
        self, model: Mapping[int, bool], cycle: int
    ) -> Dict[str, int]:
        return {
            name: int(model.get(self._vars[cycle][name], False))
            for name in self.circuit.registers
        }


class SolverSession:
    """A persistent :class:`Unroller` + :class:`Solver` pair.

    This is the single-instance incremental formulation (see PAPERS.md,
    Een-Mishchenko-Amla): one growing unrolling, one solver that absorbs
    only the newly appended frames, queries expressed as assumptions so
    nothing query-specific pollutes the clause database, and learned
    clauses inherited by every later query.  Sessions are pooled across
    BMC depths, ATPG targets and CEGAR iterations by
    :func:`repro.kernel.scache.solver_session`.

    Queries that genuinely need temporary *clauses* (the certifier's
    BDD-invariant Tseitin encodings) wrap them in
    ``solver.push()``/``solver.pop()`` activation groups.

    Growing the unrolling beyond a query's depth is sound and complete
    for that query: the transition function is total, so frames past the
    queried prefix never constrain it.

    ``guarded`` registers get activation literals (see :class:`Unroller`);
    a query enables a guarded register by assuming its literal and
    disables it by assuming the negation.
    """

    def __init__(
        self,
        circuit: Circuit,
        cycles: int = 1,
        use_initial_state: bool = True,
        initial_state: Optional[Mapping[str, int]] = None,
        guarded: Iterable[str] = (),
    ) -> None:
        self.unroller = Unroller(
            circuit,
            cycles,
            use_initial_state=use_initial_state,
            initial_state=initial_state,
            guarded=guarded,
        )
        self.solver = Solver()
        self.solver.attach(self.unroller.cnf)
        self.solver.absorb()
        self.queries = 0
        #: caller scratch for monotone bookkeeping (the incremental BMC
        #: induction loop records which frames already carry not-bad and
        #: uniqueness constraints here)
        self.meta: Dict[str, int] = {}
        self._prefixes = 0

    @property
    def circuit(self) -> Circuit:
        return self.unroller.circuit

    @property
    def cnf(self) -> CNF:
        return self.unroller.cnf

    @property
    def cycles(self) -> int:
        return self.unroller.cycles

    def ensure_depth(self, cycles: int) -> None:
        """Grow to at least ``cycles`` frames and sync the solver."""
        self.unroller.extend_to(cycles)
        self.solver.absorb()

    def fresh_prefix(self, stem: str) -> str:
        """A session-unique name prefix for auxiliary CNF variables
        (push/pop queries re-encode under fresh names each time)."""
        self._prefixes += 1
        return f"{stem}#{self._prefixes}"

    def solve(self, assumptions: Sequence[int] = (), **kwargs) -> SatResult:
        """Solve under assumptions, accounting reuse to the kernel perf
        counters: from the second query on, every problem clause already
        in the solver is one the caller did not re-encode, and every
        retained learned clause is inherited search effort."""
        self.solver.absorb()
        self.queries += 1
        if self.queries > 1:
            PERF.bump("sat.clauses_reused", self.solver.num_clauses)
            PERF.bump("sat.learned_retained", self.solver.num_learned)
        return self.solver.solve(assumptions=assumptions, **kwargs)
