"""Differential fuzzing: cross-engine agreement on random netlists.

The heart of the audit layer: every generated (circuit, property)
instance is run through BMC, BDD reachability, the RFN CEGAR loop and
the exhaustive kernel search, every definite verdict is independently
certified, and any disagreement or failed certificate fails the suite.

The injected-bug tests close the loop on the harness itself: a
deliberately lying engine must be *caught* by the oracle and *shrunk*
to a minimal reproducer -- otherwise the zero-findings result above is
vacuous.
"""

import pytest

import repro.fuzz.gen as gen_mod
import repro.fuzz.oracle as oracle_mod
from repro.fuzz import (
    OracleConfig,
    Verdict,
    generate_instance,
    instance_from_text,
    instance_to_text,
    load_corpus,
    run_campaign,
    run_oracle,
    save_reproducer,
    shrink_instance,
)
from repro.core.property import UnreachabilityProperty
from repro.fuzz.campaign import shrink_finding
from repro.fuzz.oracle import EngineVerdict
from repro.netlist import circuit_to_text
from repro.sim import Simulator

SEEDS = list(range(25))


class TestGeneratorDeterminism:
    def test_same_seed_same_instance(self):
        a = generate_instance(11)
        b = generate_instance(11)
        assert instance_to_text(a) == instance_to_text(b)
        assert a.prop.target == b.prop.target

    def test_distinct_seeds_distinct_circuits(self):
        texts = {instance_to_text(generate_instance(s)) for s in range(10)}
        assert len(texts) == 10

    def test_instances_are_valid(self):
        for seed in SEEDS:
            inst = generate_instance(seed)
            inst.circuit.validate()
            inst.prop.validate_against(inst.circuit)

    def test_serialization_round_trips(self):
        for seed in (0, 3, 9):
            inst = generate_instance(seed)
            text = instance_to_text(inst)
            back = instance_from_text(text)
            assert instance_to_text(back) == text
            assert back.prop.target == inst.prop.target


def interpreted_rare_cube_property(circuit, rng, config, seed):
    """Reference for ``gen._rare_cube_property``: the same rng draws,
    with the walk stepping the interpreted simulator."""
    registers = list(circuit.registers)
    count = min(len(registers), rng.randint(2, config.rare_cube_registers))
    chosen = rng.sample(registers, count)
    sim = Simulator(circuit)
    state = {
        name: (reg.init if reg.init is not None else rng.randint(0, 1))
        for name, reg in circuit.registers.items()
    }
    seen = {tuple(state[r] for r in chosen)}
    for _ in range(config.rare_cube_sim_cycles):
        inputs = {name: rng.randint(0, 1) for name in circuit.inputs}
        _, state = sim.step(state, inputs)
        seen.add(tuple(state[r] for r in chosen))
    unseen = [
        bits
        for bits in gen_mod.itertools_product_bits(count)
        if bits not in seen
    ]
    if not unseen:
        return gen_mod._random_cube_property(circuit, rng, config, seed)
    target = dict(zip(chosen, rng.choice(unseen)))
    return UnreachabilityProperty(f"fuzz{seed}_rare", target)


def test_generator_matches_interpreted_walk(monkeypatch):
    """The rare-cube walk runs on the kernel; over 400 seeds (more than
    100 of them rare-cube) every instance must equal the one an
    interpreted walk derives, circuit text and property alike."""
    kernel = [generate_instance(seed) for seed in range(400)]
    monkeypatch.setattr(
        gen_mod, "_rare_cube_property", interpreted_rare_cube_property
    )
    reference = [generate_instance(seed) for seed in range(400)]
    rare = 0
    for got, expected in zip(kernel, reference):
        assert circuit_to_text(got.circuit) == circuit_to_text(
            expected.circuit
        )
        assert got.prop.name == expected.prop.name
        assert list(got.prop.target.items()) == list(
            expected.prop.target.items()
        )
        rare += got.prop.name.endswith("_rare")
    assert rare >= 100


class TestEngineAgreement:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_all_engines_agree(self, seed):
        inst = generate_instance(seed)
        report = run_oracle(inst.circuit, inst.prop, OracleConfig())
        assert report.ok, report.summary()
        assert report.consensus in (Verdict.VERIFIED, Verdict.FALSIFIED)

    def test_both_polarities_exercised(self):
        """The generator must produce True and False properties; an
        all-FALSIFIED stream would leave VERIFIED paths untested."""
        consensus = {
            run_oracle(
                generate_instance(s).circuit,
                generate_instance(s).prop,
                OracleConfig(),
            ).consensus
            for s in SEEDS
        }
        assert Verdict.VERIFIED in consensus
        assert Verdict.FALSIFIED in consensus


class TestInjectedBug:
    """A lying engine must be caught, shrunk, and persisted."""

    def _lying_engine(self, name, verdict):
        def run(circuit, prop, config):
            return EngineVerdict(
                engine=name, verdict=verdict, detail="injected bug"
            )
        return run

    def test_lying_verified_bmc_is_caught_and_shrunk(
        self, monkeypatch, tmp_path
    ):
        # Seed 0's property is falsified by the honest engines; a BMC
        # that claims VERIFIED must surface as a disagreement.
        inst = generate_instance(0)
        monkeypatch.setitem(
            oracle_mod.ENGINES,
            "bmc",
            self._lying_engine("bmc", Verdict.VERIFIED),
        )
        report = run_oracle(inst.circuit, inst.prop, OracleConfig())
        assert not report.ok
        assert any("bmc" in pair for pair in report.disagreements)

        shrunk = shrink_finding(inst, report, OracleConfig())
        assert shrunk.circuit.num_gates < inst.circuit.num_gates
        assert shrunk.circuit.num_registers <= inst.circuit.num_registers

        path = save_reproducer(shrunk, str(tmp_path), stem="bug")
        (replayed_path, replayed), = load_corpus(str(tmp_path))
        assert replayed_path == path
        assert replayed.prop.target == shrunk.prop.target
        # Still reproduces through the round-trip, lying engine active:
        replay_report = run_oracle(
            replayed.circuit, replayed.prop, OracleConfig()
        )
        assert not replay_report.ok

    def test_campaign_catches_injected_bug(self, monkeypatch, tmp_path):
        monkeypatch.setitem(
            oracle_mod.ENGINES,
            "kernel",
            self._lying_engine("kernel", Verdict.VERIFIED),
        )
        result = run_campaign(
            seed=0, iters=3, corpus_dir=str(tmp_path), shrink=True
        )
        assert not result.ok
        assert result.findings
        assert result.findings[0].reproducer_path is not None
        assert result.findings[0].shrunk_stats is not None

    def test_clean_campaign_has_no_findings(self):
        result = run_campaign(seed=100, iters=5, shrink=False)
        assert result.ok
        assert result.iterations_run == 5
        assert not result.findings


class TestShrinker:
    def test_shrink_is_minimal_for_const_predicate(self):
        """Against an always-True predicate the shrinker must reach the
        degenerate minimum: the property's own registers, no gates that
        can be removed without breaking validation."""
        inst = generate_instance(4)
        shrunk = shrink_instance(inst, lambda candidate: True)
        assert set(shrunk.circuit.registers) >= set(
            name
            for name in inst.prop.signals()
            if name in inst.circuit.registers
        )
        assert shrunk.circuit.num_gates <= inst.circuit.num_gates
        assert shrunk.circuit.num_registers <= inst.circuit.num_registers
        shrunk.circuit.validate()
        shrunk.prop.validate_against(shrunk.circuit)

    def test_shrink_respects_predicate(self):
        """A predicate pinning the register count blocks register drops."""
        inst = generate_instance(5)
        regs = inst.circuit.num_registers

        def keep_registers(candidate):
            return candidate.circuit.num_registers == regs

        shrunk = shrink_instance(inst, keep_registers)
        assert shrunk.circuit.num_registers == regs
