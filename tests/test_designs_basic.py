"""Tests for the small canonical designs and the workload registry."""

from repro.designs import (
    free_counter,
    one_hot_ring,
    password_lock,
    saturating_counter,
    shift_chain,
    table1_workloads,
    table2_workloads,
    toggler,
)
from repro.sim import Simulator


class TestCounters:
    def test_toggler_behaviour(self):
        c = toggler()
        sim = Simulator(c)
        frames = sim.run([{"en": 1}, {"en": 1}, {"en": 0}])
        assert [f["q"] for f in frames] == [0, 1, 0]

    def test_free_counter_wraps(self):
        c = free_counter(3)
        sim = Simulator(c)
        state = sim.initial_state()
        seen = []
        for _ in range(9):
            seen.append(sum(state[f"cnt[{i}]"] << i for i in range(3)))
            _, state = sim.step(state, {})
        assert seen == [0, 1, 2, 3, 4, 5, 6, 7, 0]

    def test_saturating_counter_property_shape(self):
        c, prop = saturating_counter(3, ceiling=5)
        sim = Simulator(c)
        state = sim.initial_state()
        for _ in range(12):
            _, state = sim.step(state, {})
        assert sum(state[f"cnt[{i}]"] << i for i in range(3)) == 5
        wd = prop.signals()[0]
        assert state[wd] == 0

    def test_shift_chain_const_one_violates(self):
        c, prop = shift_chain(4, source_constant=1)
        sim = Simulator(c)
        wd = prop.signals()[0]
        frames = sim.run([{} for _ in range(7)])
        assert frames[-1][wd] == 1

    def test_one_hot_ring_stays_one_hot(self):
        c, signals = one_hot_ring(4)
        sim = Simulator(c)
        state = sim.initial_state()
        for _ in range(10):
            assert sum(state[s] for s in signals) == 1
            _, state = sim.step(state, {})

    def test_password_lock_opens_on_secret(self):
        c, prop = password_lock(width=3, secret=0b101, stages=4)
        sim = Simulator(c)
        wd = prop.signals()[0]
        good = {"data[0]": 1, "data[1]": 0, "data[2]": 1}
        frames = sim.run([good] * 6)
        assert frames[-1][wd] == 1

    def test_password_lock_resets_on_wrong_guess(self):
        c, prop = password_lock(width=3, secret=0b101, stages=4)
        sim = Simulator(c)
        good = {"data[0]": 1, "data[1]": 0, "data[2]": 1}
        bad = {"data[0]": 0, "data[1]": 0, "data[2]": 1}
        frames = sim.run([good, good, bad, good, good, good])
        wd = prop.signals()[0]
        assert frames[-1][wd] == 0  # reset broke the streak


class TestRegistry:
    def test_table1_has_five_rows(self):
        workloads = table1_workloads(paper_scale=False)
        assert [w.name for w in workloads] == [
            "mutex", "error_flag", "psh_hf", "psh_af", "psh_full",
        ]
        assert [w.expected for w in workloads] == [
            True, False, True, True, True,
        ]

    def test_table2_has_seven_rows(self):
        workloads = table2_workloads(paper_scale=False)
        assert [w.name for w in workloads] == [
            "IU1", "IU2", "IU3", "IU4", "IU5", "USB1", "USB2",
        ]

    def test_table2_signal_counts_match_paper(self):
        workloads = {w.name: w for w in table2_workloads(paper_scale=False)}
        for name in ("IU1", "IU2", "IU3", "IU4", "IU5"):
            assert len(workloads[name].signals) == 10
        assert len(workloads["USB1"].signals) == 6
        assert len(workloads["USB2"].signals) == 21

    def test_iu_sets_share_design(self):
        workloads = table2_workloads(paper_scale=False)
        iu_circuits = {id(w.circuit) for w in workloads[:5]}
        assert len(iu_circuits) == 1

    def test_workload_properties_validate(self):
        for workload in table1_workloads(paper_scale=False):
            workload.prop.validate_against(workload.circuit)

    def test_coverage_signals_are_registers(self):
        for workload in table2_workloads(paper_scale=False):
            for sig in workload.signals:
                assert workload.circuit.is_register_output(sig), sig
