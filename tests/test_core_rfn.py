"""End-to-end tests of the RFN abstraction-refinement loop."""

import pytest

from repro.core import RFN, RfnConfig
from repro.engine import Verdict
from repro.mc.reach import ReachLimits
from repro.runtime import Budget
from repro.sim import Simulator

from tests.conftest import buggy_counter, chain_design, padded, toggle_design


class TestVerified:
    def test_toggle_verified(self):
        c, prop = toggle_design()
        result = RFN(c, prop).run()
        assert result.status is Verdict.VERIFIED
        assert result.verified

    def test_toggle_final_model_is_small(self):
        c, prop = toggle_design()
        result = RFN(c, prop).run()
        assert result.abstract_model_registers <= 3

    def test_chain_verified_iteratively(self):
        c, prop = chain_design(depth=5)
        result = RFN(c, prop).run()
        assert result.status is Verdict.VERIFIED
        # More than one CEGAR iteration was needed.
        assert len(result.iterations) > 1

    def test_padded_design_ignores_islands(self):
        c, prop = padded(toggle_design, pads=40)
        result = RFN(c, prop).run()
        assert result.status is Verdict.VERIFIED
        assert result.abstract_model_registers <= 3
        assert all(not reg.startswith("pad") for reg in result.kept_registers)


class TestFalsified:
    def test_buggy_counter_falsified(self):
        c, prop = buggy_counter()
        result = RFN(c, prop).run()
        assert result.status is Verdict.FALSIFIED
        assert result.trace is not None

    def test_concrete_trace_replays(self):
        c, prop = buggy_counter()
        result = RFN(c, prop).run()
        sim = Simulator(c)
        frames = sim.run(result.trace.inputs, state=result.trace.states[0])
        wd = prop.signals()[0]
        assert any(f[wd] == 1 for f in frames)

    def test_trace_length_matches_bug_depth(self):
        c, prop = buggy_counter(bad_value=6)
        result = RFN(c, prop).run()
        # cnt==6 at cycle 6, watchdog latches at cycle 7 (index 6).
        assert result.trace.length == 8

    def test_abstract_trace_reported(self):
        c, prop = buggy_counter()
        result = RFN(c, prop).run()
        assert result.abstract_trace is not None


class TestResourceLimits:
    def test_iteration_limit(self):
        c, prop = chain_design(depth=6)
        config = RfnConfig(max_iterations=1, enable_guided_search=False)
        result = RFN(c, prop, config).run()
        assert result.status is Verdict.UNKNOWN

    def test_time_limit(self):
        c, prop = chain_design(depth=6)
        config = RfnConfig(budget=Budget(max_seconds=0.0))
        result = RFN(c, prop, config).run()
        assert result.status is Verdict.UNKNOWN
        assert result.failure is not None
        assert result.failure.resource == "time"
        assert result.detail == result.failure.describe()

    def test_reach_resource_out_degrades_to_bmc_fallback(self):
        # A reachability blowup no longer kills the run: the supervisor
        # retries with scaled limits and then falls back to k-induction
        # BMC on the abstract model, so the correct verdict survives.
        c, prop = buggy_counter()
        config = RfnConfig(reach_limits=ReachLimits(max_iterations=1))
        result = RFN(c, prop, config).run()
        assert result.status is Verdict.FALSIFIED
        assert result.aborts  # the reach aborts were contained, not lost

    def test_reach_resource_out_without_fallback_names_resource(self):
        # With the fallback depth too shallow to conclude anything, the
        # run degrades to RESOURCE_OUT naming the exhausted resource.
        c, prop = buggy_counter()
        config = RfnConfig(
            reach_limits=ReachLimits(max_iterations=1),
            max_retries=0,
            fallback_bmc_depth=0,
        )
        result = RFN(c, prop, config).run()
        assert result.status is Verdict.UNKNOWN
        assert result.failure is not None
        assert result.failure.resource in ("iterations", "depth")


class TestConfigKnobs:
    def test_log_callback(self):
        c, prop = toggle_design()
        messages = []
        config = RfnConfig(log=messages.append)
        RFN(c, prop, config).run()
        assert any("abstract model" in m for m in messages)

    def test_minimization_disabled_still_verifies(self):
        c, prop = toggle_design()
        config = RfnConfig(enable_minimization=False)
        result = RFN(c, prop, config).run()
        assert result.status is Verdict.VERIFIED

    def test_guidance_disabled_still_falsifies(self):
        c, prop = buggy_counter(bad_value=5)
        config = RfnConfig(guidance=False)
        result = RFN(c, prop, config).run()
        assert result.status is Verdict.FALSIFIED

    def test_iteration_records_populated(self):
        c, prop = chain_design(depth=4)
        result = RFN(c, prop).run()
        assert result.iterations
        first = result.iterations[0]
        assert first.model_registers == 1  # just the watchdog
        assert first.reach_outcome in ("target_hit", "fixpoint")
        # Register counts grow monotonically across iterations.
        sizes = [it.model_registers for it in result.iterations]
        assert sizes == sorted(sizes)

    def test_no_reorder_config(self):
        c, prop = toggle_design()
        config = RfnConfig(auto_reorder=False)
        result = RFN(c, prop, config).run()
        assert result.status is Verdict.VERIFIED
