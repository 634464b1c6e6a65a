"""Unit tests for the portfolio supervisor: containment, escalating
retry, fallback engines, result screening and budget-aware early stop."""

import pytest

from repro.runtime import (
    Budget,
    ChaosMonkey,
    ConflictsOut,
    EngineAbort,
    Garbage,
    Supervisor,
    Timeout,
)


class TestAttempt:
    def test_success_first_try(self):
        sup = Supervisor()
        step = sup.attempt("reach", lambda attempt: 42)
        assert step.ok
        assert step.value == 42
        assert step.attempts == 1
        assert not step.fell_back
        assert not step.degraded

    def test_retry_after_abort_passes_attempt_index(self):
        sup = Supervisor(max_retries=2)
        seen = []

        def flaky(attempt):
            seen.append(attempt)
            if attempt < 2:
                raise Timeout("slow", engine="reach")
            return "done"

        step = sup.attempt("reach", flaky)
        assert step.ok
        assert step.value == "done"
        assert seen == [0, 1, 2]
        assert step.attempts == 3
        assert len(step.aborts) == 2
        assert step.degraded

    def test_retries_spent_reports_last_abort(self):
        sup = Supervisor(max_retries=1)

        def always_fails(attempt):
            raise ConflictsOut(f"attempt {attempt}", engine="hybrid")

        step = sup.attempt("hybrid", always_fails)
        assert not step.ok
        assert step.abort is not None
        assert step.abort.resource == "conflicts"
        assert step.abort.detail == "attempt 1"
        assert step.attempts == 2

    def test_fallback_runs_after_retries(self):
        sup = Supervisor(max_retries=1)

        def primary(attempt):
            raise Timeout("blown", engine="reach")

        step = sup.attempt(
            "reach",
            primary,
            fallback=lambda attempt: "bmc says ok",
            fallback_name="abstract-bmc",
        )
        assert step.ok
        assert step.fell_back
        assert step.value == "bmc says ok"
        assert step.degraded

    def test_fallback_failure_is_contained_too(self):
        sup = Supervisor(max_retries=0)

        def primary(attempt):
            raise Timeout("blown", engine="reach")

        def fallback(attempt):
            raise EngineAbort("also blown", engine="abstract-bmc",
                              resource="depth")

        step = sup.attempt("reach", primary, fallback=fallback)
        assert not step.ok
        assert step.abort.engine == "abstract-bmc"
        assert step.abort.resource == "depth"
        assert len(step.aborts) == 2

    def test_per_call_retries_override(self):
        sup = Supervisor(max_retries=5)
        calls = []

        def fails(attempt):
            calls.append(attempt)
            raise Timeout("no", engine="guided")

        step = sup.attempt("guided", fails, retries=0)
        assert not step.ok
        assert calls == [0]


class TestScreening:
    def test_garbage_result_rejected(self):
        sup = Supervisor()
        step = sup.attempt("hybrid", lambda a: Garbage("hybrid"),
                           retries=0)
        assert not step.ok
        assert step.abort.resource == "injected-fault"

    def test_validator_rejection_is_contained(self):
        sup = Supervisor(max_retries=0)
        step = sup.attempt(
            "hybrid",
            lambda a: "not a trace",
            validate=lambda v: False,
        )
        assert not step.ok
        assert step.abort.resource == "invalid-result"

    def test_validator_screens_fallback_too(self):
        sup = Supervisor(max_retries=0)

        def primary(attempt):
            raise Timeout("blown", engine="hybrid")

        step = sup.attempt(
            "hybrid",
            primary,
            validate=lambda v: False,
            fallback=lambda a: "bogus",
        )
        assert not step.ok
        assert step.abort.resource == "invalid-result"

    def test_chaos_garbage_becomes_injected_fault(self):
        sup = Supervisor(
            chaos=ChaosMonkey(plan={"reach": "garbage"}), max_retries=0
        )
        step = sup.attempt("reach", lambda a: "real result")
        assert not step.ok
        assert step.abort.resource == "injected-fault"
        assert step.abort.injected


class TestConversion:
    def test_memory_error_converted(self):
        sup = Supervisor(max_retries=0)

        def oom(attempt):
            raise MemoryError("heap gone")

        step = sup.attempt("reach", oom)
        assert not step.ok
        assert step.abort.resource == "memory"
        assert step.abort.detail == "heap gone"

    def test_recursion_error_converted(self):
        sup = Supervisor(max_retries=0)

        def deep(attempt):
            raise RecursionError("too deep")

        step = sup.attempt("refine", deep)
        assert not step.ok
        assert step.abort.resource == "recursion"

    def test_non_contained_exception_propagates(self):
        sup = Supervisor()
        with pytest.raises(ZeroDivisionError):
            sup.attempt("reach", lambda a: 1 // 0)

    def test_keyboard_interrupt_passes_through(self):
        sup = Supervisor()

        def interrupted(attempt):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            sup.attempt("reach", interrupted)


class TestBudgetAwareness:
    def test_exhausted_budget_stops_retries(self):
        sup = Supervisor(budget=Budget(max_seconds=0.0), max_retries=5)
        calls = []

        def fails(attempt):
            calls.append(attempt)
            raise Timeout("no", engine="reach")

        step = sup.attempt("reach", fails,
                           fallback=lambda a: calls.append("fb"))
        assert not step.ok
        # First attempt always runs; retries and the fallback are
        # pointless once the run-level wall clock is gone.
        assert calls == [0]

    def test_live_budget_allows_fallback(self):
        sup = Supervisor(budget=Budget(max_seconds=60.0), max_retries=0)

        def fails(attempt):
            raise Timeout("no", engine="reach")

        step = sup.attempt("reach", fails, fallback=lambda a: "ok")
        assert step.ok
        assert step.fell_back


class TestHistory:
    def test_aborts_accumulate_across_steps(self):
        sup = Supervisor(max_retries=0)
        sup.attempt("reach", lambda a: (_ for _ in ()).throw(
            Timeout("one", engine="reach")))
        sup.attempt("hybrid", lambda a: "fine")
        sup.attempt("refine", lambda a: (_ for _ in ()).throw(
            ConflictsOut("two", engine="refine")))
        assert [a.engine for a in sup.aborts] == ["reach", "refine"]

    def test_current_engine_reset_after_call(self):
        sup = Supervisor()
        sup.attempt("reach", lambda a: 1)
        assert sup.current_engine is None

    def test_abort_info_json(self):
        sup = Supervisor(max_retries=0)
        step = sup.attempt("reach", lambda a: (_ for _ in ()).throw(
            Timeout("gone", engine="reach")))
        payload = step.abort.to_json()
        assert payload["engine"] == "reach"
        assert payload["resource"] == "time"
        assert payload["detail"] == "gone"
