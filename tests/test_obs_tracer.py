"""Unit tests for the obs layer: the span tracer, the JSONL schema
validator, the exporters, and the PERF counters that back it."""

import json

import pytest

from repro.kernel.perf import PerfCounters
from repro.obs import (
    NULL_SPAN,
    SCHEMA_VERSION,
    TRACER,
    event,
    load_records,
    render_report,
    span,
    to_chrome,
    to_chrome_json,
    to_folded,
    validate_file,
    validate_records,
)


@pytest.fixture(autouse=True)
def clean_tracer():
    """Every test starts and ends with the tracer disabled and the
    ring empty (close() keeps records for post-run inspection)."""
    TRACER.close()
    TRACER.drain()
    yield
    TRACER.close()
    TRACER.drain()


class FakeAbort(Exception):
    """Stands in for EngineAbort: carries a ``resource`` attribute."""

    resource = "time"


class TestSpans:
    def test_disabled_is_null_span(self):
        assert span("anything") is NULL_SPAN
        event("anything", k=1)  # no-op, no error
        assert TRACER.records() == []

    def test_null_span_supports_the_full_surface(self):
        with NULL_SPAN as handle:
            assert handle.set(a=1) is handle
        # Non-lexical use too (the multi-exit call sites).
        handle = NULL_SPAN
        handle.set(b=2)
        handle.__exit__(None, None, None)

    def test_meta_header_first(self):
        TRACER.enable()
        records = TRACER.records()
        assert records[0]["type"] == "meta"
        assert records[0]["version"] == SCHEMA_VERSION
        assert records[0]["clock"] == "monotonic"

    def test_nesting_parent_ids(self):
        TRACER.enable()
        with span("outer") as outer:
            with span("inner") as inner:
                assert inner.parent == outer.id
        spans = [r for r in TRACER.records() if r["type"] == "span"]
        # Inner closes (and records) first.
        assert [s["name"] for s in spans] == ["inner", "outer"]
        assert spans[0]["parent"] == spans[1]["id"]
        assert spans[1]["parent"] is None

    def test_outcome_ok_and_attrs(self):
        TRACER.enable()
        with span("phase", depth=3) as handle:
            handle.set(result="true")
        record = TRACER.records()[-1]
        assert record["outcome"] == "ok"
        assert record["attrs"] == {"depth": 3, "result": "true"}
        assert record["dur"] >= 0.0

    def test_outcome_override_via_set(self):
        TRACER.enable()
        with span("phase") as handle:
            handle.set(outcome="cancelled")
        record = TRACER.records()[-1]
        assert record["outcome"] == "cancelled"
        assert "outcome" not in record["attrs"]

    def test_outcome_abort_taxonomy(self):
        TRACER.enable()
        with pytest.raises(FakeAbort):
            with span("phase"):
                raise FakeAbort()
        assert TRACER.records()[-1]["outcome"] == "abort:time"

    def test_outcome_error_taxonomy(self):
        TRACER.enable()
        with pytest.raises(ValueError):
            with span("phase"):
                raise ValueError("boom")
        assert TRACER.records()[-1]["outcome"] == "error:ValueError"

    def test_close_flags_leaked_spans_unclosed(self):
        TRACER.enable()
        span("leaked")  # never closed
        TRACER.close()
        leaked = [
            r
            for r in TRACER.records()
            if r["type"] == "span" and r["name"] == "leaked"
        ]
        assert leaked and leaked[0]["outcome"] == "unclosed"

    def test_events_carry_enclosing_span(self):
        TRACER.enable()
        with span("outer") as outer:
            event("tick", value=1)
        records = [r for r in TRACER.records() if r["type"] == "event"]
        assert records[0]["name"] == "tick"
        assert records[0]["parent"] == outer.id
        assert records[0]["attrs"] == {"value": 1}

    def test_counters_snapshot_record(self):
        TRACER.enable()
        TRACER.counters()
        record = TRACER.records()[-1]
        assert record["type"] == "counters"
        assert isinstance(record["counters"], dict)

    def test_jsonl_sink_round_trip(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        TRACER.enable(path)
        with span("outer"):
            with span("inner"):
                pass
        event("mark")
        TRACER.close()
        records = load_records(path)
        assert validate_records(records) == []
        kinds = [r["type"] for r in records]
        assert kinds[0] == "meta"
        assert kinds.count("span") == 2
        assert "event" in kinds
        assert kinds[-1] == "counters"  # final snapshot from close()


class TestStitching:
    def test_drain_clears_and_absorb_drops_meta(self):
        TRACER.enable()
        with span("child.work"):
            pass
        shipped = TRACER.drain()
        assert TRACER.records() == []
        assert any(r["type"] == "meta" for r in shipped)
        TRACER.absorb(shipped)
        absorbed = TRACER.records()
        assert all(r["type"] != "meta" for r in absorbed)
        assert [r["name"] for r in absorbed if r["type"] == "span"] == [
            "child.work"
        ]

    def test_record_span_synthesized_lane(self):
        TRACER.enable()
        TRACER.record_span(
            "portfolio.worker",
            ts=1.0,
            dur=0.5,
            pid=99999,
            outcome="cancelled",
            attrs={"strategy": "bdd"},
        )
        record = TRACER.records()[-1]
        assert record["pid"] == 99999
        assert record["tid"] == 0
        assert record["outcome"] == "cancelled"
        assert record["parent"] is None

    def test_fork_child_rekeys_ids(self):
        TRACER.enable()
        with span("parent.work"):
            pass
        TRACER.fork_child()
        assert TRACER.records() == []  # inherited ring cleared
        assert TRACER.sink_path is None


class TestSchema:
    def _valid(self):
        TRACER.enable()
        with span("outer"):
            with span("inner"):
                pass
        records = TRACER.records()
        TRACER.close()
        return records

    def test_valid_trace(self):
        assert validate_records(self._valid()) == []

    def test_empty_trace(self):
        assert validate_records([]) == ["empty trace"]

    def test_missing_meta(self):
        records = self._valid()[1:]
        assert any("meta" in p for p in validate_records(records))

    def test_wrong_version(self):
        records = self._valid()
        records[0]["version"] = 999
        assert any("version" in p for p in validate_records(records))

    def test_duplicate_span_id(self):
        records = self._valid()
        spans = [r for r in records if r["type"] == "span"]
        clone = dict(spans[0])
        records.append(clone)
        assert any("duplicate" in p for p in validate_records(records))

    def test_dangling_parent(self):
        records = self._valid()
        for record in records:
            if record["type"] == "span" and record["parent"] is None:
                record["parent"] = "nope-1"
        assert any("not in trace" in p for p in validate_records(records))

    def test_unclosed_is_a_problem(self):
        TRACER.enable()
        span("leaked")
        TRACER.close()
        records = TRACER.records()
        assert any("unclosed" in p for p in validate_records(records))

    def test_overlap_without_nesting(self):
        records = self._valid()
        base = dict(
            type="span", pid=1, tid=1, parent=None, outcome="ok", attrs={}
        )
        records.append(dict(base, name="a", ts=10.0, dur=2.0, id="1-90"))
        records.append(dict(base, name="b", ts=11.0, dur=2.0, id="1-91"))
        assert any("overlaps" in p for p in validate_records(records))

    def test_unknown_record_types_and_keys_ignored(self):
        records = self._valid()
        records.append({"type": "hologram", "ts": 1.0})
        for record in records:
            record["future_key"] = True
        assert validate_records(records) == []

    def test_load_records_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "meta"}\nnot json\n')
        with pytest.raises(ValueError, match="malformed JSON"):
            load_records(str(path))

    def test_validate_file(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        TRACER.enable(path)
        with span("x"):
            pass
        TRACER.close()
        assert validate_file(path) == []
        assert validate_file(str(tmp_path / "missing.jsonl"))


def _synthetic_records():
    """A hand-built two-pid trace with known timings."""
    return [
        {"type": "meta", "version": 1, "clock": "monotonic", "ts": 100.0,
         "pid": 1, "created": 0.0},
        {"type": "span", "name": "outer", "ts": 100.0, "dur": 0.05,
         "pid": 1, "tid": 1, "id": "1-1", "parent": None, "outcome": "ok",
         "attrs": {}},
        {"type": "span", "name": "inner", "ts": 100.01, "dur": 0.02,
         "pid": 1, "tid": 1, "id": "1-2", "parent": "1-1", "outcome": "ok",
         "attrs": {"k": 2}},
        {"type": "span", "name": "work", "ts": 100.02, "dur": 0.01,
         "pid": 2, "tid": 2, "id": "2-1", "parent": None, "outcome": "ok",
         "attrs": {}},
        {"type": "event", "name": "mark", "ts": 100.03, "pid": 1, "tid": 1,
         "parent": "1-1", "attrs": {"n": 1}},
    ]


class TestExporters:
    def test_chrome_shape(self):
        doc = to_chrome(_synthetic_records())
        events = doc["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        metas = [e for e in events if e["ph"] == "M"]
        assert len(complete) == 3
        assert len(instants) == 1
        # One process_name per pid; the meta pid is labelled parent.
        labels = {e["pid"]: e["args"]["name"] for e in metas}
        assert labels[1].startswith("parent")
        assert labels[2].startswith("worker")

    def test_chrome_timestamps_normalized_microseconds(self):
        events = to_chrome(_synthetic_records())["traceEvents"]
        complete = {e["name"]: e for e in events if e["ph"] == "X"}
        assert complete["outer"]["ts"] == 0.0
        assert complete["inner"]["ts"] == pytest.approx(10000.0)
        assert complete["inner"]["dur"] == pytest.approx(20000.0)
        assert all(e["ts"] >= 0 for e in events if "ts" in e)

    def test_chrome_json_is_valid_json(self):
        doc = json.loads(to_chrome_json(_synthetic_records()))
        assert "traceEvents" in doc

    def test_folded_self_time(self):
        lines = to_folded(_synthetic_records())
        folded = dict(
            (stack, int(value))
            for stack, value in (line.rsplit(" ", 1) for line in lines)
        )
        # outer self = 50ms - 20ms child = 30ms
        assert folded["outer"] == 30000
        assert folded["outer;inner"] == 20000
        assert folded["work"] == 10000

    def test_report_renders(self):
        text = render_report(_synthetic_records())
        assert "Worker lanes" in text

    def test_report_self_time_by_span(self):
        lines = render_report(_synthetic_records()).splitlines()
        start = lines.index("Self time by span")
        rows = [line.split() for line in lines[start + 4:start + 7]]
        assert rows == [
            ["outer", "1", "0.030s", "50.0%"],
            ["inner", "1", "0.020s", "33.3%"],
            ["work", "1", "0.010s", "16.7%"],
        ]


class TestSolverSpans:
    def test_solve_and_non_empty_absorb_are_spans(self):
        from repro.sat import CNF, Solver

        cnf = CNF()
        a, b = cnf.new_var(), cnf.new_var()
        cnf.add_clause([a, b])
        cnf.add_clause([-a, b])
        solver = Solver()
        solver.attach(cnf)
        TRACER.enable()
        solver.solve()  # absorbs the two pending clauses first
        solver.absorb()  # nothing pending: no span
        solver.solve([-b])
        spans = [r for r in TRACER.records() if r["type"] == "span"]
        assert [s["name"] for s in spans] == [
            "sat.absorb", "sat.solve", "sat.solve",
        ]
        absorb, first, second = spans
        assert absorb["parent"] == first["id"]
        assert absorb["attrs"] == {"clauses": 2}
        assert first["attrs"]["status"] == "sat"
        assert second["attrs"]["status"] == "unsat"
        assert "sat.solve" in render_report(TRACER.records())


class TestPerfBackend:
    def test_gauge_high_water(self):
        perf = PerfCounters()
        perf.gauge("bdd.nodes", 100)
        perf.gauge("bdd.nodes", 50)
        assert perf.gauges["bdd.nodes"] == 100.0
        perf.gauge("bdd.nodes", 30, high_water=False)
        assert perf.gauges["bdd.nodes"] == 30.0

    def test_snapshot_omits_empty_gauges(self):
        assert "gauges" not in PerfCounters().snapshot()

    def test_merge_round_trip(self):
        a = PerfCounters()
        a.record_sweep(10, 4, 0.5)
        a.bump("sat.clauses_reused", 3)
        a.hit("compile", 2)
        a.miss("compile", 1)
        a.gauge("bdd.nodes", 42)
        b = PerfCounters()
        b.merge(a.snapshot())
        assert b.gate_evals == 10
        assert b.counters["sat.clauses_reused"] == 3
        assert b.hit_rate("compile") == pytest.approx(2 / 3)
        assert b.gauges["bdd.nodes"] == 42.0

    def test_merge_tolerates_unknown_and_malformed_keys(self):
        """A snapshot from a newer worker must merge without raising:
        unknown top-level keys ignored, non-coercible values skipped."""
        perf = PerfCounters()
        perf.merge(
            {
                "unknown_section": {"whatever": 1},
                "gate_evals": "not-a-number",
                "sim_seconds": None,
                "counters": "not-a-dict",
                "caches": {"compile": "not-a-dict", "topo": {"hits": "x"}},
                "phases": {"reach": {"seconds": [], "calls": None}},
                "gauges": {"bdd.nodes": "nan?", "ok": 5},
            }
        )
        assert perf.gate_evals == 0
        assert perf.counters == {}
        assert perf.gauges == {"ok": 5.0}

    def test_merge_empty_snapshot(self):
        perf = PerfCounters()
        perf.merge({})
        assert perf.snapshot()["gate_evals"] == 0


class TestPerfFormatPinned:
    """``repro stats --perf`` prints ``PERF.format()`` verbatim; this
    pins the section layout byte-for-byte so downstream parsers (and
    the byte-stability promise) cannot drift silently."""

    def test_format_without_gauges_is_byte_stable(self):
        perf = PerfCounters()
        perf.record_sweep(10, 4, 0.5)
        perf.bump("sat.clauses_reused", 3)
        perf.hit("compile", 3)
        perf.miss("compile", 1)
        assert perf.format() == (
            "kernel perf counters:\n"
            "  simulation: 40 pattern-gate evals in 0.5s "
            "(80 pattern-gates/s)\n"
            "  counters:\n"
            "    sat.clauses_reused: 3\n"
            "  caches:\n"
            "    compile: 3 hits / 1 misses (75.0% hit rate)"
        )

    def test_gauges_section_only_when_present(self):
        perf = PerfCounters()
        assert "gauges" not in perf.format()
        perf.gauge("bdd.nodes", 1234)
        assert perf.format().endswith(
            "  gauges:\n    bdd.nodes: 1234"
        )
