"""Tests for VCD export."""

import io

from repro.trace import Trace
from repro.vcd import _group_signals, _identifier, trace_to_vcd, write_vcd


def sample_trace():
    return Trace(
        states=[
            {"cnt[0]": 0, "cnt[1]": 0, "wd": 0},
            {"cnt[0]": 1, "cnt[1]": 0, "wd": 0},
            {"cnt[0]": 0, "cnt[1]": 1, "wd": 1},
        ],
        inputs=[{"en": 1}, {"en": 1}, {}],
        circuit_name="demo",
    )


class TestIdentifiers:
    def test_identifiers_unique(self):
        codes = {_identifier(i) for i in range(500)}
        assert len(codes) == 500

    def test_identifiers_printable(self):
        for i in (0, 93, 94, 500):
            assert all(33 <= ord(ch) <= 126 for ch in _identifier(i))


class TestGrouping:
    def test_vector_grouping(self):
        groups = dict(_group_signals(["cnt[0]", "cnt[1]", "cnt[2]", "wd"]))
        assert groups["cnt"] == ["cnt[0]", "cnt[1]", "cnt[2]"]
        assert groups["wd"] == ["wd"]

    def test_sparse_vector_degrades_to_scalars(self):
        groups = dict(_group_signals(["v[0]", "v[2]"]))
        assert "v" not in groups
        assert groups["v[0]"] == ["v[0]"]
        assert groups["v[2]"] == ["v[2]"]

    def test_single_bit_vector_is_scalar(self):
        groups = dict(_group_signals(["a[0]"]))
        assert groups == {"a[0]": ["a[0]"]}


class TestWriter:
    def test_header_and_definitions(self):
        out = io.StringIO()
        write_vcd(sample_trace(), out)
        text = out.getvalue()
        assert "$timescale 1ns $end" in text
        assert "$var wire 2 " in text  # cnt bus
        assert "$var wire 1 " in text  # scalars
        assert "$enddefinitions $end" in text

    def test_value_changes_emitted(self):
        out = io.StringIO()
        write_vcd(sample_trace(), out)
        text = out.getvalue()
        assert "#0" in text and "#1" in text and "#2" in text
        assert "b01 " in text  # cnt = 1 at cycle 1 (MSB first)
        assert "b10 " in text  # cnt = 2 at cycle 2

    def test_unassigned_values_are_x(self):
        trace = Trace(states=[{"a": 1}, {}], inputs=[{}, {}])
        out = io.StringIO()
        write_vcd(trace, out)
        text = out.getvalue()
        assert "x" in text

    def test_unchanged_values_not_repeated(self):
        trace = Trace(
            states=[{"a": 1}, {"a": 1}, {"a": 0}],
            inputs=[{}, {}, {}],
        )
        out = io.StringIO()
        write_vcd(trace, out)
        lines = out.getvalue().splitlines()
        value_lines = [l for l in lines if l and l[0] in "01x"]
        assert len(value_lines) == 2  # initial 1, change to 0

    def test_explicit_signal_selection(self):
        out = io.StringIO()
        write_vcd(sample_trace(), out, signals=["wd"])
        text = out.getvalue()
        assert "wd" in text
        assert "cnt" not in text

    def test_file_round_trip(self, tmp_path):
        path = trace_to_vcd(sample_trace(), str(tmp_path / "t.vcd"))
        with open(path) as handle:
            assert "$enddefinitions" in handle.read()

    def test_final_timestamp(self):
        out = io.StringIO()
        write_vcd(sample_trace(), out)
        assert out.getvalue().rstrip().endswith("#3")
