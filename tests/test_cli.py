"""Tests for the command-line interface."""

import json
import os

import pytest

import repro.cli as cli
from repro.cli import _parse_target, main
from repro.designs import one_hot_ring, toggler
from repro.designs.counters import saturating_counter, shift_chain
from repro.netlist import circuit_to_text
from tests.conftest import buggy_counter


@pytest.fixture
def true_netlist(tmp_path):
    circuit, prop = saturating_counter(3, ceiling=5)
    path = tmp_path / "sat.net"
    path.write_text(circuit_to_text(circuit))
    return str(path), prop.signals()[0]


@pytest.fixture
def false_netlist(tmp_path):
    circuit, prop = shift_chain(3, source_constant=1)
    path = tmp_path / "chain.net"
    path.write_text(circuit_to_text(circuit))
    return str(path), prop.signals()[0]


class TestParseTarget:
    def test_single(self):
        assert _parse_target("a=1") == {"a": 1}

    def test_multiple(self):
        assert _parse_target("a=1, b=0") == {"a": 1, "b": 0}

    def test_bad_value(self):
        with pytest.raises(ValueError):
            _parse_target("a=2")

    def test_missing_equals(self):
        with pytest.raises(ValueError):
            _parse_target("a")

    def test_empty(self):
        with pytest.raises(ValueError):
            _parse_target(" , ")


class TestStats:
    def test_stats_output(self, true_netlist, capsys):
        path, _ = true_netlist
        assert main(["stats", path]) == 0
        out = capsys.readouterr().out
        assert "registers:" in out

    def test_missing_file(self, capsys):
        assert main(["stats", "/nonexistent.net"]) == 3


class TestVerify:
    def test_verified_exit_zero(self, true_netlist, capsys):
        path, wd = true_netlist
        assert main(["verify", path, "--watchdog", wd]) == 0
        assert "verified" in capsys.readouterr().out

    def test_falsified_exit_one(self, false_netlist, capsys):
        path, wd = false_netlist
        assert main(["verify", path, "--watchdog", wd]) == 1
        out = capsys.readouterr().out
        assert "falsified" in out
        assert "trace" in out  # waveform printed

    def test_target_cube(self, false_netlist):
        path, wd = false_netlist
        assert main(["verify", path, "--target", f"{wd}=1"]) == 1

    def test_vcd_output(self, false_netlist, tmp_path, capsys):
        path, wd = false_netlist
        vcd_path = str(tmp_path / "err.vcd")
        assert main(["verify", path, "--watchdog", wd, "--vcd", vcd_path]) == 1
        with open(vcd_path) as handle:
            assert "$enddefinitions" in handle.read()

    def test_smc_engine(self, true_netlist, capsys):
        path, wd = true_netlist
        assert main(["verify", path, "--watchdog", wd, "--engine", "smc"]) == 0
        assert "SMC" in capsys.readouterr().out

    def test_verbose_logs(self, true_netlist, capsys):
        path, wd = true_netlist
        main(["verify", path, "--watchdog", wd, "--verbose"])
        assert "[iter" in capsys.readouterr().out


@pytest.fixture
def buggy_netlist(tmp_path):
    """A falsifiable design that needs several CEGAR iterations, so
    --max-iterations 1 really interrupts it."""
    circuit, prop = buggy_counter()
    path = tmp_path / "buggy.net"
    path.write_text(circuit_to_text(circuit))
    return str(path), prop.signals()[0]


class TestResilienceCli:
    def test_timeout_exit_resource_out(self, true_netlist, capsys):
        path, wd = true_netlist
        code = main(["verify", path, "--watchdog", wd,
                     "--timeout", "0.0"])
        assert code == 2
        assert "resource out" in capsys.readouterr().out

    def test_missing_target_is_usage_error(self, true_netlist, capsys):
        path, _ = true_netlist
        assert main(["verify", path]) == 3
        assert "--watchdog" in capsys.readouterr().err

    def test_resume_only_for_rfn(self, true_netlist, capsys):
        path, wd = true_netlist
        code = main(["verify", path, "--watchdog", wd,
                     "--engine", "bmc", "--resume", "nope.json"])
        assert code == 3

    def test_checkpoint_resume_flow(self, buggy_netlist, tmp_path,
                                    capsys):
        path, wd = buggy_netlist
        ck = str(tmp_path / "ck.json")
        code = main(["verify", path, "--watchdog", wd,
                     "--max-iterations", "1", "--checkpoint", ck])
        assert code == 2
        assert os.path.exists(ck)
        capsys.readouterr()
        # Resume without restating the target: it comes from the
        # checkpoint, and the run completes with the true verdict.
        code = main(["verify", path, "--resume", ck])
        assert code == 1
        out = capsys.readouterr().out
        assert "falsified" in out
        assert "resumed from" in out

    def test_chaos_injection_smoke(self, buggy_netlist, capsys):
        path, wd = buggy_netlist
        code = main(["verify", path, "--watchdog", wd,
                     "--chaos", "reach=timeout"])
        assert code == 1  # BMC fallback still falsifies
        assert "fallback engines used" in capsys.readouterr().out

    def test_chaos_bad_spec_is_usage_error(self, buggy_netlist):
        path, wd = buggy_netlist
        code = main(["verify", path, "--watchdog", wd,
                     "--chaos", "reach=segfault"])
        assert code == 3

    def test_keyboard_interrupt_partial_report(
        self, buggy_netlist, tmp_path, capsys, monkeypatch
    ):
        path, wd = buggy_netlist
        ck = str(tmp_path / "ck.json")

        def interrupted_rfn_verify(circuit, prop, config=None, *,
                                   resume=None, observer=None):
            from repro.core.rfn import RFN

            if observer is not None:
                observer(RFN(circuit, prop, config, resume=resume))
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "rfn_verify", interrupted_rfn_verify)
        code = main(["verify", path, "--watchdog", wd,
                     "--checkpoint", ck, "--timeout", "30"])
        assert code == 130
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["status"] == "interrupted"
        assert report["checkpoint"] == ck
        assert os.path.exists(ck)
        assert report["budget_spent"]["seconds"] >= 0.0
        assert "interrupted" in captured.err

    def test_fuzz_instance_budget(self, capsys):
        code = main(["fuzz", "--iters", "2", "--seed", "5",
                     "--instance-budget", "0.0", "--no-shrink"])
        assert code == 0
        assert "per-instance budget" in capsys.readouterr().out


class TestCoverage:
    def test_rfn_coverage(self, tmp_path, capsys):
        circuit, signals = one_hot_ring(3)
        path = tmp_path / "ring.net"
        path.write_text(circuit_to_text(circuit))
        code = main(
            ["coverage", str(path), "--signals", ",".join(signals)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "5/8 unreachable" in out
        assert "111" in out  # listed unreachable state

    def test_bfs_coverage(self, tmp_path, capsys):
        circuit, signals = one_hot_ring(3)
        path = tmp_path / "ring.net"
        path.write_text(circuit_to_text(circuit))
        code = main(
            ["coverage", str(path), "--signals", ",".join(signals),
             "--method", "bfs", "--bfs-k", "8"]
        )
        assert code == 0
        assert "5/8" in capsys.readouterr().out

    def test_no_signals(self, tmp_path, capsys):
        circuit, _ = one_hot_ring(3)
        path = tmp_path / "ring.net"
        path.write_text(circuit_to_text(circuit))
        assert main(["coverage", str(path), "--signals", " "]) == 3


class TestSimulate:
    def test_waveform_printed(self, tmp_path, capsys):
        path = tmp_path / "tog.net"
        path.write_text(circuit_to_text(toggler()))
        assert main(["simulate", str(path), "--cycles", "8"]) == 0
        out = capsys.readouterr().out
        assert "trace of" in out

    def test_signal_selection(self, tmp_path, capsys):
        path = tmp_path / "tog.net"
        path.write_text(circuit_to_text(toggler()))
        assert main(
            ["simulate", str(path), "--signals", "q", "--cycles", "4"]
        ) == 0
        assert "q" in capsys.readouterr().out


class TestParseErrorExitCode:
    """Malformed design input: one clean diagnostic, exit 2 -- distinct
    from usage errors (3) and from property verdicts (0/1)."""

    def test_malformed_netlist_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.net"
        path.write_text("circuit c\ngate y = FROB a\n")
        assert main(["verify", str(path), "--target", "y=1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "line 2" in err
        assert "FROB" in err
        assert "Traceback" not in err

    def test_binary_netlist_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.net"
        path.write_bytes(b"\x00\x01\x02 definitely not text \xff\xfe")
        assert main(["stats", str(path)]) == 2
        assert "binary" in capsys.readouterr().err

    def test_stats_also_uses_parse_exit(self, tmp_path, capsys):
        path = tmp_path / "bad.net"
        path.write_text("wire x\n")
        assert main(["stats", str(path)]) == 2


class TestUsageErrorExitCode:
    """Argument errors exit 3, the ladder's usage code; argparse's own 2
    would read as an inconclusive verdict."""

    def test_unknown_flag(self, true_netlist, capsys):
        path, wd = true_netlist
        assert main(["verify", path, "--watchdog", wd, "--frobnicate"]) == 3
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 3
        assert "invalid choice" in capsys.readouterr().err

    def test_missing_positional(self, capsys):
        assert main(["verify"]) == 3
        assert "required" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["verify", "--help"]) == 0
        assert "usage:" in capsys.readouterr().out


class TestServeCli:
    def test_submit_serve_status_roundtrip(
        self, true_netlist, tmp_path, capsys
    ):
        path, wd = true_netlist
        queue_dir = str(tmp_path / "queue")
        assert main(["submit", queue_dir, path, "--watchdog", wd]) == 0
        assert "submitted j" in capsys.readouterr().out
        assert main([
            "serve", "--queue-dir", queue_dir, "--until-idle",
            "--workers", "1", "--poll", "0.02",
        ]) == 0
        capsys.readouterr()
        assert main(["status", queue_dir]) == 0
        out = capsys.readouterr().out
        assert "verified" in out
        assert main(["status", queue_dir, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == {"verified": 1}
        assert payload["inbox_pending"] == 0

    def test_submit_wait_times_out_without_daemon(
        self, true_netlist, tmp_path, capsys
    ):
        path, wd = true_netlist
        queue_dir = str(tmp_path / "queue")
        code = main(["submit", queue_dir, path, "--watchdog", wd,
                     "--wait", "--wait-timeout", "0.2"])
        assert code == 3
        assert "timed out" in capsys.readouterr().err

    def test_submit_rejects_malformed_netlist(self, tmp_path, capsys):
        bad = tmp_path / "bad.net"
        bad.write_text("gate y = FROB a\n")
        queue_dir = str(tmp_path / "queue")
        code = main(["submit", queue_dir, str(bad), "--target", "y=1"])
        assert code == 2  # rejected at the client, queue stays clean
        assert not os.path.exists(os.path.join(queue_dir, "inbox"))


def _write_corpus_instance(directory, circuit, prop, stem):
    from repro.netlist import circuit_to_text

    cube = ",".join(
        f"{name}={value}" for name, value in sorted(prop.target.items())
    )
    text = f"# !property {prop.name} {cube}\n" + circuit_to_text(circuit)
    path = directory / f"{stem}.net"
    path.write_text(text)
    return str(path)


class TestBatchExitCodes:
    """The batch ladder: falsified (1) > infrastructure (4) >
    inconclusive (2) > all-verified (0)."""

    def test_all_verified_exits_zero(self, tmp_path, capsys):
        from repro.designs.counters import saturating_counter as sat

        circuit, prop = sat(3, ceiling=5)
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        _write_corpus_instance(corpus, circuit, prop, "sat")
        assert main(["batch", str(corpus)]) == 0
        assert "verified=1" in capsys.readouterr().out

    def test_falsified_dominates(self, tmp_path, capsys):
        from tests.conftest import buggy_counter as buggy

        corpus = tmp_path / "corpus"
        corpus.mkdir()
        circuit, prop = buggy()
        _write_corpus_instance(corpus, circuit, prop, "buggy")
        assert main(["batch", str(corpus)]) == 1

    def test_unknown_exits_two_not_infra(self, tmp_path, capsys):
        """A clean budget expiry is an inconclusive verdict, not an
        infrastructure failure: exit 2, no [infra] marker."""
        from tests.conftest import buggy_counter as buggy

        corpus = tmp_path / "corpus"
        corpus.mkdir()
        circuit, prop = buggy()
        _write_corpus_instance(corpus, circuit, prop, "buggy")
        assert main(["batch", str(corpus), "--timeout", "0.0"]) == 2
        assert "[infra]" not in capsys.readouterr().out

    def test_infrastructure_exits_four(self, tmp_path, capsys,
                                       monkeypatch):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        from tests.conftest import buggy_counter as buggy

        circuit, prop = buggy()
        _write_corpus_instance(corpus, circuit, prop, "buggy")

        def fake_shards(args, items, strategies):
            return [
                {
                    "path": path,
                    "name": instance.name,
                    "verdict": "error",
                    "winner": None,
                    "seconds": None,
                    "detail": "worker died (exitcode -9)",
                    "infrastructure": True,
                }
                for path, instance in items
            ]

        monkeypatch.setattr(cli, "_batch_shards", fake_shards)
        report_path = str(tmp_path / "report.json")
        code = main(["batch", str(corpus), "--report", report_path])
        assert code == 4
        out = capsys.readouterr().out
        assert "[infra]" in out
        assert "infrastructure failure" in out
        with open(report_path) as handle:
            report = json.loads(handle.read())
        assert len(report["infrastructure_failures"]) == 1
        assert report["verdict_counts"] == {"error": 1}

    def test_batch_serve_mode_reports_attempts(self, tmp_path, capsys):
        from repro.designs.counters import saturating_counter as sat

        circuit, prop = sat(3, ceiling=5)
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        _write_corpus_instance(corpus, circuit, prop, "sat")
        report_path = str(tmp_path / "report.json")
        code = main([
            "batch", str(corpus), "--serve",
            "--queue-dir", str(tmp_path / "queue"),
            "--report", report_path,
        ])
        assert code == 0
        with open(report_path) as handle:
            report = json.loads(handle.read())
        assert report["serve"] is True
        record = report["instances"][0]
        assert record["verdict"] == "verified"
        assert record["attempts"] == 1
        assert record["infrastructure"] is False
