"""Tests for the CLI convert command, frontends and the SAT engines."""

from repro.cli import main
from repro.designs import free_counter
from repro.designs.counters import saturating_counter, shift_chain
from repro.netlist import circuit_to_text

VERILOG = """
module blinker (clk, en, led);
  input clk; input en; output led;
  reg state = 1'b0;
  always @(posedge clk) state <= en ? ~state : state;
  assign led = state;
endmodule
"""


class TestConvert:
    def test_netlist_to_aiger(self, tmp_path, capsys):
        src = tmp_path / "cnt.net"
        src.write_text(circuit_to_text(free_counter(3)))
        dst = tmp_path / "cnt.aag"
        assert main(["convert", str(src), str(dst)]) == 0
        assert dst.read_text().startswith("aag ")

    def test_aiger_back_to_netlist(self, tmp_path):
        src = tmp_path / "cnt.net"
        src.write_text(circuit_to_text(free_counter(3)))
        aag = tmp_path / "cnt.aag"
        main(["convert", str(src), str(aag)])
        back = tmp_path / "back.net"
        assert main(["convert", str(aag), str(back)]) == 0
        assert "reg" in back.read_text()

    def test_verilog_input(self, tmp_path, capsys):
        src = tmp_path / "blink.v"
        src.write_text(VERILOG)
        dst = tmp_path / "blink.net"
        assert main(["convert", str(src), str(dst)]) == 0
        assert "state" in dst.read_text()

    def test_strash_reports_reduction(self, tmp_path, capsys):
        from repro.netlist import Circuit

        c = Circuit("dup")
        a = c.add_input("a")
        x = c.g_not(c.g_not(a))
        c.add_register(x, output="q")
        c.mark_output("q")
        c.validate()
        src = tmp_path / "dup.net"
        src.write_text(circuit_to_text(c))
        dst = tmp_path / "dup.net.out"
        assert main(["convert", str(src), str(dst), "--strash"]) == 0
        assert "strash:" in capsys.readouterr().out


class TestVerilogVerifyFlow:
    def test_verify_verilog_property(self, tmp_path, capsys):
        src = tmp_path / "blink.v"
        src.write_text(VERILOG)
        # state==1 is reachable (enable high): expect falsified.
        code = main(["verify", str(src), "--target", "state=1"])
        assert code == 1


class TestBmcEngine:
    def test_bmc_falsifies(self, tmp_path, capsys):
        circuit, prop = shift_chain(3, source_constant=1)
        src = tmp_path / "chain.net"
        src.write_text(circuit_to_text(circuit))
        wd = prop.signals()[0]
        code = main(["verify", str(src), "--watchdog", wd,
                     "--engine", "bmc"])
        assert code == 1
        assert "bmc: falsified" in capsys.readouterr().out

    def test_bmc_proves_by_induction(self, tmp_path, capsys):
        circuit, prop = saturating_counter(3, ceiling=4)
        src = tmp_path / "sat.net"
        src.write_text(circuit_to_text(circuit))
        wd = prop.signals()[0]
        code = main(["verify", str(src), "--watchdog", wd,
                     "--engine", "kinduction", "--max-depth", "12"])
        assert code == 0
        assert "k-induction" in capsys.readouterr().out

    def test_bmc_unknown_on_small_depth(self, tmp_path, capsys):
        circuit, prop = shift_chain(6, source_constant=1)
        src = tmp_path / "chain6.net"
        src.write_text(circuit_to_text(circuit))
        wd = prop.signals()[0]
        code = main(["verify", str(src), "--watchdog", wd,
                     "--engine", "bmc", "--max-depth", "2"])
        assert code == 2  # plain BMC never proves; never "false"
