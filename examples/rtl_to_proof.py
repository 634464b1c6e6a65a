#!/usr/bin/env python
"""Full flow: RTL -> synthesis -> three engines -> certified proof.

Walks one design through the whole stack:

1. parse a Verilog-subset module (the paper's designs enter as RTL),
2. structurally optimize it through the AIG (strash),
3. verify a safety property three independent ways -- RFN abstraction
   refinement, plain symbolic model checking, and SAT-based k-induction,
4. certify the RFN proof by re-checking its inductive invariant with the
   SAT engine, on the abstract model and on the full design,
5. export the design as AIGER for external tools.

Run:  python examples/rtl_to_proof.py
"""

from repro.aig import circuit_to_aig, to_aiger
from repro.aig.convert import strash_circuit
from repro.core import RFN, UnreachabilityProperty
from repro.core.certify import certify_invariant
from repro.engine import registry
from repro.mc.bmc import bmc
from repro.netlist import parse_verilog

RTL = """
// A traffic-light controller: green -> yellow -> red -> green, with a
// pedestrian request that can only be honoured during red.
module traffic (clk, ped_req, walk);
  input clk; input ped_req; output walk;
  reg [1:0] phase = 2'd0;        // 0 green, 1 yellow, 2 red
  reg walk_r = 1'b0;
  reg bad_r = 1'b0;
  wire in_green; wire in_yellow; wire in_red;
  assign in_green  = phase == 2'd0;
  assign in_yellow = phase == 2'd1;
  assign in_red    = phase == 2'd2;
  always @(posedge clk) begin
    phase  <= in_green ? 2'd1 : (in_yellow ? 2'd2 : 2'd0);
    walk_r <= in_red & ped_req;
    bad_r  <= bad_r | (walk_r & ~in_red & ~in_green);
  end
  assign walk = walk_r;
endmodule
"""


def main():
    # 1. Parse RTL ("gate-level designs obtained through logic synthesis").
    circuit = parse_verilog(RTL)
    print(f"parsed RTL: {circuit}")

    # 2. Structural optimization through the AIG.
    optimized = strash_circuit(circuit)
    print(f"strash: {circuit.num_gates} -> {optimized.num_gates} gates")

    # Safety property: the sticky checker register never fires (walk is
    # only ever granted while red or just after, never mid-yellow).
    prop = UnreachabilityProperty("walk_outside_red", {"bad_r": 1})

    # 3a. RFN abstraction refinement.
    rfn_result = RFN(optimized, prop).run()
    print(f"RFN:          {rfn_result.status.value} "
          f"({rfn_result.abstract_model_registers} of "
          f"{optimized.num_registers} registers in the abstract model)")

    # 3b. Plain symbolic model checking with COI reduction.
    smc = registry.get("bdd").run(optimized, prop)
    print(f"plain SMC:    {smc.verdict} ({smc.detail})")

    # 3c. SAT-based k-induction.
    kind = bmc(optimized, prop, max_depth=16, unique_states=True)
    print(f"k-induction:  {kind.outcome.value} "
          f"(depth {kind.induction_depth})")

    # 4. Certify RFN's proof with the SAT engine.
    cert_abs = certify_invariant(
        rfn_result.abstract_model, prop,
        rfn_result.invariant, rfn_result.invariant_encoding,
    )
    cert_full = certify_invariant(
        optimized, prop,
        rfn_result.invariant, rfn_result.invariant_encoding,
    )
    print(f"certificate on abstract model: {cert_abs.status.value} "
          f"{cert_abs.obligations}")
    print(f"certificate on full design:    {cert_full.status.value}")

    # 5. Export for external tools.
    aag = to_aiger(circuit_to_aig(optimized))
    print(f"\nAIGER export ({len(aag.splitlines())} lines), header: "
          f"{aag.splitlines()[0]}")

    assert rfn_result.verified and smc.verified and cert_abs.ok and cert_full.ok


if __name__ == "__main__":
    main()
