#!/usr/bin/env python
"""FIFO controller verification: RFN vs plain symbolic model checking.

Reproduces the Table-1 FIFO rows interactively: builds the FIFO
controller with its three flag-consistency properties (``psh_hf``,
``psh_af``, ``psh_full``), runs RFN on each, and contrasts the size of
the abstract model RFN needed against the full cone of influence the
plain COI-reduced model checker must carry (which includes the whole
data array because of the checker logic).

Run:  python examples/fifo_verification.py [--paper-scale]
"""

import argparse
import time

from repro.core import RFN
from repro.designs.fifo import FifoParams, build_fifo
from repro.mc import model_check_coi
from repro.mc.reach import ReachLimits
from repro.runtime import Budget
from repro.netlist.ops import coi_stats


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help="use the ~135-register configuration from the paper",
    )
    args = parser.parse_args()
    params = FifoParams.paper_scale() if args.paper_scale else FifoParams()
    circuit, props = build_fifo(params)
    print(f"FIFO controller: depth={params.depth} width={params.width} -> "
          f"{circuit.num_registers} registers, {circuit.num_gates} gates")

    for name, prop in props.items():
        coi_regs, coi_gates = coi_stats(circuit, prop.signals())
        print(f"\n=== {name}: COI {coi_regs} regs / {coi_gates} gates ===")

        start = time.monotonic()
        result = RFN(circuit, prop).run()
        print(f"RFN: {result.status.value} in {result.seconds:.2f}s, "
              f"{len(result.iterations)} iterations, abstract model "
              f"{result.abstract_model_registers} regs "
              f"({result.abstract_model_registers}/{coi_regs} of the COI)")
        for record in result.iterations:
            print(f"    iter {record.index}: model {record.model_registers} "
                  f"regs / {record.model_inputs} inputs, reach "
                  f"{record.reach_outcome} in {record.reach_iterations} "
                  f"images, +{record.refinement_added} registers")

        baseline = model_check_coi(
            circuit, prop,
            limits=ReachLimits(
                max_nodes=400_000, budget=Budget(max_seconds=60)
            ),
        )
        print(f"plain SMC + COI: {baseline.outcome.value} in "
              f"{baseline.seconds:.2f}s over {baseline.coi_registers} "
              f"registers")


if __name__ == "__main__":
    main()
