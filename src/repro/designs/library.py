"""Named registry of the paper's evaluation workloads.

``table1_workloads()`` returns the five property-verification rows of
Table 1 (processor ``mutex``/``error_flag``, FIFO ``psh_hf``/``psh_af``/
``psh_full``); ``table2_workloads()`` returns the seven coverage-analysis
rows of Table 2 (IU1-IU5, USB1-USB2).

Sizes default to a CI scale that keeps the pure-Python engines fast; set
the environment variable ``REPRO_PAPER_SCALE=1`` (or pass
``paper_scale=True``) to build the paper-scale configurations (e.g. the
~5,000-register processor module).  The shape claims under test do not
depend on the scale.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional

from repro.core.property import UnreachabilityProperty
from repro.designs.cpu import CpuParams, build_cpu
from repro.designs.fifo import FifoParams, build_fifo
from repro.designs.picojava_iu import IuParams, build_iu
from repro.designs.usb import UsbParams, build_usb
from repro.netlist.circuit import Circuit


def paper_scale_enabled() -> bool:
    """True when the REPRO_PAPER_SCALE environment variable is set."""
    return os.environ.get("REPRO_PAPER_SCALE", "") not in ("", "0")


@dataclass
class PropertyWorkload:
    """One Table-1 row: a property on a design."""

    name: str
    circuit: Circuit
    prop: UnreachabilityProperty
    expected: bool  # True = property holds


@dataclass
class CoverageWorkload:
    """One Table-2 row: a coverage-signal set on a design."""

    name: str
    circuit: Circuit
    signals: List[str]


def table1_workloads(
    paper_scale: Optional[bool] = None,
) -> List[PropertyWorkload]:
    """The five Table-1 property-verification workloads."""
    if paper_scale is None:
        paper_scale = paper_scale_enabled()
    cpu_params = CpuParams.paper_scale() if paper_scale else CpuParams()
    fifo_params = FifoParams.paper_scale() if paper_scale else FifoParams()
    cpu, cpu_props = build_cpu(cpu_params)
    fifo, fifo_props = build_fifo(fifo_params)
    return [
        PropertyWorkload("mutex", cpu, cpu_props["mutex"], expected=True),
        PropertyWorkload(
            "error_flag", cpu, cpu_props["error_flag"], expected=False
        ),
        PropertyWorkload("psh_hf", fifo, fifo_props["psh_hf"], expected=True),
        PropertyWorkload("psh_af", fifo, fifo_props["psh_af"], expected=True),
        PropertyWorkload(
            "psh_full", fifo, fifo_props["psh_full"], expected=True
        ),
    ]


def table2_workloads(
    paper_scale: Optional[bool] = None,
) -> List[CoverageWorkload]:
    """The seven Table-2 coverage-analysis workloads."""
    if paper_scale is None:
        paper_scale = paper_scale_enabled()
    iu_params = IuParams.paper_scale() if paper_scale else IuParams()
    usb_params = UsbParams.paper_scale() if paper_scale else UsbParams()
    iu, iu_sets = build_iu(iu_params)
    usb, usb_sets = build_usb(usb_params)
    workloads = [
        CoverageWorkload(name, iu, iu_sets[name])
        for name in ("IU1", "IU2", "IU3", "IU4", "IU5")
    ]
    workloads.extend(
        CoverageWorkload(name, usb, usb_sets[name])
        for name in ("USB1", "USB2")
    )
    return workloads
