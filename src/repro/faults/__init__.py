"""Fault-injection and power-adversity subsystem.

Composable fault models (supply brownout, battery discharge, DVFS
throttling, CPI/overrun storms, IMU faults, probe faults) injected
through explicit seams in the MCU model, the instrumentation chain, and
the closed-loop stack; a deterministic campaign planner that expands
``(kernel | mission) x fault x severity`` grids into engine jobs; and a
resilience report that scores how gracefully each core degrades.

With every injector disabled (severity 0 / no hook), every touched code
path is bit-identical to the fault-free original — asserted in
``tests/test_faults.py``.
"""

from repro.faults.base import (
    FAULTS,
    FaultModel,
    check_severity,
    fault_names,
    get_fault,
    register,
)
from repro.faults.campaign import (
    CampaignResult,
    FaultCampaignSpec,
    MissionJob,
    plan_mission_cells,
    run_campaign,
)
from repro.faults.compute import CpiStormFault, DvfsThrottleFault, OverrunStormFault
from repro.faults.power import (
    BatteryDischargeFault,
    BrownoutFault,
    battery_voltage_frac,
)
from repro.faults.probes import (
    ProbeNoiseFault,
    corrupt_trace,
    make_capture_filter,
    make_edge_filter,
)
from repro.faults.resilience import build_report, render_report, save_report
from repro.faults.sensors import (
    ImuBiasFault,
    ImuDropoutFault,
    ImuStuckFault,
    corrupt_sequence,
)

__all__ = [
    "FAULTS",
    "FaultModel",
    "check_severity",
    "fault_names",
    "get_fault",
    "register",
    "CampaignResult",
    "FaultCampaignSpec",
    "MissionJob",
    "plan_mission_cells",
    "run_campaign",
    "CpiStormFault",
    "DvfsThrottleFault",
    "OverrunStormFault",
    "BatteryDischargeFault",
    "BrownoutFault",
    "battery_voltage_frac",
    "ProbeNoiseFault",
    "corrupt_trace",
    "make_capture_filter",
    "make_edge_filter",
    "build_report",
    "render_report",
    "save_report",
    "ImuBiasFault",
    "ImuDropoutFault",
    "ImuStuckFault",
    "corrupt_sequence",
]
