"""Resilience study: how gracefully each core degrades under adversity.

The fault-injection counterpart of the characterization tables: instead of
asking "how fast is each core", it asks "how much adversity can each core
absorb before the *task* fails" — the question that actually decides
whether an insect-scale platform survives a gust-induced current spike or
the last 20 % of its battery.

* :func:`resilience_matrix` — run one campaign per fault model over a
  common severity grid and collect per-core resilience scores into a
  cores x faults matrix.
* :func:`brownout_envelope` — sweep brownout severity finely and report,
  per core, the first severity at which the hover mission is lost and at
  which kernel peak power exceeds the sagged supply's budget.
* :func:`render_matrix` — text table of the matrix for the CLI / docs.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.api import (
    CampaignSpec,
    EngineOptions,
    build_report,
    get_fault,
    run_campaign,
)

#: Fault models the study sweeps by default (one campaign each).
STUDY_FAULTS: Tuple[str, ...] = ("brownout", "battery", "dvfs", "imu-dropout")

#: Common severity grid (0 is implied by the campaign planner).
STUDY_SEVERITIES: Tuple[float, ...] = (0.25, 0.5, 0.75, 1.0)

#: Closed-loop kernels priced in the kernel grid of each campaign.
STUDY_KERNELS: Tuple[str, ...] = ("mahony", "se3 controller")


def resilience_matrix(
    faults: Iterable[str] = STUDY_FAULTS,
    severities: Iterable[float] = STUDY_SEVERITIES,
    missions: Tuple[str, ...] = ("hover",),
    archs: Tuple[str, ...] = ("m4", "m33", "m7"),
    kernels: Tuple[str, ...] = STUDY_KERNELS,
    seed: int = 0,
    jobs: int = 1,
) -> List[Dict]:
    """Per-core resilience score for each fault model.

    Returns one row per fault: ``{"fault": ..., "scores": {arch: score},
    "report": <full resilience report>}``.  Fault models without an arch
    seam (pure sensor faults) skip the kernel grid automatically.
    """
    options = EngineOptions(jobs=jobs)
    rows: List[Dict] = []
    for fault_name in faults:
        fault = get_fault(fault_name)
        spec = CampaignSpec(
            fault=fault_name,
            severities=tuple(severities),
            missions=missions,
            kernels=kernels if "arch" in fault.kinds else (),
            archs=archs,
            seed=seed,
        )
        report = build_report(run_campaign(spec, options=options))
        rows.append({
            "fault": fault_name,
            "scores": {
                core["arch"]: core["resilience_score"]
                for core in report["cores"]
            },
            "overall": report["overall_resilience_score"],
            "report": report,
        })
    return rows


def brownout_envelope(
    archs: Tuple[str, ...] = ("m4", "m33", "m7"),
    severities: Optional[Iterable[float]] = None,
    kernels: Tuple[str, ...] = STUDY_KERNELS,
    seed: int = 0,
    jobs: int = 1,
) -> List[Dict]:
    """Per-core brownout survival envelope.

    For each core: the first severity at which the hover mission fails,
    and the first at which any studied kernel's peak power exceeds the
    sagged supply's deliverable budget — the two edges of the platform's
    brownout envelope.
    """
    grid = tuple(severities) if severities is not None else (
        0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0
    )
    spec = CampaignSpec(
        fault="brownout", severities=grid, missions=("hover",),
        kernels=kernels, archs=archs, seed=seed,
    )
    report = build_report(run_campaign(spec,
                                       options=EngineOptions(jobs=jobs)))
    rows: List[Dict] = []
    for arch in archs:
        mission_fail = None
        for entry in report["missions"]:
            if entry["arch"] == arch:
                mission_fail = entry["first_failing_severity"]
        budget_fail = None
        for entry in report["kernels"]:
            if entry["arch"] != arch:
                continue
            for point in entry["curve"]:
                if point.get("within_budget") is False:
                    if budget_fail is None or point["severity"] < budget_fail:
                        budget_fail = point["severity"]
                    break
        rows.append({
            "arch": arch,
            "mission_fails_at": mission_fail,
            "budget_fails_at": budget_fail,
        })
    return rows


def render_matrix(rows: List[Dict]) -> str:
    """Text table: fault models down, cores across, resilience in cells."""
    if not rows:
        return "(no campaigns run)"
    archs = sorted({arch for row in rows for arch in row["scores"]})
    header = f"{'fault':14s}" + "".join(f"{a:>12s}" for a in archs) + \
        f"{'overall':>12s}"
    lines = [header, "-" * len(header)]
    for row in rows:
        cells = "".join(
            f"{row['scores'].get(a, float('nan')):12.3f}" for a in archs
        )
        lines.append(f"{row['fault']:14s}{cells}{row['overall']:12.3f}")
    return "\n".join(lines)
