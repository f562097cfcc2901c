"""Tests for the executor shared by fault campaigns and scenario sets.

Both campaign kinds plan their work as mission jobs and kernel sweeps and
hand them to one executor, so their guarantees are checked side by side:

* raw campaign outputs are pinned by digest, so a refactor of the
  executor cannot move a single byte of either kind's records;
* a scenario campaign interrupted mid-sweep resumes from its
  checkpoints to the same report as an uninterrupted run;
* ``fault.*`` trace instants are the same whether mission jobs run
  in-process or in a process pool.
"""

import hashlib
import json
from collections import Counter
from dataclasses import replace

import pytest

import repro.obs as obs
from repro.engine import EngineOptions
from repro.faults import FaultCampaignSpec, run_campaign
from repro.scenarios import (
    ScenarioSet,
    ScenarioSpec,
    generate_scenarios,
    run_scenarios,
    save_report,
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ----------------------------------------------------------- pinned outputs


def test_fault_campaign_raw_grids_match_pinned_digest():
    # Two missions (one strider) on two cores, with brownout resets.
    spec = FaultCampaignSpec(
        fault="brownout", severities=(1.0,), missions=("hover", "steer"),
        kernels=("mahony",), archs=("m33", "m4"), seed=7,
    )
    result = run_campaign(spec)
    # Key order as the service sends the grids: no sort_keys.
    raw = json.dumps({"kernel_grid": result.kernel_grid,
                      "mission_grid": result.mission_grid})
    assert _sha256(raw.encode()) == (
        "082250350acba9a28f83a4bf7c9e2f07fb8b144476cfe78264cdbad3434c0bc8")


def test_scenario_report_matches_pinned_digest(tmp_path):
    # Hover and swarm jobs under faults, kernels in three scalar groups.
    report = run_scenarios(generate_scenarios(tier="b", count=4, seed=30))
    path = save_report(report, tmp_path / "report.json")
    assert _sha256(path.read_bytes()) == (
        "6d0cbcaafc5b75bad9771f017a0406c9f5a58e59ba2b09f9e48dac221f2dddcc")


# ---------------------------------------------------- checkpoint and resume


def test_scenario_campaign_resumes_from_per_scalar_checkpoints(tmp_path):
    # The kernel scenarios of a Tier-B set, missions dropped: several
    # scalar groups, each swept by the engine with its own checkpoint.
    sset = generate_scenarios(tier="b", count=12, seed=42)
    kernels_only = ScenarioSet(
        scenarios=tuple(replace(s, mission=None)
                        for s in sset.kernel_scenarios()),
        tier="b", seed=42, generator="handmade",
    ).validated()
    groups = {s.scalar for s in kernels_only.scenarios}
    assert len(groups) > 1

    uninterrupted = run_scenarios(kernels_only)
    checkpoint = tmp_path / "campaign.jsonl"
    options = EngineOptions(checkpoint=checkpoint, resume=True)
    run_scenarios(kernels_only, options=options)
    files = sorted(tmp_path.glob("campaign*.jsonl"))
    assert len(files) == len(groups)
    # Kill every group's sweep after its first cell (header + one line).
    for path in files:
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:2]))

    resumed = run_scenarios(kernels_only, options=options)
    # cache_stats may differ: the resumed run solves less.
    for key in ("kernel_grid", "pareto", "failure_rates"):
        assert resumed[key] == uninterrupted[key]


# ------------------------------------------------------------ trace instants


_HOVER = {"kind": "hover", "name": "h", "duration_s": 0.2,
          "control_rate_hz": 1000.0}

#: Two faulted hovers: a brownout reset and an IMU dropout storm.
_PROBE_SET = ScenarioSet(
    scenarios=(
        ScenarioSpec(name="brownout", mission=_HOVER, fault="brownout",
                     severity=1.0, seed=1),
        ScenarioSpec(name="dropout", mission=_HOVER, fault="imu-dropout",
                     severity=0.8, seed=2),
    ),
    tier="b", seed=0, generator="handmade",
).validated()

_CAMPAIGNS = {
    "faults": lambda jobs: run_campaign(FaultCampaignSpec(
        fault="brownout", severities=(1.0,), missions=("hover",), seed=5,
    ), jobs=jobs).mission_grid,
    "scenarios": lambda jobs: run_scenarios(_PROBE_SET, jobs=jobs)[
        "mission_grid"],
}


def _traced(campaign, jobs):
    """Run one campaign traced; its records and ``fault.*`` instants."""
    tracer, _ = obs.observe()
    try:
        records = campaign(jobs)
    finally:
        obs.unobserve()
    instants = Counter(
        json.dumps(i, sort_keys=True) for i in tracer.instants
        if i["name"].startswith("fault.")
    )
    return records, instants


@pytest.mark.parametrize("kind", sorted(_CAMPAIGNS))
def test_fault_instants_identical_in_process_and_pooled(kind):
    records, serial = _traced(_CAMPAIGNS[kind], 1)
    assert sum(serial.values()) > 0
    pooled_records, pooled = _traced(_CAMPAIGNS[kind], 2)
    assert pooled_records == records
    assert pooled == serial
