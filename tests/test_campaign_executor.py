"""Tests for the executor shared by fault campaigns and scenario sets.

Both campaign kinds plan their work as mission jobs and kernel sweeps and
hand them to one executor, so their guarantees are checked side by side:

* raw campaign outputs are pinned by digest, so a refactor of the
  executor cannot move a single byte of either kind's records;
* so is the observability stream of single mission runs (result,
  sim-time trace events, metrics), so a refactor of the mission loop
  cannot move a span, an instant or a metric either;
* a campaign of either kind killed mid-solve and rerun over the same
  trace-cache directory re-solves only what had not finished and gives
  the same report as an uninterrupted run;
* ``fault.*`` trace instants are the same whether mission jobs run
  in-process or in a process pool, and ``EngineOptions.jobs`` is what
  sends them to the pool;
* a mission worker that dies ends the campaign in a typed
  ``BrokenProcessPool``, not a hang.
"""

import hashlib
import json
import os
from collections import Counter
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, replace

import pytest

import repro.obs as obs
from repro.closedloop import (
    FlappingWingRunner,
    HoverMission,
    SteeringCourse,
    StriderRunner,
)
from repro.engine import EngineOptions
from repro.faults import FaultCampaignSpec, build_report, get_fault, run_campaign
from repro.faults import save_report as save_resilience_report
from repro.faults.campaign import FAULT_METRICS, mission_cell, run_mission_jobs
from repro.mcu.arch import get_arch
from repro.scenarios import (
    ScenarioSet,
    ScenarioSpec,
    generate_scenarios,
    run_scenarios,
    save_report,
)
from tests.test_engine import error_within, kill_and_rerun


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


def _mission_stream(runner, mission) -> dict:
    """One traced run: its result, sim-time trace events and metrics."""
    tracer, metrics = obs.observe()
    try:
        result = runner.run(mission)
    finally:
        obs.unobserve()
    events = [e for e in obs.to_chrome_trace(tracer)["traceEvents"]
              if e["ph"] != "M"]
    return {"result": asdict(result), "events": events,
            "metrics": metrics.as_dict()}


def test_mission_observability_stream_matches_pinned_digest():
    hover = HoverMission(duration_s=0.2)
    steer = SteeringCourse(duration_s=1.0)
    brownout = get_fault("brownout").mission_hook(
        1.0, 4, hover.duration_s, 1.0 / 2000.0)
    dropout = get_fault("imu-dropout").mission_hook(
        0.8, 5, steer.duration_s, 1.0 / 200.0)
    runs = [
        # Clean; then overrun instants; then on_price, abort_reason and
        # fault instants; then on_heading on the strider stack.
        (FlappingWingRunner(arch=get_arch("m33")), hover),
        (FlappingWingRunner(arch=get_arch("m0plus")), hover),
        (FlappingWingRunner(arch=get_arch("m33"), fault_hook=brownout), hover),
        (StriderRunner(arch=get_arch("m33"), fault_hook=dropout), steer),
    ]
    streams = [_mission_stream(runner, mission) for runner, mission in runs]
    assert any(e["name"] == "mission.overrun" for e in streams[1]["events"])
    assert streams[2]["result"]["aborted_by"] is not None
    assert streams[3]["result"]["fault_events"] > 0
    raw = json.dumps(streams, sort_keys=True)
    assert _sha256(raw.encode()) == (
        "7423cd6c27d6fca2e1b0a26010e807e87be78b62f3c7fa73fac337951830a17c")


# ------------------------------------------------ kill and rerun over a cache


def test_killed_scenario_campaign_reruns_to_the_same_report(
    monkeypatch, tmp_path
):
    # The kernel scenarios of a Tier-B set, missions dropped: several
    # scalar groups, all swept over one trace cache.
    sset = generate_scenarios(tier="b", count=8, seed=42)
    kernels_only = ScenarioSet(
        scenarios=tuple(replace(s, mission=None)
                        for s in sset.kernel_scenarios()),
        tier="b", seed=42, generator="handmade",
    ).validated()
    assert len({s.scalar for s in kernels_only.scenarios}) > 1
    reports = []

    def campaign(options):
        reports.append(run_scenarios(kernels_only, options=options))

    full, rerun = kill_and_rerun(monkeypatch, campaign, tmp_path, 3)
    assert len(full) > 3
    assert rerun == full[3:]
    uninterrupted, resumed = reports
    # cache_stats may differ: the rerun hits the solves that finished.
    for report in reports:
        report.pop("cache_stats")
    assert resumed == uninterrupted


def test_killed_fault_campaign_reruns_to_a_byte_identical_report(
    monkeypatch, tmp_path
):
    spec = FaultCampaignSpec(
        fault="brownout", severities=(0.5, 1.0),
        kernels=("mahony", "p3p", "fly-lqr"), archs=("m33", "m4"), seed=3,
    )
    saved = []

    def campaign(options):
        report = build_report(run_campaign(spec, options=options))
        path = tmp_path / f"resilience-{len(saved)}.json"
        saved.append(save_resilience_report(report, path).read_bytes())

    full, rerun = kill_and_rerun(
        monkeypatch, campaign, tmp_path / "cache", 1)
    assert rerun == full[1:]
    assert saved[0] == saved[1]


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
    ), options=EngineOptions(jobs=jobs)).mission_grid,
    "scenarios": lambda jobs: run_scenarios(
        _PROBE_SET, EngineOptions(jobs=jobs))["mission_grid"],
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


def test_engine_options_jobs_flies_campaign_missions_pooled():
    tracer, _ = obs.observe()
    try:
        run_campaign(FaultCampaignSpec(
            fault="brownout", severities=(1.0,), missions=("steer",), seed=5,
        ), options=EngineOptions(jobs=2))
    finally:
        obs.unobserve()
    assert tracer.by_name("mission.run")
    assert not tracer.by_name("mission.step")


def exit_worker(source):
    """A mission build that kills the process flying it."""
    os._exit(3)


def test_crashed_mission_worker_raises_broken_process_pool():
    ok = mission_cell("brownout", "steer", "m33", 0.0, 0)
    crash = replace(ok, build=exit_worker)
    error = error_within(
        60, lambda: run_mission_jobs([ok, crash, ok], FAULT_METRICS, workers=2))
    assert isinstance(error, BrokenProcessPool), error
