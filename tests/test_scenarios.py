"""Tests for ``repro.scenarios``: tiered generation + campaign execution.

The load-bearing guarantees: Tier-B generation is a pure function of
``(seed, index)`` (byte-identical serialization across runs, prefixes,
and process boundaries), and campaign execution over a scenario set is
byte-identical across ``jobs`` counts.  Everything else — validation,
profiles, Pareto/failure reports, the Tier-A registry — rides along.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.scenarios import (
    GustHoverMission,
    ScenarioGenerator,
    ScenarioSet,
    ScenarioSpec,
    build_report,
    failure_rates,
    flatten_agents,
    generate_scenarios,
    mission_from_profile,
    pareto_front,
    plan_mission_jobs,
    run_scenarios,
    tier_a_names,
    tier_a_set,
    validate_profile,
)

# ------------------------------------------------------------ fixtures


def _tiny_hover(duration=0.05):
    return {
        "kind": "hover", "name": "h", "duration_s": duration,
        "control_rate_hz": 500.0,
        "gusts": [[0.01, 0.02, 0.02, 0.0, 0.01]],
    }


def _tiny_set() -> ScenarioSet:
    """A handmade three-scenario set that runs in well under a second."""
    swarm = {
        "kind": "swarm", "name": "sw",
        "agents": [
            _tiny_hover(),
            {"kind": "steer", "name": "s", "duration_s": 0.2,
             "control_rate_hz": 100.0},
        ],
    }
    return ScenarioSet(
        scenarios=(
            ScenarioSpec(name="t-hover", tier="b", arch="m33",
                         mission=_tiny_hover(), kernels=("mahony",),
                         scalar="f32", fault="brownout", severity=0.5,
                         seed=11),
            ScenarioSpec(name="t-kernel", tier="b", arch="m4",
                         mission=None, kernels=("fly-lqr",),
                         scalar="f64", fault="dvfs", severity=0.4, seed=3),
            ScenarioSpec(name="t-swarm", tier="b", arch="m33",
                         mission=swarm, scalar="f32", seed=5),
        ),
        tier="b", seed=1, generator="handmade",
    ).validated()


def _canonical(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)


# ------------------------------------------------------ specs and sets


def test_spec_roundtrip_and_key_ignores_name():
    spec = _tiny_set().scenarios[0]
    again = ScenarioSpec.from_dict(spec.to_dict())
    assert again == spec
    renamed = ScenarioSpec.from_dict({**spec.to_dict(), "name": "other"})
    assert renamed.key() == spec.key()
    retuned = ScenarioSpec.from_dict({**spec.to_dict(), "severity": 0.6})
    assert retuned.key() != spec.key()


def test_set_save_load_roundtrip(tmp_path):
    sset = _tiny_set()
    path = sset.save(tmp_path / "set.json")
    again = ScenarioSet.load(path)
    assert again.to_json() == sset.to_json()
    assert again.address == sset.address


def test_set_rejects_future_format_version(tmp_path):
    payload = _tiny_set().to_dict()
    payload["format_version"] = 999
    with pytest.raises(ValueError, match="format v999"):
        ScenarioSet.from_dict(payload)


def test_spec_validation_names_the_offender():
    with pytest.raises(ValueError, match="unknown tier"):
        ScenarioSpec(name="x", tier="z", kernels=("mahony",)).validated()
    with pytest.raises(KeyError, match="unknown arch"):
        ScenarioSpec(name="x", arch="m99", kernels=("mahony",)).validated()
    with pytest.raises(KeyError, match="unknown kernel"):
        ScenarioSpec(name="x", kernels=("nope",)).validated()
    with pytest.raises(KeyError, match="nope"):
        ScenarioSpec(name="x", kernels=("mahony",), fault="nope").validated()
    with pytest.raises(ValueError, match="severity"):
        ScenarioSpec(name="x", kernels=("mahony",), fault="brownout",
                     severity=1.5).validated()
    with pytest.raises(ValueError, match="empty"):
        ScenarioSpec(name="x").validated()


def test_set_validation_rejects_duplicate_names():
    spec = ScenarioSpec(name="dup", kernels=("mahony",))
    with pytest.raises(ValueError, match="duplicate scenario name"):
        ScenarioSet(scenarios=(spec, spec)).validated()


# ------------------------------------------------------------- profiles


def test_validate_profile_rejects_malformed():
    with pytest.raises(ValueError, match="unknown mission profile kind"):
        validate_profile({"kind": "dance"})
    with pytest.raises(ValueError, match="duration_s"):
        validate_profile({"kind": "hover"})
    with pytest.raises(ValueError, match="waypoints"):
        validate_profile({"kind": "tour", "duration_s": 0.2})
    with pytest.raises(ValueError, match="agents"):
        validate_profile({"kind": "swarm", "agents": []})
    with pytest.raises(ValueError, match="cannot nest"):
        validate_profile({
            "kind": "swarm",
            "agents": [{"kind": "swarm", "agents": [_tiny_hover()]}],
        })


def test_gust_hover_reference_is_pure_and_bumped():
    mission = mission_from_profile({
        "kind": "hover", "duration_s": 0.2,
        "gusts": [[0.05, 0.1, 0.04, 0.0, 0.0]],
    })
    assert isinstance(mission, GustHoverMission)
    before = mission.reference(0.0)
    mid = mission.reference(0.1)  # gust peak: half-way through the bump
    after = mission.reference(0.16)
    assert np.allclose(before, mission.setpoint)
    assert np.allclose(after, mission.setpoint)
    assert mid[0] == pytest.approx(mission.setpoint[0] + 0.04, abs=1e-9)
    assert np.array_equal(mission.reference(0.1), mid)


def test_flatten_agents_expands_swarms_only():
    hover = _tiny_hover()
    assert flatten_agents(hover) == [hover]
    swarm = {"kind": "swarm", "agents": [hover, hover]}
    assert flatten_agents(swarm) == [hover, hover]


# --------------------------------------------------------------- tier A


def test_tier_a_is_fixed_and_valid():
    sset = tier_a_set()
    assert tier_a_names() == (
        "robobee-hover", "robobee-waypoints", "strider-course",
        "vo-frontend",
    )
    assert [s.name for s in sset.scenarios] == list(tier_a_names())
    assert sset.address == tier_a_set().address
    assert generate_scenarios(tier="a").address == sset.address


# ------------------------------------------------------- tier B generator


def test_generation_is_byte_identical_for_a_seed():
    a = generate_scenarios(tier="b", count=12, seed=42)
    b = generate_scenarios(tier="b", count=12, seed=42)
    assert a.to_json() == b.to_json()
    assert a.address == b.address
    assert generate_scenarios(tier="b", count=12, seed=43).address != a.address


def test_generation_prefix_is_count_independent():
    long = generate_scenarios(tier="b", count=20, seed=7)
    short = generate_scenarios(tier="b", count=5, seed=7)
    assert [s.to_dict() for s in short.scenarios] == \
        [s.to_dict() for s in long.scenarios[:5]]


def test_generated_sets_validate():
    sset = generate_scenarios(tier="b", count=40, seed=3)
    assert sset.validated() is sset
    assert len(sset) == 40
    kinds = {s.mission["kind"] for s in sset.scenarios if s.mission}
    assert "hover" in kinds  # the dominant profile kind always appears


def test_generator_sample_is_order_independent():
    gen = ScenarioGenerator(seed=9)
    direct = gen.sample(17)
    via_set = generate_scenarios(tier="b", count=18, seed=9).scenarios[17]
    assert direct == via_set


def test_generation_survives_a_process_boundary():
    here = generate_scenarios(tier="b", count=10, seed=123).to_json()
    env = dict(os.environ)
    pkg_root = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = pkg_root + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c",
         "from repro.scenarios import generate_scenarios;"
         "import sys;"
         "sys.stdout.write(generate_scenarios(tier='b', count=10,"
         " seed=123).to_json())"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout == here


def test_unknown_tier_raises():
    with pytest.raises(ValueError, match="unknown tier"):
        generate_scenarios(tier="c")
    with pytest.raises(ValueError, match="count"):
        generate_scenarios(tier="b", count=0)


# ------------------------------------------------------------- campaigns


def test_mission_jobs_flatten_swarms_with_stable_seeds():
    jobs = plan_mission_jobs(_tiny_set())
    assert [(j.head["scenario"], j.head["agent"]) for j in jobs] == [
        ("t-hover", 0), ("t-swarm", 0), ("t-swarm", 1),
    ]
    # Only a swarm's agents get per-agent trace lanes.
    assert [j.track for j in jobs] == [
        "scenario:t-hover", "scenario:t-swarm[0]", "scenario:t-swarm[1]",
    ]
    again = plan_mission_jobs(_tiny_set())
    assert [j.seed for j in jobs] == [j.seed for j in again]
    # Agents of one swarm get distinct derived seeds.
    assert jobs[1].seed != jobs[2].seed


def test_campaign_report_is_byte_identical_across_jobs():
    sset = _tiny_set()
    serial = run_scenarios(sset, jobs=1)
    pooled = run_scenarios(sset, jobs=2)
    assert _canonical(serial) == _canonical(pooled)
    # And across repeat runs with the same set.
    assert _canonical(run_scenarios(sset, jobs=1)) == _canonical(serial)


def test_campaign_report_covers_grids_and_rates():
    report = run_scenarios(_tiny_set(), jobs=1)
    assert report["address"] == _tiny_set().address
    assert report["counts"] == {"kernel_cells": 2, "mission_jobs": 3}
    kernels = {(r["scenario"], r["kernel"]) for r in report["kernel_grid"]}
    assert kernels == {("t-hover", "mahony"), ("t-kernel", "fly-lqr")}
    # The brownout kernel scenario priced on a derated arch label.
    labels = {r["scenario"]: r["arch_label"] for r in report["kernel_grid"]}
    assert labels["t-hover"] == "m33+brownout:0.5"
    assert labels["t-kernel"] == "m4+dvfs:0.4"
    rates = report["failure_rates"]
    assert rates["overall"]["total"] == 3
    assert set(rates["by_fault"]) == {"brownout", "clean"}
    assert set(rates["by_kind"]) == {"hover", "steer"}


# --------------------------------------------------------------- reports


def test_pareto_front_keeps_only_nondominated():
    records = [
        {"name": "a", "e": 1.0, "l": 5.0},
        {"name": "b", "e": 2.0, "l": 3.0},
        {"name": "c", "e": 3.0, "l": 4.0},   # dominated by b
        {"name": "d", "e": 4.0, "l": 1.0},
        {"name": "skip", "e": None, "l": 0.0},
    ]
    front = pareto_front(records, "e", "l")
    assert [r["name"] for r in front] == ["a", "b", "d"]


def test_failure_rates_bucket_by_fault_and_kind():
    grid = [
        {"fault": None, "kind": "hover", "completed": True},
        {"fault": None, "kind": "hover", "completed": False},
        {"fault": "dvfs", "kind": "tour", "completed": True},
    ]
    rates = failure_rates(grid)
    assert rates["overall"]["failure_rate"] == pytest.approx(1 / 3, abs=1e-6)
    assert rates["by_fault"]["clean"]["total"] == 2
    assert rates["by_fault"]["dvfs"]["failure_rate"] == 0.0
    assert rates["by_kind"]["hover"]["completed"] == 1


def test_save_report_is_canonical(tmp_path):
    report = build_report(
        __import__("repro.scenarios.campaign", fromlist=["x"])
        .ScenarioCampaignResult(
            address="00", tier="b", seed=0, generator="g", scenarios=0,
        )
    )
    from repro.scenarios import save_report

    p1 = save_report(report, tmp_path / "a.json")
    p2 = save_report(report, tmp_path / "b.json")
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().endswith("\n")
