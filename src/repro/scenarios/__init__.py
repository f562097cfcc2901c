"""Tiered scenario generation for campaign-scale studies.

The roadmap's answer to "the paper benchmarks four platforms; a design
study needs a thousand": **Tier A** pins the paper's real platforms
(RoboBee hover and waypoints, the water-strider course, the VO frontend)
as fixed scenario specs, and **Tier B** samples synthetic scenarios —
wind-gust schedules, waypoint tours, swarm formations, kernel-config
mutations, arch variants, optional faults — from a seeded
``SeedSequence`` stream.  Every scenario and every set is
content-addressed with the repo's canonical-JSON + sha256 scheme, and
campaigns execute through the sweep engine and closed-loop runners with
the fault layer's determinism contract: byte-identical reports across
runs, ``--jobs`` counts, and process boundaries.

Entry points: :func:`generate_scenarios` makes a set,
:func:`run_scenarios` executes one and returns its report (Pareto fronts
plus failure rates).  Both are re-exported by :mod:`repro.api`.
"""

from repro.scenarios.campaign import (
    ScenarioCampaignResult,
    plan_mission_jobs,
    run_scenario_set,
)
from repro.scenarios.generator import (
    GENERATOR_ID,
    ScenarioGenerator,
    generate_scenarios,
)
from repro.scenarios.profiles import (
    GustHoverMission,
    flatten_agents,
    mission_from_profile,
    validate_profile,
)
from repro.scenarios.reports import (
    build_report,
    failure_rates,
    pareto_front,
    render_report,
    save_report,
)
from repro.scenarios.spec import (
    SCENARIO_FORMAT_VERSION,
    TIERS,
    ScenarioSet,
    ScenarioSpec,
    content_address,
)
from repro.scenarios.tier_a import tier_a_names, tier_a_set


def run_scenarios(
    sset: ScenarioSet,
    jobs: int = 1,
    options=None,
    *,
    vectorize: bool = True,
) -> dict:
    """Execute a scenario set and return its full campaign report.

    The one-call form the facade and CLI use: validates and runs the set
    (kernel grid + mission jobs) and derives the Pareto / failure-rate
    report, all deterministically — the same set yields a byte-identical
    report for any ``jobs`` and either price path (``vectorize`` picks
    the columnar batch pricer, the default, over the serial per-cell
    reference).
    """
    result = run_scenario_set(
        sset, jobs=jobs, options=options, vectorize=vectorize,
    )
    return build_report(result)


__all__ = [
    "GENERATOR_ID",
    "GustHoverMission",
    "SCENARIO_FORMAT_VERSION",
    "ScenarioCampaignResult",
    "ScenarioGenerator",
    "ScenarioSet",
    "ScenarioSpec",
    "TIERS",
    "build_report",
    "content_address",
    "failure_rates",
    "flatten_agents",
    "generate_scenarios",
    "mission_from_profile",
    "pareto_front",
    "plan_mission_jobs",
    "render_report",
    "run_scenario_set",
    "run_scenarios",
    "save_report",
    "tier_a_names",
    "tier_a_set",
    "validate_profile",
]
