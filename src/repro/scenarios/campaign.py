"""Deterministic planner for scenario sets.

Expands a :class:`~repro.scenarios.spec.ScenarioSet` into concrete work
for the campaign executor (:mod:`repro.faults.campaign`):

* **kernel scenarios** coalesce into one engine sweep per scalar type —
  kernels priced across every (possibly fault-derated) arch the group
  references, all sweeps sharing one trace cache so a kernel's compute
  solves once per scalar for the whole campaign.
* **mission scenarios** flatten into per-agent mission jobs (a swarm is
  N jobs scored jointly), fanned across a process pool when ``jobs > 1``.

Agent seeds derive from ``SeedSequence([scenario_seed, agent])`` and
seed both the fault hook and the simulated body, so the same set yields
a byte-identical campaign result for any ``--jobs``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Tuple

from repro.backends import backend_for
from repro.closedloop import mission_record
from repro.core.config import HarnessConfig
from repro.faults.campaign import (
    MissionJob,
    derive_seed,
    derated_arch,
    kernel_record,
    run_kernel_sweeps,
    run_mission_jobs,
)
from repro.mcu.arch import get_arch
from repro.obs import get_metrics, get_tracer
from repro.scenarios.profiles import (
    control_rate_of,
    flatten_agents,
    mission_from_profile,
    runner_kind_of,
)
from repro.scenarios.spec import ScenarioSet

#: The metrics a campaign's mission jobs count under.
SCENARIO_METRICS = ("scenarios.mission_jobs", "scenarios.missions_completed",
                    "scenarios.missions_failed", "scenarios.fault_injections",
                    "scenarios.mission_energy_uj")

#: The outcome columns a scenario mission record keeps, in record order.
SCENARIO_COLUMNS = (
    "completed", "duration_s", "path_error_rms", "compute_energy_j",
    "compute_latency_s", "deadline_hit_rate", "effective_rate_hz",
    "overruns", "aborted_by", "fault_events",
)


@dataclass
class ScenarioCampaignResult:
    """Everything a scenario campaign measured, in deterministic order."""

    address: str
    tier: str
    seed: int
    generator: str
    scenarios: int
    #: One record per (scenario, kernel): priced compute.
    kernel_grid: List[dict] = field(default_factory=list)
    #: One record per (scenario, agent): closed-loop outcome.
    mission_grid: List[dict] = field(default_factory=list)
    #: Trace-cache accounting for the kernel sweeps.
    cache_stats: Dict[str, int] = field(default_factory=dict)


def plan_mission_jobs(sset: ScenarioSet) -> List[MissionJob]:
    """The mission jobs in canonical order (set order, then agent order)."""
    jobs: List[MissionJob] = []
    for scenario in sset.mission_scenarios():
        agents = flatten_agents(scenario.mission)
        isa = backend_for(get_arch(scenario.arch)).name
        for agent, profile in enumerate(agents):
            seed = derive_seed(scenario.seed, agent)
            jobs.append(MissionJob(
                head={
                    "scenario": scenario.name, "tier": scenario.tier,
                    "agent": agent, "kind": profile["kind"],
                    "arch": scenario.arch, "isa": isa,
                    "scalar": scenario.scalar, "fault": scenario.fault,
                    "severity": scenario.severity, "seed": seed,
                },
                label=scenario.name,
                track=(f"scenario:{scenario.name}[{agent}]" if len(agents) > 1
                       else f"scenario:{scenario.name}"),
                build=mission_from_profile, source=profile,
                runner=runner_kind_of(profile),
                control_rate_hz=control_rate_of(profile), arch=scenario.arch,
                fault=scenario.fault, severity=scenario.severity, seed=seed,
                body_seed=seed, scalar=scenario.scalar,
            ))
    return jobs


def _kernel_grid(
    sset: ScenarioSet,
    options=None,
) -> Tuple[List[dict], Dict[str, int]]:
    """Price every kernel scenario via the engine; one sweep per scalar.

    Returns ``(grid, cache_stats)``: one record per (scenario, kernel) in
    set order, plus the shared trace cache's hit/miss accounting.
    """
    scenarios = sset.kernel_scenarios()
    if not scenarios:
        return [], {}
    # Coalesce: per scalar, the kernel union across every derated arch.
    arch_of = {
        s.name: derated_arch(get_arch(s.arch), s.fault, s.severity)
        for s in scenarios
    }
    groups = {}
    for scalar in sorted({s.scalar for s in scenarios}):
        members = [s for s in scenarios if s.scalar == scalar]
        archs = {arch_of[s.name].name: arch_of[s.name] for s in members}
        kernels = sorted({k for s in members for k in s.kernels})
        groups[scalar] = (kernels, [archs[a] for a in sorted(archs)])
    results, cache = run_kernel_sweeps(groups, HarnessConfig(), "scenarios",
                                       options=options)

    grid: List[dict] = []
    for scenario in scenarios:
        arch = arch_of[scenario.name]
        isa = backend_for(arch).name
        for kernel in scenario.kernels:
            # A missing cell is a planner bug: lookup raises a typed
            # ResultKeyError instead of handing back None.
            result = results[scenario.scalar].lookup(kernel, arch.name)
            grid.append({
                "scenario": scenario.name,
                "tier": scenario.tier,
                "kernel": kernel,
                "arch": scenario.arch,
                "arch_label": arch.name,
                "isa": isa,
                "scalar": scenario.scalar,
                "fault": scenario.fault,
                "severity": scenario.severity,
                **kernel_record(result),
            })
    metrics = get_metrics()
    if metrics.enabled:
        metrics.inc("scenarios.kernel_cells", len(grid))
        metrics.inc("scenarios.cache_hits", cache.stats.hits)
        metrics.inc("scenarios.cache_misses", cache.stats.misses)
    return grid, asdict(cache.stats)


def run_scenario_set(
    sset: ScenarioSet,
    jobs: int = 1,
    options=None,
    *,
    vectorize: bool = True,
) -> ScenarioCampaignResult:
    """Execute one validated scenario set (kernel grid + mission jobs).

    The campaign's phase spans land on a per-tier lane
    (``scenarios:tier-<tier>``) so a mixed trace separates Tier-A anchor
    runs from Tier-B synthetics at a glance.  The same set and seed yield
    a byte-identical result for any ``jobs`` — and for either price
    path: ``vectorize`` picks the engine's columnar batch pricer
    (default) or the serial per-cell reference, and is ignored when an
    explicit ``options`` already carries the choice.
    """
    sset = sset.validated()
    if options is None and (jobs > 1 or not vectorize):
        from repro.engine import EngineOptions

        options = EngineOptions(jobs=jobs, vectorize=vectorize)
    tracer = get_tracer()
    metrics = get_metrics()
    if metrics.enabled:
        metrics.inc("scenarios.campaigns")
        metrics.inc(f"scenarios.tier_{sset.tier}_scenarios", len(sset))
    with tracer.on_track(f"scenarios:tier-{sset.tier}"):
        with tracer.span("scenarios.campaign", cat="scenarios",
                         tier=sset.tier, scenarios=len(sset),
                         address=sset.address):
            kernel_grid, cache_stats = _kernel_grid(sset, options=options)
            planned = plan_mission_jobs(sset)
            outcomes = run_mission_jobs(planned, SCENARIO_METRICS,
                                        workers=jobs)
            mission_grid = [
                {**job.head, **mission_record(result, SCENARIO_COLUMNS)}
                for job, (result, _) in zip(planned, outcomes)
            ]
    return ScenarioCampaignResult(
        address=sset.address,
        tier=sset.tier,
        seed=sset.seed,
        generator=sset.generator,
        scenarios=len(sset),
        kernel_grid=kernel_grid,
        mission_grid=mission_grid,
        cache_stats=cache_stats,
    )
