"""The campaign executor, and the fault-campaign planner built on it.

Fault campaigns and scenario sets (:mod:`repro.scenarios.campaign`) are
planners: each turns its spec into :class:`MissionJob` records and
kernel groups, runs them through :func:`run_mission_jobs` and
:func:`run_kernel_sweeps`, and builds its own result type.

A fault campaign's **kernel cells** become one engine sweep over
*derated arch variants* (``m33+brownout:0.5``).  Because the engine's
solve key ignores the arch, each kernel's real compute runs **once** and
is re-priced across every severity, exactly like the multi-core sweep it
structurally is.  Its **mission cells** fly the closed-loop stack with
the fault's per-step :class:`~repro.closedloop.runner.MissionFaultHook`,
fanned out across a process pool when the
:class:`~repro.engine.EngineOptions` ``jobs`` is above 1 — the same
width that sizes the kernel-solve pool.

Determinism contract: job seeds derive from ``SeedSequence([base_seed,
index])``; workers return plain data; results collate in job order;
metrics and pooled-run trace events derive at collation.  The
same spec therefore produces byte-identical records for any worker count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import product
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.closedloop import (
    MissionResult,
    make_mission,
    mission_entry,
    mission_record,
)
from repro.closedloop.missions import RECORD_COLUMNS
from repro.closedloop.runner import RUNNER_CLASSES, _emit_fault_instants
from repro.core.config import HarnessConfig
from repro.faults.base import FaultModel, check_severity, get_fault
from repro.mcu.arch import ArchSpec, get_arch
from repro.obs import get_metrics, get_tracer
from repro.scalar import parse_scalar


def derive_seed(base_seed: int, index: int) -> int:
    """Stable per-job seed: independent of worker count and run order."""
    return int(np.random.SeedSequence([base_seed, index]).generate_state(1)[0])


@dataclass(frozen=True)
class MissionJob:
    """One planned closed-loop run: a mission on one core, maybe faulted.

    Workers rebuild the mission with ``build(source)``, a top-level
    function: :func:`~repro.closedloop.make_mission` with a registered
    name, or the scenario layer's ``mission_from_profile`` with a profile.
    """

    #: The leading columns of the job's record, in record order.
    head: dict
    #: The name its pooled ``mission.run`` span carries.
    label: str
    #: Trace lane for its sim-time spans and fault instants.
    track: str
    build: Callable[[object], object]
    source: object
    #: Runner family (``"flapping"`` / ``"strider"``) and its loop rate.
    runner: str
    control_rate_hz: float
    arch: str
    fault: Optional[str] = None
    severity: float = 0.0
    #: Seeds the fault hook; ``body_seed`` seeds the body's sensor noise.
    seed: int = 0
    body_seed: int = 0
    scalar: str = "f32"


def run_mission_job(job: MissionJob) -> Tuple[MissionResult, List[dict]]:
    """Fly one job (the pool entry point): its result and fault events."""
    mission = job.build(job.source)
    hook = None
    if job.fault is not None and job.severity > 0.0:
        fault = get_fault(job.fault)
        if "mission" in fault.kinds:
            hook = fault.mission_hook(job.severity, job.seed,
                                      mission.duration_s,
                                      1.0 / job.control_rate_hz)
    runner = RUNNER_CLASSES[job.runner](
        arch=get_arch(job.arch), scalar=parse_scalar(job.scalar),
        control_rate_hz=job.control_rate_hz, seed=job.body_seed,
        fault_hook=hook,
    )
    return runner.run(mission), ([] if hook is None else list(hook.events))


def run_mission_jobs(
    jobs: Sequence[MissionJob],
    names: Tuple[str, str, str, str, str],
    workers: int = 1,
) -> List[Tuple[MissionResult, List[dict]]]:
    """Fly every job; ``(result, fault events)`` per job, in job order.

    ``workers > 1`` fans the jobs across a process pool.  With the
    process-wide tracer enabled each job traces on its own lane: the
    runner's per-step spans and fault instants in-process, a synthesized
    ``mission.run`` span plus the same fault instants when pooled
    (workers trace nothing).  The runners' own metrics are suppressed
    in-process; the ``names`` metrics (jobs, completed, failed, fault
    injections, energy histogram) are derived here at collation, so all
    of it is identical for any width.
    """
    if not jobs:
        return []
    tracer = get_tracer()
    metrics = get_metrics()
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            # map() preserves input order: collation is worker-count-proof.
            outcomes = list(pool.map(run_mission_job, jobs))
        if tracer.enabled:
            for job, (result, events) in zip(jobs, outcomes):
                tracer.add_span(
                    "mission.run", 0.0, float(result.duration_s),
                    cat="mission", track=job.track, self_s=0.0,
                    mission=job.label, arch=job.arch, severity=job.severity,
                    completed=bool(result.completed),
                    overruns=int(result.overruns),
                )
                _emit_fault_instants(tracer, job.track, events)
    else:
        outcomes = []
        with metrics.suspended():
            for job in jobs:
                with tracer.on_track(job.track if tracer.enabled else None):
                    outcomes.append(run_mission_job(job))
    if metrics.enabled:
        count, completed, failed, injections, energy_uj = names
        for result, _ in outcomes:
            metrics.inc(count)
            metrics.inc(completed if result.completed else failed)
            metrics.inc(injections, int(result.fault_events))
            metrics.observe(energy_uj, float(result.compute_energy_j) * 1e6)
    return outcomes


def derated_arch(arch: ArchSpec, fault: Optional[str],
                 severity: float) -> ArchSpec:
    """The core a cell prices on: ``arch`` derated by ``fault``.

    The base object itself at severity 0 or without an arch seam, so
    fault-free cells price bit-identically to a plain sweep.
    """
    if fault is not None and severity > 0.0:
        model = get_fault(fault)
        if "arch" in model.kinds:
            return model.derate_arch(arch, severity)
    return arch


def run_kernel_sweeps(groups, config, layer: str, options=None, **span_args):
    """Price kernel groups through the engine over one shared trace cache.

    ``groups`` maps a scalar type (None: each kernel's own) to the
    ``(kernels, archs)`` one engine sweep prices, cache on, in the order
    given; a kernel solves once per scalar type.  With a ``cache_dir``
    in ``options`` each solve is kept on disk as it finishes, so a
    killed campaign rerun over that directory re-solves only the rest.
    Returns each group's ``SweepResults`` by scalar, and the cache.
    """
    from repro.core.experiment import SweepSpec
    from repro.engine import EngineOptions, run_sweep_engine
    from repro.mcu.cache import CACHE_ON

    options = options if options is not None else EngineOptions()
    cache = options.make_cache()
    options = replace(options, trace_cache=cache)
    tracer = get_tracer()
    results = {}
    for scalar, (kernels, archs) in groups.items():
        tags, overrides = dict(span_args), {}
        if scalar is not None:
            overrides = {"*": {"scalar": parse_scalar(scalar)}}
            tags["scalar"] = scalar
        spec = SweepSpec(kernels=list(kernels), archs=list(archs),
                         caches=(CACHE_ON,), config=config,
                         overrides=overrides)
        with tracer.span(f"{layer}.kernel_grid", cat=layer, **tags,
                         kernels=len(spec.kernels), archs=len(spec.archs)):
            results[scalar] = run_sweep_engine(spec, options=options)
    return results, cache


def kernel_record(result) -> dict:
    """The priced columns of one kernel-grid record (None where it misfits)."""
    fits = bool(result.fits)
    return {
        "fits": fits,
        "unit_latency_us": float(result.unit_latency_us) if fits else None,
        "unit_energy_uj": float(result.unit_energy_uj) if fits else None,
        "peak_power_mw": float(result.peak_power_mw) if fits else None,
    }


#: The metrics a campaign's mission cells count under.
FAULT_METRICS = ("faults.mission_cells", "faults.missions_completed",
                 "faults.missions_failed", "faults.injections",
                 "faults.mission_energy_uj")


@dataclass(frozen=True)
class FaultCampaignSpec:
    """One fault, a severity grid, and the cells to subject to it."""

    fault: str
    severities: Tuple[float, ...] = (0.25, 0.5, 0.75, 1.0)
    missions: Tuple[str, ...] = ()
    kernels: Tuple[str, ...] = ()
    archs: Tuple[str, ...] = ("m33",)
    seed: int = 0
    reps: int = 1
    warmup: int = 0

    def severity_grid(self) -> Tuple[float, ...]:
        """Sorted unique severities, always anchored by the 0 baseline.

        Every degradation curve needs its fault-free reference point, so
        severity 0 is implied even when the caller does not list it.
        """
        return tuple(sorted({0.0} | {check_severity(s) for s in self.severities}))


@dataclass
class CampaignResult:
    """Everything a campaign measured, in deterministic cell order."""

    fault: str
    seed: int
    severities: Tuple[float, ...]
    #: One record per (kernel, arch, severity): priced static derating.
    kernel_grid: List[dict] = field(default_factory=list)
    #: One record per (mission, arch, severity): closed-loop outcome.
    mission_grid: List[dict] = field(default_factory=list)


def mission_cell(fault: str, mission: str, arch: str, severity: float,
                 seed: int) -> MissionJob:
    """The mission job for one (mission, arch, severity) campaign cell.

    ``seed`` seeds the fault hook only; the body keeps seed 0, so a
    severity-0 cell flies exactly the plain fault-free mission.
    """
    entry = mission_entry(mission)  # raises MissionKeyError with a suggestion
    return MissionJob(
        head={"mission": mission, "arch": arch, "severity": severity,
              "seed": seed},
        label=mission, track=f"mission:{mission}/{arch} s={severity:g}",
        build=make_mission, source=mission, runner=entry.runner,
        control_rate_hz=entry.control_rate_hz, arch=arch, fault=fault,
        severity=severity, seed=seed,
    )


def plan_mission_cells(spec: FaultCampaignSpec) -> List[MissionJob]:
    """The mission grid in canonical order (mission, arch, severity)."""
    grid = product(spec.missions, spec.archs, spec.severity_grid())
    return [
        mission_cell(spec.fault, mission, arch, severity,
                     derive_seed(spec.seed, index))
        for index, (mission, arch, severity) in enumerate(grid)
    ]


def run_kernel_grid(
    spec: FaultCampaignSpec,
    fault: FaultModel,
    options=None,
) -> List[dict]:
    """Price the kernels at every derated operating point via the engine."""
    if not spec.kernels:
        return []
    if "arch" not in fault.kinds:
        raise ValueError(
            f"fault {fault.name!r} has no arch seam; it cannot derate "
            f"kernel sweeps (kinds: {fault.kinds})"
        )
    # One derated ArchSpec per (arch, severity); severity 0 is the base
    # arch object itself, so the fault-free column prices bit-identically
    # to a plain sweep.
    base_archs = [get_arch(a) for a in spec.archs]
    severities = spec.severity_grid()
    derated = {
        (arch.name, severity): derated_arch(arch, fault.name, severity)
        for arch in base_archs for severity in severities
    }
    results, _ = run_kernel_sweeps(
        {None: (spec.kernels, derated.values())},
        HarnessConfig(reps=spec.reps, warmup_reps=spec.warmup), "faults",
        options=options, fault=fault.name,
    )
    budget_fn = getattr(fault, "peak_budget_w", None)
    grid: List[dict] = []
    for kernel in spec.kernels:
        for arch in base_archs:
            for severity in severities:
                # A missing cell here is a planner bug, not a data gap:
                # lookup raises a typed ResultKeyError instead of handing
                # back None for the record math to trip over.
                result = results[None].lookup(
                    kernel, derated[arch.name, severity].name)
                record = {"kernel": kernel, "arch": arch.name,
                          "severity": severity, **kernel_record(result)}
                if budget_fn is not None:
                    budget_w = float(budget_fn(arch, severity))
                    record["peak_budget_mw"] = budget_w * 1e3
                    record["within_budget"] = bool(
                        result.fits and result.peak_power_w <= budget_w
                    )
                grid.append(record)
    return grid


def run_campaign(spec: FaultCampaignSpec, options=None) -> CampaignResult:
    """Execute one full fault campaign (kernel grid + mission grid).

    ``options`` are the :class:`~repro.engine.EngineOptions` it runs
    under: ``jobs`` sizes the kernel-solve pool and the mission pool,
    and the trace cache serves the kernel sweep.  The same spec and seed
    yield a byte-identical :class:`CampaignResult` for any ``jobs``, and
    a killed campaign rerun with the same ``cache_dir`` re-solves only
    the kernels it had not finished.
    """
    fault = get_fault(spec.fault)
    severities = spec.severity_grid()
    jobs = options.jobs if options is not None else 1
    tracer = get_tracer()
    with tracer.span("faults.campaign", cat="faults", fault=fault.name,
                     severities=len(severities)):
        kernel_grid = run_kernel_grid(spec, fault, options=options)
        cells = plan_mission_cells(spec)
        outcomes = run_mission_jobs(cells, FAULT_METRICS, workers=jobs)
        mission_grid = [
            {**cell.head, **mission_record(result, RECORD_COLUMNS),
             "events": events}
            for cell, (result, events) in zip(cells, outcomes)
        ]
    return CampaignResult(
        fault=fault.name,
        seed=spec.seed,
        severities=severities,
        kernel_grid=kernel_grid,
        mission_grid=mission_grid,
    )
