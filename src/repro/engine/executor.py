"""The sweep execution engine.

Orchestrates a planned sweep end to end:

1. **Cache lookup** — each job's profile is fetched from the
   :class:`~repro.engine.trace_cache.TraceCache` by content address.
2. **Solve** — cache misses fan out across a ``ProcessPoolExecutor``
   (``jobs > 1``) or run inline (``jobs == 1``); each job executes its
   kernel's real compute exactly once, however many cells need it, and
   its profile is written to the cache as soon as it finishes.  A killed
   sweep rerun with the same ``cache_dir`` therefore re-solves only the
   jobs that had not finished.
3. **Price** — every cell is priced from its job's profile in the
   canonical (arch, cache, kernel) order, producing a
   :class:`~repro.core.experiment.SweepResults` whose ordering and values
   are bit-identical to the serial driver's.
   By default the whole stage runs through the columnar
   :func:`repro.vecprice.price_batch` pricer (one batched matrix op for
   every cell, byte-identical to per-cell
   :func:`~repro.engine.profile.price_profile` — see ``docs/pricing.md``);
   ``EngineOptions(vectorize=False)`` keeps the serial reference path.

Every count and timing lands in one :class:`~repro.obs.MetricsRegistry`:
the ``engine.*`` counters, the ``engine.jobs`` gauge and the
``engine.*_wall_s`` histograms.  :func:`sweep_summary` reads a sweep's
report back out of it: cache hit rate, cells run/skipped, stage wall time
and the estimated speedup over the serial driver.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Union

from repro.engine.planner import Cell, SolveJob, SweepPlan, build_plan
from repro.engine.profile import KernelProfile, price_profile, skip_result, solve_profile
from repro.engine.trace_cache import CacheStats, TraceCache
from repro.obs import MetricsRegistry, get_metrics, get_tracer
from repro.vecprice import price_batch


@dataclass
class EngineOptions:
    """How to execute a planned sweep."""

    #: Worker processes for kernel solves; 1 = serial in-process.
    jobs: int = 1
    #: Directory for the persistent trace cache; None = in-memory only.
    cache_dir: Optional[Union[str, Path]] = None
    #: Disable the trace cache entirely (every job re-solves).
    use_cache: bool = True
    #: Share a pre-built cache instance (overrides cache_dir/use_cache).
    trace_cache: Optional[TraceCache] = None
    #: Price cells through the columnar :mod:`repro.vecprice` batch path
    #: (byte-identical to the serial reference, ~10x faster at campaign
    #: scale); False falls back to per-cell ``price_profile``.
    vectorize: bool = True

    def make_cache(self) -> TraceCache:
        """The trace cache these options describe (shared or fresh)."""
        if self.trace_cache is not None:
            return self.trace_cache
        return TraceCache(cache_dir=self.cache_dir, enabled=self.use_cache)


def _solve_job_worker(payload: tuple) -> dict:
    """Process-pool entry point: solve one job, return its profile dict."""
    kernel, factory_kwargs, reps, warmup_reps = payload
    start = perf_counter()
    profile = solve_profile(kernel, factory_kwargs, reps, warmup_reps)
    profile.solve_s = perf_counter() - start
    return profile.to_dict()


def _strict_memory_prescan(plan: SweepPlan, config) -> None:
    """Replicate the serial driver's strict-memory failure, up front."""
    if not config.strict_memory:
        return
    for cell in plan.cells:
        job = plan.job_of_kernel[cell.kernel]
        if cell in job.skip_cells:
            from repro.mcu.memory import MemoryFitError

            raise MemoryFitError(
                f"{job.problem_name} exceeds {cell.arch} memory"
            )


def _resolve_profiles(
    pending: List[SolveJob],
    options: EngineOptions,
    cache: TraceCache,
    metrics: MetricsRegistry,
) -> Dict[str, KernelProfile]:
    """Fetch or compute the profile for every job that needs one.

    Args:
        pending: Jobs whose profiles are required.
        options: Execution options (worker count, cache wiring).
        cache: The trace cache to consult and fill.
        metrics: Registry the cache outcomes and solve timings land in.

    Returns:
        Mapping of solve key -> :class:`KernelProfile` for every pending
        job, whether cache-hit or freshly solved.
    """
    tracer = get_tracer()
    profiles: Dict[str, KernelProfile] = {}
    to_solve: List[SolveJob] = []
    for job in pending:
        hit = cache.get(job.key)
        if hit is not None:
            profiles[job.key] = hit
            metrics.inc("engine.cache_hits")
            if tracer.enabled:
                tracer.instant("engine.cache_hit", cat="engine",
                               kernel=job.kernel, key=job.key)
        else:
            to_solve.append(job)
            metrics.inc("engine.cache_misses")

    if not to_solve:
        return profiles

    stage_start = perf_counter()
    if options.jobs > 1 and len(to_solve) > 1:
        max_workers = min(options.jobs, len(to_solve))
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            future_of = {}
            for job in to_solve:
                payload = (job.kernel, job.factory_kwargs, job.reps, job.warmup_reps)
                future_of[pool.submit(_solve_job_worker, payload)] = job
            outstanding = set(future_of)
            while outstanding:
                finished, outstanding = wait(outstanding, return_when=FIRST_COMPLETED)
                for future in finished:
                    job = future_of[future]
                    out = future.result()  # worker errors propagate here
                    profile = KernelProfile.from_dict(out)
                    profiles[job.key] = profile
                    cache.put(job.key, profile)
                    if tracer.enabled:
                        # Worker processes trace nothing; reconstruct the
                        # solve span on a per-kernel lane from the
                        # worker-reported duration, ending now.
                        end = tracer.now()
                        tracer.add_span(
                            "engine.solve", max(end - profile.solve_s, 0.0),
                            end, cat="engine", track=f"solve:{job.kernel}",
                            kernel=job.kernel, key=job.key, worker=True,
                        )
    else:
        for job in to_solve:
            span = tracer.span("engine.solve", cat="engine",
                               kernel=job.kernel, key=job.key)
            with span:
                start = perf_counter()
                profile = solve_profile(
                    job.kernel, job.factory_kwargs, job.reps, job.warmup_reps
                )
                profile.solve_s = perf_counter() - start
            profiles[job.key] = profile
            cache.put(job.key, profile)
    metrics.observe("engine.solve_stage_wall_s", perf_counter() - stage_start)
    # Collation-path metrics: derived here, in plan order, so worker
    # scheduling can never reorder the aggregation.
    if metrics.enabled:
        for job in to_solve:
            metrics.inc("engine.solves")
            metrics.observe("engine.solve_wall_s", profiles[job.key].solve_s)
    return profiles


def run_plan(
    plan: SweepPlan,
    options: Optional[EngineOptions] = None,
    telemetry: Optional[MetricsRegistry] = None,
):
    """Execute a planned sweep; returns ordered ``SweepResults``.

    ``telemetry`` is the :class:`~repro.obs.MetricsRegistry` the run's
    counts and timings land in; None records into the process-wide
    registry (:func:`~repro.obs.get_metrics`).
    """
    from repro.core.experiment import SweepResults

    options = options or EngineOptions()
    # An empty registry is falsy (it has a length), so test for None.
    metrics = telemetry if telemetry is not None else get_metrics()
    cache = options.make_cache()
    tracer = get_tracer()
    metrics.set_gauge("engine.jobs", options.jobs)

    # Config invariants (strict memory) fail before any compute is spent.
    config = plan.config
    _strict_memory_prescan(plan, config)

    pending = [job for job in plan.jobs if job.needs_solve]
    profiles = _resolve_profiles(pending, options, cache, metrics)
    # What the serial driver would have spent: it re-solves a kernel once
    # per priced cell, where the engine solved (or cache-hit) it once.
    metrics.observe("engine.serial_estimate_wall_s", sum(
        profiles[job.key].solve_s * len(job.priced_cells) for job in pending
    ))

    # Price every cell in canonical order.
    stage_start = perf_counter()
    out = SweepResults()
    with tracer.span("engine.price", cat="engine", cells=len(plan.cells)):
        # Vectorized path: price every priced cell in one columnar
        # batch up front (byte-identical to per-cell price_profile),
        # then drain the results through the same bookkeeping loop so
        # ordering and metrics are indistinguishable from the serial
        # path.
        batched: Dict[Cell, object] = {}
        if options.vectorize:
            todo = [
                cell for cell in plan.cells
                if cell not in plan.job_of_kernel[cell.kernel].skip_cells
            ]
            if todo:
                with tracer.span("engine.price_batch", cat="engine",
                                 cells=len(todo)):
                    priced = price_batch([
                        (
                            profiles[plan.job_of_kernel[cell.kernel].key],
                            plan.archs[cell.arch],
                            plan.caches[cell.cache],
                        )
                        for cell in todo
                    ])
                batched = dict(zip(todo, priced))
        for cell in plan.cells:
            job = plan.job_of_kernel[cell.kernel]
            arch = plan.archs[cell.arch]
            cache_config = plan.caches[cell.cache]
            if cell in job.skip_cells:
                result = skip_result(
                    job.problem_name, job.scalar, job.dataset, job.stage,
                    job.footprint, arch, cache_config,
                )
                out.add(result)
                metrics.inc("engine.cells_skipped")
            else:
                if options.vectorize:
                    result = batched.pop(cell)
                elif tracer.enabled:
                    with tracer.span("engine.price_cell", cat="engine",
                                     kernel=cell.kernel, arch=cell.arch,
                                     cache=cell.cache):
                        result = price_profile(
                            profiles[job.key], arch, cache_config
                        )
                else:
                    result = price_profile(profiles[job.key], arch, cache_config)
                out.add(result)
                if metrics.enabled:
                    metrics.inc("engine.cells_run")
                    if result.fits and result.runs:
                        metrics.observe("engine.cell_latency_us",
                                        result.unit_latency_us)
                        metrics.observe("engine.cell_energy_uj",
                                        result.unit_energy_uj)
                        metrics.inc(f"engine.energy_uj.{cell.arch}",
                                    result.unit_energy_uj)
    metrics.observe("engine.price_stage_wall_s", perf_counter() - stage_start)
    return out


def run_sweep_engine(
    spec,
    options: Optional[EngineOptions] = None,
    telemetry: Optional[MetricsRegistry] = None,
    progress=None,
):
    """Plan and execute a :class:`~repro.core.experiment.SweepSpec`.

    ``telemetry`` is the :class:`~repro.obs.MetricsRegistry` the sweep
    records into (None: the process-wide one).  ``progress`` is called
    once per cell, in plan order, after pricing, with the line the serial
    driver prints: ``"<kernel> on <arch>/<cache>: ok|skip"``.
    """
    metrics = telemetry if telemetry is not None else get_metrics()
    tracer = get_tracer()
    start = perf_counter()
    with tracer.span("engine.sweep", cat="engine", kernels=len(spec.kernels)):
        with tracer.span("engine.plan", cat="engine"):
            plan = build_plan(spec)
        results = run_plan(plan, options=options, telemetry=metrics)
    metrics.observe("engine.sweep_wall_s", perf_counter() - start)
    if progress is not None:
        for cell, result in zip(plan.cells, results.results):
            status = "ok" if result.fits else "skip"
            progress(f"{cell.kernel} on {cell.arch}/{cell.cache}: {status}")
    return results


def _wall_s(registry: MetricsRegistry, name: str) -> float:
    """Summed seconds of one ``*_wall_s`` histogram (0.0 if never observed)."""
    hist = registry.histogram(name)
    return hist.sum if hist is not None else 0.0


def sweep_summary(
    registry: MetricsRegistry,
    cache_stats: Optional[CacheStats] = None,
) -> dict:
    """One flat dict summarizing the sweeps a registry recorded.

    Reads the ``engine.*`` counters, the ``engine.jobs`` gauge and the
    ``engine.*_wall_s`` histograms: cells run and skipped, solves, cache
    hit rate, stage wall time, and the estimated speedup over the serial
    driver.  ``cache_stats`` is the run's trace-cache accounting, copied
    under ``"cache"``.  This is the ``repro sweep`` report and its
    ``.telemetry.json`` sidecar.
    """
    cells_run = int(registry.counter("engine.cells_run"))
    cells_skipped = int(registry.counter("engine.cells_skipped"))
    solves = int(registry.counter("engine.solves"))
    cache_hits = int(registry.counter("engine.cache_hits"))
    lookups = solves + cache_hits
    wall = _wall_s(registry, "engine.sweep_wall_s")
    serial_est = _wall_s(registry, "engine.serial_estimate_wall_s")
    # A stage that never ran (no solves on a warm cache) has no entry.
    stages = {}
    for stage in ("solve", "price"):
        hist = registry.histogram(f"engine.{stage}_stage_wall_s")
        if hist is not None:
            stages[stage] = hist.sum
    return {
        "cells_total": cells_run + cells_skipped,
        "cells_run": cells_run,
        "cells_skipped": cells_skipped,
        "solves_executed": solves,
        "cache_hits": cache_hits,
        "cache_hit_rate": cache_hits / lookups if lookups else 0.0,
        "cache": cache_stats.as_dict() if cache_stats is not None else {},
        "jobs_requested": registry.gauge("engine.jobs") or 1,
        "wall_s": wall,
        "stage_wall_s": stages,
        "serial_estimate_s": serial_est,
        "est_speedup_vs_serial": serial_est / wall if wall > 0 else 0.0,
    }
