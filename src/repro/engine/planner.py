"""Sweep planning: expand a :class:`SweepSpec` into a deduplicated job graph.

The serial driver runs ``archs x caches x kernels`` full kernel executions.
The planner observes that a kernel's dynamic behaviour depends only on
(kernel, factory kwargs, scalar, seed, repetition counts) — not on the core
or cache state it is later priced for — and therefore groups the sweep's
cells under one :class:`SolveJob` per kernel configuration.  Each job's
profile is solved once (or loaded from the trace cache) and re-priced
across every requested (arch, cache) cell.

Cells that cannot fit an arch's memory are planned as skips up front, from
the pre-setup footprint, exactly as the harness would decide them — a
kernel that fits nowhere is never solved at all.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple

from repro.core import registry
from repro.core.config import HarnessConfig
from repro.engine.profile import PROFILE_FORMAT_VERSION
from repro.mcu.arch import ArchSpec
from repro.mcu.cache import CacheConfig
from repro.mcu.memory import Footprint, check_fit
from repro.scalar import ScalarType


class Cell(NamedTuple):
    """One sweep datacell: a kernel priced on one core and cache state."""

    kernel: str
    arch: str
    cache: str


def canonical_kwargs(kwargs: dict) -> str:
    """Stable, hash-friendly rendering of factory kwargs.

    Primitives serialize as JSON; :class:`ScalarType` by its name (so
    ``q(7, 24)`` and ``parse_scalar("q7.24")`` key identically); anything
    else falls back to ``repr``.
    """

    def render(value):
        if isinstance(value, ScalarType):
            return f"scalar:{value.name}"
        if isinstance(value, (str, int, float, bool)) or value is None:
            return value
        if isinstance(value, (list, tuple)):
            return [render(v) for v in value]
        if isinstance(value, dict):
            return {str(k): render(v) for k, v in sorted(value.items())}
        return repr(value)

    return json.dumps(
        {str(k): render(v) for k, v in sorted(kwargs.items())},
        sort_keys=True, separators=(",", ":"),
    )


def solve_key(
    kernel: str,
    factory_kwargs: dict,
    scalar: str,
    seed: int,
    reps: int,
    warmup_reps: int,
) -> str:
    """Content address of one kernel configuration's solve profile."""
    payload = json.dumps(
        {
            "format_version": PROFILE_FORMAT_VERSION,
            "kernel": kernel,
            "kwargs": canonical_kwargs(factory_kwargs),
            "scalar": scalar,
            "seed": seed,
            "reps": reps,
            "warmup_reps": warmup_reps,
        },
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:32]


@dataclass
class SolveJob:
    """One unit of real kernel compute, shared by many cells."""

    kernel: str
    factory_kwargs: dict
    reps: int
    warmup_reps: int
    #: From a throwaway pre-setup instantiation (cheap; datasets load in
    #: ``setup``): the identity fields the cache key and skip cells need.
    #: ``problem_name`` is what results report (usually equal to the
    #: registry key the sweep requested).
    problem_name: str
    scalar: str
    seed: int
    dataset: str
    stage: str
    footprint: Footprint
    key: str
    #: Cells this job's profile will be priced for, and cells that are
    #: planned skips (memory misfit) needing no profile.
    priced_cells: List[Cell] = field(default_factory=list)
    skip_cells: List[Cell] = field(default_factory=list)

    @property
    def needs_solve(self) -> bool:
        """True when at least one cell will price from this job's profile."""
        return bool(self.priced_cells)


@dataclass
class SweepPlan:
    """A fully expanded sweep: canonical cell order plus the job graph."""

    cells: List[Cell]
    jobs: List[SolveJob]
    archs: Dict[str, ArchSpec]
    caches: Dict[str, CacheConfig]
    job_of_kernel: Dict[str, SolveJob]
    #: The sweep's validated harness configuration.
    config: HarnessConfig

    @property
    def n_solves_saved(self) -> int:
        """Kernel executions the serial driver would have run beyond ours."""
        return sum(
            len(job.priced_cells) - 1 for job in self.jobs if job.needs_solve
        )


def _make_job(kernel: str, kwargs: dict, config: HarnessConfig) -> SolveJob:
    """Instantiate a throwaway probe and derive one kernel's solve job."""
    probe = registry.create(kernel, **kwargs)
    return SolveJob(
        kernel=kernel,
        factory_kwargs=kwargs,
        reps=config.reps,
        warmup_reps=config.warmup_reps,
        problem_name=probe.name,
        scalar=probe.scalar.name,
        seed=probe.seed,
        dataset=probe.dataset_name,
        stage=probe.stage,
        footprint=probe.footprint(),
        key=solve_key(
            kernel, kwargs, probe.scalar.name, probe.seed,
            config.reps, config.warmup_reps,
        ),
    )


def build_plan(spec) -> SweepPlan:
    """Expand a :class:`~repro.core.experiment.SweepSpec` into a plan.

    The spec's cross product, in the serial driver's loop nest (arch,
    then cache state, then kernel), planned by :func:`build_cell_plan`,
    so engine results collate into the exact sequence ``run_sweep`` has
    always produced.
    """
    return build_cell_plan(
        ((kernel, arch, cache) for arch in spec.archs
         for cache in spec.caches for kernel in spec.kernels),
        config=spec.config, overrides=spec.overrides,
    )


def build_cell_plan(
    requests,
    config: HarnessConfig = None,
    overrides: Dict[str, dict] = None,
) -> SweepPlan:
    """Expand explicit ``(kernel, ArchSpec, CacheConfig)`` requests into a plan.

    The one planner: :func:`build_plan` hands it a spec's full cross
    product, and the query service a coalesced batch of queries, which
    covers an arbitrary, possibly sparse subset of the sweep grid —
    planning the cross product would solve kernels nobody asked about.

    Duplicate requests collapse to one cell (first occurrence fixes the
    collation position); kernels share one :class:`SolveJob` per
    configuration, made in first-seen order, so a batch of N queries
    against one kernel costs one solve.  Because each cell prices
    independently from its job's profile, batch composition cannot leak
    between cells.  A cell that cannot fit its arch's memory is filed
    as a planned skip.
    """
    config = (config if config is not None else HarnessConfig()).validated()
    overrides = overrides or {}

    def factory_kwargs(kernel: str) -> dict:
        kwargs = dict(overrides.get("*", {}))
        kwargs.update(overrides.get(kernel, {}))
        return kwargs

    archs: Dict[str, ArchSpec] = {}
    caches: Dict[str, CacheConfig] = {}
    jobs: List[SolveJob] = []
    job_of_kernel: Dict[str, SolveJob] = {}
    cells: List[Cell] = []
    seen: set = set()
    for kernel, arch, cache in requests:
        cell = Cell(kernel, arch.name, cache.label)
        if cell in seen:
            continue
        seen.add(cell)
        cells.append(cell)
        archs.setdefault(arch.name, arch)
        caches.setdefault(cache.label, cache)
        job = job_of_kernel.get(kernel)
        if job is None:
            job = _make_job(kernel, factory_kwargs(kernel), config)
            jobs.append(job)
            job_of_kernel[kernel] = job
        if check_fit(job.footprint, arch).fits:
            job.priced_cells.append(cell)
        else:
            job.skip_cells.append(cell)

    return SweepPlan(
        cells=cells,
        jobs=jobs,
        archs=archs,
        caches=caches,
        job_of_kernel=job_of_kernel,
        config=config,
    )
