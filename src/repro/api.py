"""The single supported import surface for the benchmark framework.

Four subsystem PRs grew four entry idioms: analysis code hand-builds
:class:`SweepSpec` and drives the engine, the fault layer names its grid
a ``FaultCampaignSpec``, closed-loop code instantiates runners directly,
and the CLI wires each path by hand.  This facade harmonizes them behind
one module:

* **Spec constructors** — :class:`SweepSpec` (what to sweep),
  :class:`MissionSpec` (what to fly), :class:`CampaignSpec` (what to
  subject to faults; the canonical name for the fault layer's
  ``FaultCampaignSpec``) and :class:`EngineOptions` (how to execute).
* **Verbs** — :func:`characterize`, :func:`sweep`, :func:`run_mission`,
  :func:`run_campaign`, :func:`price_batch` (re-price solved profiles on
  any core/cache grid, vectorized by default), and :func:`query`
  (one-shot service query); :func:`sweep_summary` reports what a sweep
  recorded into its metrics registry.
* **Service types** — :class:`ServiceBroker` / :class:`ShardPool`, the
  query dataclasses with their frozen :class:`QueryOptions`, and the
  typed :class:`ServiceError` taxonomy, for callers that hold a broker
  open across many queries (see ``docs/service.md``).
* **Toolkits** — the fault-report helpers (:func:`build_report`,
  :func:`render_report`, :func:`save_report`, :func:`get_fault`,
  :func:`fault_names`) and the closed-loop building blocks
  (:class:`FlappingWingRunner`, :class:`StriderRunner` and their
  missions) for custom studies the verb signatures don't cover.
* **Scenarios** — tiered scenario generation for campaign-scale studies:
  :func:`generate_scenarios` samples a content-addressed
  :class:`ScenarioSet` (tier A = the paper's platforms, tier B = seeded
  synthetics) and :func:`run_scenarios` executes one into a Pareto /
  failure-rate report.  The mission registry (:func:`mission_names`,
  :func:`register_mission`) is the extension seam generated missions
  flow through.

``__all__`` below is the *pinned* public surface: ``tests/test_api.py``
snapshots it, so adding or removing a name is an explicit, reviewed act.
Examples, benchmarks, and analysis code import from here — enforced by
the ``facade-only-imports`` lint rule.
"""

from __future__ import annotations

from dataclasses import replace as _dc_replace
from typing import List, Optional, Union

from repro.closedloop import (
    MISSION_NAMES,
    FlappingWingRunner,
    HoverMission,
    MissionKeyError,
    MissionResult,
    MissionSpec,
    SteeringCourse,
    StriderRunner,
    WaypointMission,
    mission_names,
    register_mission,
)
from repro.core import registry
from repro.core.config import HarnessConfig
from repro.core.experiment import (
    ResultKeyError,
    SweepResults,
    SweepSpec,
)
from repro.engine import EngineOptions, TraceCache, sweep_summary
from repro.faults import (
    CampaignResult,
    build_report,
    fault_names,
    get_fault,
    render_report,
    save_report,
)
from repro.faults import FaultCampaignSpec as CampaignSpec
from repro.faults.campaign import mission_cell, run_mission_job
from repro.scenarios import (
    ScenarioGenerator,
    ScenarioSet,
    ScenarioSpec,
    generate_scenarios,
    run_scenarios,
)
from repro.service import (
    DEFAULT_PORT,
    CampaignQuery,
    CharacterizeQuery,
    MissionQuery,
    QueryOptions,
    QueryValidationError,
    ServiceBroker,
    ServiceClient,
    ServiceError,
    ServiceOverloaded,
    ServiceServer,
    ServiceTimeout,
    ShardPool,
    ShardUnavailable,
    parse_request,
)

__all__ = [
    # specs / options
    "CampaignSpec",
    "EngineOptions",
    "HarnessConfig",
    "MissionSpec",
    "SweepSpec",
    "TraceCache",
    # results / errors
    "CampaignResult",
    "MissionKeyError",
    "MissionResult",
    "ResultKeyError",
    "SweepResults",
    # verbs
    "characterize",
    "generate_scenarios",
    "get_arch",
    "list_backends",
    "price_batch",
    "query",
    "run_campaign",
    "run_mission",
    "run_scenarios",
    "sweep",
    "sweep_summary",
    # scenario toolkit
    "ScenarioGenerator",
    "ScenarioSet",
    "ScenarioSpec",
    "mission_names",
    "register_mission",
    # fault toolkit
    "build_report",
    "fault_names",
    "get_fault",
    "render_report",
    "save_report",
    # closed-loop building blocks (custom runners / courses)
    "FlappingWingRunner",
    "HoverMission",
    "SteeringCourse",
    "StriderRunner",
    "WaypointMission",
    # service surface
    "CampaignQuery",
    "CharacterizeQuery",
    "MissionQuery",
    "QueryOptions",
    "QueryValidationError",
    "ServiceBroker",
    "ServiceClient",
    "ServiceError",
    "ServiceOverloaded",
    "ServiceServer",
    "ServiceTimeout",
    "ShardPool",
    "ShardUnavailable",
    # constants
    "DEFAULT_PORT",
    "MISSION_NAMES",
]


def characterize(
    kernels=None,
    config: Optional[HarnessConfig] = None,
    archs=None,
    *,
    jobs: int = 1,
    cache_dir=None,
    telemetry=None,
) -> SweepResults:
    """Run the paper's workload characterization (Table IV).

    Sweeps ``kernels`` (default: the full registered suite) across
    ``archs`` (default: every backend's characterization cores), cache
    on and off, through :func:`sweep`.  ``jobs`` and ``cache_dir`` size
    the engine: with a warm cache the whole characterization re-prices
    persisted traces without a single kernel ``solve()``.
    """
    from repro.backends import characterization_archs

    spec = SweepSpec(
        kernels=list(kernels) if kernels is not None else registry.suite(),
        archs=archs if archs is not None else list(characterization_archs()),
        config=config if config is not None else HarnessConfig(),
    )
    return sweep(
        spec,
        options=EngineOptions(jobs=jobs, cache_dir=cache_dir),
        telemetry=telemetry,
    )


def sweep(
    spec: SweepSpec,
    *,
    options: Optional[EngineOptions] = None,
    telemetry=None,
    progress=None,
) -> SweepResults:
    """Execute one :class:`SweepSpec` through the execution engine.

    Every kernel x core grid runs here: each kernel configuration solves
    once and is re-priced on every (core, cache) cell.  ``telemetry`` is
    the ``repro.obs.MetricsRegistry`` the sweep records into (None: the
    process-wide one); :func:`sweep_summary` reads the run's report back
    out of it.  ``progress`` gets one ``"<kernel> on <arch>/<cache>:
    ok|skip"`` line per cell.
    """
    # Looked up on the package at call time, so a wrapper installed on
    # ``repro.engine.run_sweep_engine`` sees every sweep.
    from repro.engine import run_sweep_engine

    return run_sweep_engine(
        spec, options=options, telemetry=telemetry, progress=progress
    )


def run_mission(
    spec: Union[MissionSpec, str],
    arch: Optional[str] = None,
) -> MissionResult:
    """Fly one closed-loop mission and return its task-level result.

    Accepts a :class:`MissionSpec` or a bare mission name (with ``arch``
    defaulting per the spec).  Deterministic: the same spec always
    produces a byte-identical result.
    """
    if isinstance(spec, str):
        spec = MissionSpec(mission=spec, arch=arch if arch is not None else "m33")
    elif arch is not None:
        raise TypeError("pass arch inside the MissionSpec, not alongside it")
    spec = spec.validated()
    return run_mission_job(mission_cell(None, spec.mission, spec.arch, 0.0, 0))[0]


def run_campaign(
    spec: CampaignSpec,
    options: Optional[EngineOptions] = None,
) -> CampaignResult:
    """Execute one fault campaign (kernel grid + mission grid)."""
    from repro.faults import run_campaign as _run_campaign

    return _run_campaign(spec, options=options)


def price_batch(items, *, vectorize: bool = True) -> list:
    """Price a batch of (profile, arch, cache) cells in one pass.

    Re-prices already-solved kernel profiles — e.g. the snapshot a
    warmed :class:`TraceCache` returns from ``profiles()`` — on any
    (core, cache state) grid without re-running any kernel.  ``items``
    is a sequence of ``(profile, arch, cache)`` triples where ``arch``
    is an ``ArchSpec`` or a registry short name (``"m33"``,
    ``"rv32imfc"``) and ``cache`` is a ``CacheConfig``, a ``"C"`` /
    ``"NC"`` label, or a bool (cache enabled).  Returns one
    ``BenchmarkResult`` per item, in item order.

    With ``vectorize=True`` (the default) the whole batch prices
    through the columnar :mod:`repro.vecprice` path — one set of matrix
    ops for every cell; ``vectorize=False`` loops the serial per-cell
    reference instead.  Both produce byte-identical results (the
    contract ``docs/pricing.md`` documents and ``tests/test_vecprice.py``
    enforces), so the flag is a performance choice, not a semantic one.
    """
    from repro.backends import get_arch as _get_arch
    from repro.engine import price_profile as _price_profile
    from repro.mcu.arch import ArchSpec
    from repro.mcu.cache import CACHE_OFF, CACHE_ON, CacheConfig
    from repro.vecprice import price_batch as _price_batch

    def _norm_cache(cache) -> CacheConfig:
        if isinstance(cache, CacheConfig):
            return cache
        if isinstance(cache, str):
            label = cache.upper()
            if label == CACHE_ON.label:
                return CACHE_ON
            if label == CACHE_OFF.label:
                return CACHE_OFF
            raise ValueError(f"unknown cache label {cache!r}; use 'C' or 'NC'")
        return CACHE_ON if cache else CACHE_OFF

    normalized = [
        (
            profile,
            arch if isinstance(arch, ArchSpec) else _get_arch(arch),
            _norm_cache(cache),
        )
        for profile, arch, cache in items
    ]
    if vectorize:
        return _price_batch(normalized)
    return [_price_profile(p, a, c) for p, a, c in normalized]


def list_backends() -> List[dict]:
    """The registered ISA backends, one JSON-ready row per backend.

    Each row carries the backend name (``cortex-m``, ``riscv``), its
    description, every arch it registers, and its default
    characterization subset — the facade form of
    ``repro.backends.list_backends``.
    """
    from repro.backends import list_backends as _list_backends

    return _list_backends()


def get_arch(name: str):
    """Resolve an architecture by short name through the backend registry.

    Returns the :class:`~repro.mcu.arch.ArchSpec`; unknown names raise
    ``ArchKeyError`` (a ``KeyError`` subclass carrying a nearest-match
    suggestion).
    """
    from repro.backends import get_arch as _get_arch

    return _get_arch(name)


def query(
    request: Union[dict, CharacterizeQuery, MissionQuery, CampaignQuery],
    broker: Optional[ServiceBroker] = None,
    *,
    options: Optional[QueryOptions] = None,
) -> dict:
    """Answer one benchmark query and return its JSON-ready payload.

    ``request`` is a query dataclass or a wire-style dict
    (``{"op": "characterize", "kernel": ..., ...}``).  With ``broker``
    (a :class:`ServiceBroker`, or its subclass :class:`ShardPool`) the
    query goes through that broker's cache and coalescing; without one
    a transient broker answers it and shuts down — convenient, but
    callers with query volume should hold a broker (or run ``repro
    serve``) to actually reuse the cache.

    ``options`` attaches a :class:`QueryOptions` (priority, timeout,
    cache policy).
    """
    q = parse_request(request) if isinstance(request, dict) else request
    if options is not None:
        q = _dc_replace(q, options=options.validated())
    if broker is not None:
        return broker.ask(q)
    with ServiceBroker() as transient:
        return transient.ask(q)
