"""Sweep execution engine: parallel, trace-cached, resumable.

The paper's 400+ datapoint characterization is a kernel x core x cache x
scalar grid where the expensive axis — actually executing each kernel's
compute — is independent of core and cache state.  The engine exploits
that: a planner groups a sweep's cells by solve configuration, a
content-addressed trace cache persists solved profiles across runs, a
process-pool executor fans the remaining solves out in parallel, and
every count and timing lands in one :mod:`repro.obs` metrics registry
that :func:`sweep_summary` turns into a report.  The trace cache is also
the resume path: each solve is written to ``cache_dir`` as it finishes,
so a killed sweep rerun with the same directory re-solves only what had
not finished.  The price stage runs through the columnar
:mod:`repro.vecprice` batch pricer, byte-identical to the serial
per-cell reference :func:`price_profile` (``docs/pricing.md``).
:class:`EngineOptions` is the one run configuration: its ``jobs`` sizes
both the kernel-solve pool and a campaign's mission pool.

Typical use::

    from repro.core.experiment import SweepSpec
    from repro.engine import EngineOptions, run_sweep_engine, sweep_summary
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    results = run_sweep_engine(
        SweepSpec(kernels=["mahony", "p3p"]),
        options=EngineOptions(jobs=4, cache_dir=".trace-cache"),
        telemetry=registry,
    )
    print(sweep_summary(registry))

``repro.api.sweep`` is the facade over :func:`run_sweep_engine`; its
results are bit-identical to the serial reference
``repro.core.experiment.run_sweep_serial`` (see ``tests/test_engine.py``).
"""

from repro.engine.executor import (
    EngineOptions,
    run_plan,
    run_sweep_engine,
    sweep_summary,
)
from repro.engine.planner import (
    Cell,
    SolveJob,
    SweepPlan,
    build_cell_plan,
    build_plan,
    solve_key,
)
from repro.engine.profile import KernelProfile, price_profile, solve_profile
from repro.engine.trace_cache import CacheStats, TraceCache

__all__ = [
    "Cell",
    "CacheStats",
    "EngineOptions",
    "KernelProfile",
    "SolveJob",
    "SweepPlan",
    "TraceCache",
    "build_cell_plan",
    "build_plan",
    "price_profile",
    "run_plan",
    "run_sweep_engine",
    "solve_key",
    "solve_profile",
    "sweep_summary",
]
