"""Regenerates Table IV: dynamic metrics — latency, energy, and peak power
with and without caches on Cortex-M4, M33, and M7 for the full suite.

This is the paper's main workload characterization (the 400+ datapoint
claim: 31 kernels x 3 cores x 2 cache states x repetitions).
"""

import pytest

from repro.analysis import tables
from repro.core.config import HarnessConfig

# Reduced sequence lengths keep the full-suite regeneration tractable in
# CI while preserving per-unit metrics (they are length-normalized).
OVERRIDES = {
    "mahony": {"n_samples": 100},
    "madgwick": {"n_samples": 100},
    "fourati": {"n_samples": 100},
    "fly-ekf (sync)": {"n_samples": 100},
    "fly-ekf (seq)": {"n_samples": 100},
    "fly-ekf (trunc)": {"n_samples": 100},
    "bee-ceekf": {"n_samples": 30},
    "fly-lqr": {"n_steps": 200},
    "fly-tiny-mpc": {"n_steps": 20},
    "bee-mpc": {"n_steps": 6},
    "bee-geom": {"n_steps": 100},
    "bee-smac": {"n_steps": 120},
}


@pytest.fixture(scope="module")
def table4_spec():
    from repro.api import SweepSpec
    from repro.mcu.arch import CHARACTERIZATION_ARCHS

    return SweepSpec(
        kernels=list(tables.TABLE_KERNELS),
        archs=list(CHARACTERIZATION_ARCHS),
        config=HarnessConfig(reps=1, warmup_reps=0),
        overrides=OVERRIDES,
    )


@pytest.fixture(scope="module")
def trace_cache():
    # Shared across this module's tests: the full-suite sweep warms it,
    # the warm-repricing benchmark then re-prices without a single solve.
    from repro.api import TraceCache

    return TraceCache()


@pytest.fixture(scope="module")
def sweep(table4_spec, trace_cache):
    from repro.api import EngineOptions, sweep_summary
    from repro.api import sweep as run_sweep
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    results = run_sweep(
        table4_spec,
        options=EngineOptions(jobs=2, trace_cache=trace_cache),
        telemetry=registry,
    )
    summary = sweep_summary(registry, trace_cache.stats)
    results.engine_summary = summary  # stashed for the telemetry artifact
    return results


def test_table4_dynamic(benchmark, save_artifact, sweep):
    # Time a single-kernel slice (the full sweep ran once in the fixture).
    benchmark.pedantic(
        tables.table4_dynamic,
        kwargs={"kernels": ("mahony",), "config": HarnessConfig(reps=1, warmup_reps=0)},
        rounds=1, iterations=1,
    )
    text = tables.render_table4(sweep, kernels=tables.TABLE_KERNELS)
    save_artifact("table4_dynamic", text)

    assert len(sweep) == 31 * 3 * 2

    # Shape assertions against the paper's headline relationships.
    def lat(k, a, c="C"):
        return sweep.get(k, a, c).unit_latency_us

    def energy(k, a, c="C"):
        return sweep.get(k, a, c).unit_energy_uj

    # M33 is the energy winner for every kernel that fits it.
    for kernel in tables.TABLE_KERNELS:
        r = sweep.get(kernel, "m33", "C")
        if not r.fits:
            continue
        assert energy(kernel, "m33") < energy(kernel, "m4"), kernel
        assert energy(kernel, "m33") < energy(kernel, "m7"), kernel

    # M7 cache sensitivity: uncached runs cost 1.5-4x more time.
    for kernel in ("fastbrief", "lkof", "5pt", "bee-mpc"):
        ratio = lat(kernel, "m7", "NC") / lat(kernel, "m7", "C")
        assert 1.3 < ratio < 5.0, (kernel, ratio)

    # M4 cache (flash accelerator) barely matters.
    for kernel in ("fastbrief", "p3p"):
        ratio = lat(kernel, "m4", "NC") / lat(kernel, "m4", "C")
        assert ratio < 1.35, (kernel, ratio)

    # Spectrum: attitude filters in microseconds, sift in seconds territory.
    assert lat("mahony", "m4") < 20
    assert lat("sift", "m7") > 50_000


def test_table4_engine_warm_repricing(benchmark, artifact_dir, table4_spec,
                                      trace_cache, sweep):
    """Warm-cache regeneration: the whole table re-prices with zero solves.

    Saves the engine sweep summary as a JSON artifact so BENCH_*
    trajectories can track cache hit rate and repricing wall time per PR.
    """
    import json

    from repro.api import EngineOptions, sweep_summary
    from repro.api import sweep as run_sweep
    from repro.core.experiment_io import save_telemetry_json
    from repro.obs import MetricsRegistry

    def warm_run():
        registry = MetricsRegistry()
        results = run_sweep(
            table4_spec,
            options=EngineOptions(trace_cache=trace_cache),
            telemetry=registry,
        )
        return results, sweep_summary(registry, trace_cache.stats)

    results, summary = benchmark.pedantic(warm_run, rounds=3, iterations=1)
    assert len(results) == 31 * 3 * 2
    assert summary["solves_executed"] == 0
    assert summary["cache_hit_rate"] == 1.0

    payload = {"cold_sweep": sweep.engine_summary, "warm_repricing": summary}
    path = save_telemetry_json(payload, artifact_dir / "table4_engine_telemetry.json")
    assert json.loads(path.read_text())["warm_repricing"]["cache_hits"] > 0
