"""Tests for the sweep execution engine (`repro.engine`).

Covers the engine's contract with the historical serial driver:

* bit-identical results (parallel + warm cache vs `run_sweep_serial`),
* zero kernel ``solve()`` calls on a warm-cache ``characterize_suite``
  (verified by a counting test double),
* content-address invalidation on changed factory kwargs and seed,
* kill-resume: a sweep killed mid-solve and rerun over the same
  trace-cache directory re-solves only what had not finished,
* a solve worker that dies ends the sweep in ``BrokenProcessPool``, and
  a rerun over the same cache directory equals a clean sweep,
* the metrics-registry sweep summary and the legacy progress lines,
* the `SweepResults` index and `SweepSpec` config-aliasing fixes.
"""

import json
import multiprocessing
import os
import tempfile
import threading
from concurrent.futures.process import BrokenProcessPool

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine.executor as executor
from repro.core import experiment_io, registry
from repro.core.config import HarnessConfig
from repro.core.experiment import (
    SweepResults,
    SweepSpec,
    characterize_suite,
    run_sweep,
    run_sweep_serial,
)
from repro.core.results import BenchmarkResult
from repro.engine import (
    EngineOptions,
    TraceCache,
    build_plan,
    run_sweep_engine,
    solve_key,
    sweep_summary,
)
from repro.mcu.arch import CHARACTERIZATION_ARCHS, M0PLUS, M4, M33
from repro.mcu.memory import MemoryFitError
from repro.obs import MetricsRegistry

KERNELS = ["mahony", "p3p", "fly-lqr"]
OVERRIDES = {"mahony": {"n_samples": 40}, "fly-lqr": {"n_steps": 40}}
FAST = HarnessConfig(reps=2, warmup_reps=1)


def small_spec(archs=(M4, M33), overrides=None):
    return SweepSpec(
        kernels=list(KERNELS),
        archs=list(archs),
        config=FAST,
        overrides=dict(OVERRIDES if overrides is None else overrides),
    )


def install_solve_counter(monkeypatch, kernels, overrides=None):
    """Wrap each kernel class's ``solve`` with a per-kernel call counter."""
    overrides = overrides or {}
    counts = {}
    for name in kernels:
        cls = type(registry.create(name, **overrides.get(name, {})))
        counts[name] = 0
        original = cls.solve

        def counting(self, counter, _name=name, _orig=original):
            counts[_name] += 1
            return _orig(self, counter)

        monkeypatch.setattr(cls, "solve", counting)
    return counts


class TestEquivalence:
    def test_parallel_engine_matches_serial_bit_for_bit(self, tmp_path):
        """jobs=2 + cold disk cache == the serial driver, cell for cell."""
        spec = small_spec()
        serial = run_sweep_serial(spec)
        engine = run_sweep_engine(
            spec, options=EngineOptions(jobs=2, cache_dir=tmp_path / "cache")
        )
        assert len(serial) == len(engine) == len(KERNELS) * 2 * 2
        for expect, got in zip(serial.results, engine.results):
            assert expect == got, (got.kernel, got.arch, got.cache)

    def test_warm_cache_engine_matches_serial_bit_for_bit(self, tmp_path):
        spec = small_spec()
        serial = run_sweep_serial(spec)
        run_sweep_engine(spec, options=EngineOptions(cache_dir=tmp_path / "cache"))

        registry = MetricsRegistry()
        warm = run_sweep_engine(
            spec,
            options=EngineOptions(jobs=2, cache_dir=tmp_path / "cache"),
            telemetry=registry,
        )
        for expect, got in zip(serial.results, warm.results):
            assert expect == got, (got.kernel, got.arch, got.cache)
        summary = sweep_summary(registry)
        assert summary["solves_executed"] == 0
        assert summary["cache_hit_rate"] == 1.0

    def test_run_sweep_wrapper_is_engine_backed(self):
        """The compatibility wrapper returns the engine's (deduped) results."""
        spec = small_spec(archs=(M4,))
        serial = run_sweep_serial(spec)
        wrapped = run_sweep(spec)
        assert serial.results == wrapped.results

    def test_unfit_kernels_are_never_solved(self, monkeypatch):
        """sift fits neither M4 nor M33: planned skips, zero compute."""
        counts = install_solve_counter(monkeypatch, ["sift"])
        spec = SweepSpec(kernels=["sift"], archs=[M4, M33], config=FAST)
        serial = run_sweep_serial(spec)  # harness fit-checks before solving
        engine = run_sweep_engine(spec)
        assert counts["sift"] == 0
        assert serial.results == engine.results
        assert all(not r.fits and "SRAM" in r.skip_reason for r in engine.results)

    def test_strict_memory_raises_before_solving(self, monkeypatch):
        counts = install_solve_counter(monkeypatch, ["sift"])
        spec = SweepSpec(
            kernels=["sift"], archs=[M4],
            config=HarnessConfig(reps=1, warmup_reps=0, strict_memory=True),
        )
        with pytest.raises(MemoryFitError):
            run_sweep_engine(spec)
        assert counts["sift"] == 0


class TestWarmCharacterization:
    def test_warm_characterize_suite_zero_solves(self, tmp_path, monkeypatch):
        """Acceptance: >=3 kernels x 3 archs x 2 cache states from a warm
        cache performs zero kernel solve() calls and matches the serial
        path cell-for-cell (cycles, energy, peak power, validity)."""
        cache_dir = tmp_path / "trace-cache"
        archs = list(CHARACTERIZATION_ARCHS)
        assert len(archs) == 3

        serial = run_sweep_serial(SweepSpec(kernels=KERNELS, archs=archs, config=FAST))
        characterize_suite(KERNELS, config=FAST, archs=archs, cache_dir=cache_dir)

        counts = install_solve_counter(monkeypatch, KERNELS)
        warm = characterize_suite(KERNELS, config=FAST, archs=archs,
                                  cache_dir=cache_dir)

        assert sum(counts.values()) == 0, counts
        assert len(warm) == len(serial) == 3 * 3 * 2
        for expect, got in zip(serial.results, warm.results):
            assert (got.kernel, got.arch, got.cache) == \
                (expect.kernel, expect.arch, expect.cache)
            assert got.mean_cycles == expect.mean_cycles
            assert got.mean_energy_j == expect.mean_energy_j
            assert got.peak_power_w == expect.peak_power_w
            assert got.all_valid == expect.all_valid
            assert got == expect  # full bit-identity, runs and traces included


class TestTraceCache:
    def test_key_changes_with_kwargs_and_seed(self):
        base = solve_key("mahony", {"n_samples": 40}, "f32", 0, 2, 1)
        assert base == solve_key("mahony", {"n_samples": 40}, "f32", 0, 2, 1)
        assert base != solve_key("mahony", {"n_samples": 41}, "f32", 0, 2, 1)
        assert base != solve_key("mahony", {"n_samples": 40}, "f32", 7, 2, 1)
        assert base != solve_key("mahony", {"n_samples": 40}, "q7.24", 0, 2, 1)
        assert base != solve_key("mahony", {"n_samples": 40}, "f32", 0, 3, 1)
        assert base != solve_key("madgwick", {"n_samples": 40}, "f32", 0, 2, 1)

    def test_changed_kwargs_invalidate_warm_cache(self, tmp_path, monkeypatch):
        cache_dir = tmp_path / "cache"
        spec = small_spec(archs=(M4,))
        run_sweep_engine(spec, options=EngineOptions(cache_dir=cache_dir))

        counts = install_solve_counter(monkeypatch, KERNELS, OVERRIDES)
        # Same spec: pure cache hits.
        run_sweep_engine(spec, options=EngineOptions(cache_dir=cache_dir))
        assert sum(counts.values()) == 0

        # Changed factory kwargs for one kernel: only that kernel re-solves.
        changed = small_spec(
            archs=(M4,),
            overrides={"mahony": {"n_samples": 41}, "fly-lqr": {"n_steps": 40}},
        )
        run_sweep_engine(changed, options=EngineOptions(cache_dir=cache_dir))
        reps_per_job = FAST.reps + FAST.warmup_reps
        assert counts == {"mahony": reps_per_job, "p3p": 0, "fly-lqr": 0}

        # Changed seed: re-solves again even with identical sizes.
        reseeded = small_spec(
            archs=(M4,),
            overrides={**OVERRIDES, "p3p": {"seed": 9}},
        )
        run_sweep_engine(reseeded, options=EngineOptions(cache_dir=cache_dir))
        assert counts["p3p"] == reps_per_job

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path):
        cache = TraceCache(cache_dir=tmp_path)
        key = solve_key("mahony", {}, "f32", 0, 1, 0)
        # A torn write, and whole JSON that is not an object.
        for text in ("{not json", "[1, 2]", '"x"'):
            (tmp_path / f"{key}.json").write_text(text)
            assert cache.get(key) is None
        assert cache.stats.misses == 3

    def test_default_options_solve_each_kernel_once_per_sweep(
            self, monkeypatch):
        """Without a cache dir, in-sweep grouping still solves once."""
        counts = install_solve_counter(monkeypatch, KERNELS, OVERRIDES)
        spec = small_spec()  # 2 archs x 2 caches = 4 cells per kernel
        run_sweep_engine(spec, options=EngineOptions())
        reps_per_job = FAST.reps + FAST.warmup_reps
        assert counts == {name: reps_per_job for name in KERNELS}


class Killed(Exception):
    """Stands in for a kill arriving in the middle of a solve."""


def record_solves(monkeypatch, kill_at=None):
    """Log each finished solve; raise :class:`Killed` at solve ``kill_at``."""
    solved = []
    original = executor.solve_profile

    def solve(kernel, *args, **kwargs):
        if len(solved) == kill_at:
            raise Killed(kernel)
        profile = original(kernel, *args, **kwargs)
        solved.append(kernel)
        return profile

    monkeypatch.setattr(executor, "solve_profile", solve)
    return solved


def kill_and_rerun(monkeypatch, run, cache_dir, kill_at):
    """Solves of an uninterrupted ``run(options)`` and of its rerun.

    The rerun goes over ``cache_dir`` after a first run there was killed
    at solve ``kill_at``.
    """
    full = record_solves(monkeypatch)
    run(EngineOptions())
    monkeypatch.undo()
    options = EngineOptions(cache_dir=cache_dir)
    record_solves(monkeypatch, kill_at=kill_at)
    with pytest.raises(Killed):
        run(options)
    monkeypatch.undo()
    rerun = record_solves(monkeypatch)
    run(options)
    return full, rerun


class TestKillResume:
    @settings(max_examples=6, deadline=None)
    @given(kill_at=st.integers(0, len(KERNELS) - 1))
    def test_rerun_over_the_cache_dir_finishes_a_killed_sweep(self, kill_at):
        spec = small_spec(archs=(M4,))
        results = []

        def sweep(options):
            results.append(run_sweep_engine(spec, options=options).results)

        with tempfile.TemporaryDirectory() as cache_dir, \
                pytest.MonkeyPatch.context() as mp:
            full, rerun = kill_and_rerun(mp, sweep, cache_dir, kill_at)
        assert len(full) == len(KERNELS)
        assert rerun == full[kill_at:]
        uninterrupted, resumed = results
        assert resumed == uninterrupted


def error_within(seconds, fn):
    """The exception ``fn()`` raises; fails the test if it runs longer."""
    caught = []

    def call():
        try:
            fn()
        except Exception as exc:
            caught.append(exc)

    worker = threading.Thread(target=call, daemon=True)
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), f"still running after {seconds} s"
    return caught[0] if caught else None


def exit_on_p3p(original):
    """A ``solve_profile`` that kills its process when asked for p3p."""

    def solve(kernel, *args, **kwargs):
        if kernel == "p3p":
            os._exit(3)
        return original(kernel, *args, **kwargs)

    return solve


class TestCrashedWorker:
    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the patch reaches pool workers only by fork")
    def test_crashed_solve_worker_raises_and_rerun_recovers(
            self, monkeypatch, tmp_path):
        spec = small_spec(archs=(M4,))
        clean = run_sweep_engine(spec).results
        options = EngineOptions(jobs=2, cache_dir=tmp_path)
        monkeypatch.setattr(executor, "solve_profile",
                            exit_on_p3p(executor.solve_profile))
        error = error_within(
            60, lambda: run_sweep_engine(spec, options=options))
        assert isinstance(error, BrokenProcessPool), error
        monkeypatch.undo()
        assert run_sweep_engine(spec, options=options).results == clean


class TestTelemetry:
    def test_registry_summary(self):
        registry = MetricsRegistry()
        run_sweep_engine(small_spec(archs=(M4,)), telemetry=registry)
        summary = sweep_summary(registry)
        assert summary["cells_total"] == len(KERNELS) * 2
        assert summary["solves_executed"] == 3
        assert summary["wall_s"] > 0
        assert summary["serial_estimate_s"] > 0
        assert set(summary["stage_wall_s"]) == {"solve", "price"}

    @pytest.mark.parametrize("kernels,archs,options", [
        (KERNELS, (M4,), None),
        (KERNELS, (M4,), EngineOptions(jobs=2)),
        (["fastbrief"], (M0PLUS,), None),  # memory misfit: two skip lines
    ], ids=["default", "jobs2", "misfit"])
    def test_legacy_progress_lines_preserved(self, kernels, archs, options):
        spec = SweepSpec(kernels=list(kernels), archs=list(archs),
                         config=FAST, overrides=dict(OVERRIDES))
        legacy, engine_lines = [], []
        run_sweep_serial(spec, progress=legacy.append)
        run_sweep(spec, progress=engine_lines.append, options=options)
        assert legacy == engine_lines
        assert len(legacy) == len(kernels) * 2

    def test_telemetry_json_roundtrip(self, tmp_path):
        registry = MetricsRegistry()
        run_sweep_engine(small_spec(archs=(M4,)), telemetry=registry)
        path = experiment_io.save_telemetry_json(
            sweep_summary(registry),
            experiment_io.telemetry_path_for(tmp_path / "r.json"),
        )
        assert path.name == "r.telemetry.json"
        loaded = json.loads(path.read_text())
        assert loaded["cells_run"] == len(KERNELS) * 2
        assert 0.0 <= loaded["cache_hit_rate"] <= 1.0


class TestSatelliteFixes:
    def test_sweep_results_index_matches_linear_scan(self):
        results = run_sweep_engine(small_spec())
        for r in results.results:
            assert results.get(r.kernel, r.arch, r.cache) is not None
        hit = results.get("mahony", "m4", "C")
        scan = next(
            r for r in results.results
            if (r.kernel, r.arch, r.cache) == ("mahony", "m4", "C")
        )
        assert hit is scan
        assert results.get("mahony", "m4", "C", scalar="f32") is scan
        assert results.get("mahony", "m4", "C", scalar="q7.24") is None
        assert results.get("nope", "m4", "C") is None

    def test_sweep_results_index_survives_direct_append(self):
        results = SweepResults()
        r = BenchmarkResult(kernel="k", arch="m4", cache="C", scalar="f32",
                            dataset="d", stage="P")
        results.results.append(r)  # bypasses add(); index must self-heal
        assert results.get("k", "m4", "C") is r

    def test_sweep_spec_configs_not_aliased(self):
        a = SweepSpec(kernels=["mahony"])
        b = SweepSpec(kernels=["p3p"])
        assert a.config == b.config
        assert a.config is not b.config

    def test_plan_dedup_accounting(self):
        plan = build_plan(small_spec())
        assert len(plan.cells) == len(KERNELS) * 2 * 2
        assert len(plan.jobs) == len(KERNELS)
        # 4 cells per kernel, solved once each: 3 x 3 executions saved.
        assert plan.n_solves_saved == len(KERNELS) * 3
