"""Tests for the core framework: problem, harness, registry, experiment."""

import numpy as np
import pytest

from repro.core import registry
from repro.core.config import HarnessConfig
from repro import api
from repro.api import SweepSpec
from repro.core.harness import Harness
from repro.core.problem import EntoProblem
from repro.core.results import BenchmarkResult, RunRecord, si_format
from repro.instrumentation.gpio import GpioBus
from repro.instrumentation.logic_analyzer import LogicAnalyzer
from repro.instrumentation.power_monitor import PowerMonitor
from repro.instrumentation.sync import extract_measurements, synchronize
from repro.mcu.arch import M4, M7
from repro.mcu.cache import CACHE_OFF, CACHE_ON
from repro.mcu.memory import Footprint, MemoryFitError
from repro.mcu.ops import OpCounter
from repro.mcu.static import StaticMix
from repro.scalar import F32


class ToyProblem(EntoProblem):
    """A minimal, fast problem for framework tests (vector-vector add,
    like the artifact appendix's example kernel)."""

    name = "example-vvadd"
    stage = "P"
    category = "Example"
    dataset_name = "synthetic"

    def __init__(self, scalar=F32, seed=0, n=64, huge=False, fail=False):
        super().__init__(scalar, seed)
        self.n = n
        self.huge = huge
        self.fail = fail
        self.a = self.b = None

    def setup(self, rng):
        self.a = rng.normal(size=self.n)
        self.b = rng.normal(size=self.n)

    def solve(self, counter: OpCounter):
        counter.vec_add(self.n)
        return self.a + self.b

    def validate(self, result) -> bool:
        if self.fail:
            return False
        return np.allclose(result, self.a + self.b)

    def static_mix_base(self) -> StaticMix:
        return StaticMix(600, 0, 40, 30, 12)

    def footprint(self) -> Footprint:
        data = 10**8 if self.huge else self.n * 3 * 4
        return Footprint(flash_bytes=600, data_bytes=data)


class TestHarness:
    def test_reps_counted(self):
        h = Harness(M4, HarnessConfig(reps=4, warmup_reps=2))
        result = h.run(ToyProblem(), CACHE_ON)
        assert len(result.runs) == 4
        assert result.runs[0].rep == 0

    def test_validation_recorded(self):
        h = Harness(M4, HarnessConfig(reps=1, warmup_reps=0))
        ok = h.run(ToyProblem(), CACHE_ON)
        bad = h.run(ToyProblem(fail=True), CACHE_ON)
        assert ok.all_valid
        assert not bad.all_valid

    def test_memory_skip(self):
        h = Harness(M4, HarnessConfig(reps=1, warmup_reps=0))
        result = h.run(ToyProblem(huge=True), CACHE_ON)
        assert not result.fits
        assert result.runs == []
        assert "SRAM" in result.skip_reason

    def test_strict_memory_raises(self):
        h = Harness(M4, HarnessConfig(reps=1, warmup_reps=0, strict_memory=True))
        with pytest.raises(MemoryFitError):
            h.run(ToyProblem(huge=True), CACHE_ON)

    def test_work_units_propagated(self):
        h = Harness(M4, HarnessConfig(reps=1, warmup_reps=0))
        p = ToyProblem()
        p.work_units = 10
        result = h.run(p, CACHE_ON)
        assert result.work_units == 10
        assert result.unit_latency_us == pytest.approx(result.mean_latency_us / 10)

    def test_deterministic_across_runs(self):
        h1 = Harness(M4, HarnessConfig(reps=2, warmup_reps=0))
        h2 = Harness(M4, HarnessConfig(reps=2, warmup_reps=0))
        r1 = h1.run(ToyProblem(), CACHE_ON)
        r2 = h2.run(ToyProblem(), CACHE_ON)
        assert r1.mean_cycles == r2.mean_cycles
        assert r1.mean_energy_j == r2.mean_energy_j

    def test_cache_states_differ_on_m7(self):
        cfg = HarnessConfig(reps=1, warmup_reps=0)
        on = Harness(M7, cfg).run(ToyProblem(n=4096), CACHE_ON)
        off = Harness(M7, cfg.with_cache(False)).run(ToyProblem(n=4096), CACHE_OFF)
        assert off.mean_latency_s > on.mean_latency_s

    def test_end_to_end_with_instruments(self):
        """Full measurement chain: harness -> GPIO -> analyzer + probe ->
        sync -> recovered metrics match the model's report."""
        bus = GpioBus()
        analyzer = LogicAnalyzer(bus)
        monitor = PowerMonitor(noise_a=1e-6)
        bus.subscribe(monitor.on_gpio)
        analyzer.start()
        monitor.arm()
        h = Harness(M4, HarnessConfig(reps=3, warmup_reps=1),
                    gpio=bus, power_monitor=monitor)
        result = h.run(ToyProblem(n=8000), CACHE_ON)
        capture = synchronize(analyzer, monitor.capture())
        measurements = extract_measurements(capture)
        assert len(measurements) == 4  # warmup + 3 measured ROIs
        recovered = measurements[-1]
        assert recovered.latency_s == pytest.approx(result.mean_latency_s, rel=0.01)
        assert recovered.energy_j == pytest.approx(result.mean_energy_j, rel=0.15)


class TestRegistry:
    def test_all_suite_kernels_registered(self):
        names = registry.names()
        for expected in ("fastbrief", "orb", "sift", "mahony", "bee-ceekf",
                         "p3p", "5pt", "rel-lo-ransac", "fly-lqr", "bee-smac"):
            assert expected in names

    def test_suite_size(self):
        # 31 paper kernels + bbof-vec + 2 explicit MARG variants
        # + the axle-smooth and proximity-net expansion kernels
        # + the quantized int8/int16 proximity-net deployment variants.
        assert len(registry.names()) == 38

    def test_create_unknown_raises(self):
        with pytest.raises(KeyError):
            registry.create("yolo")

    def test_stages_partition(self):
        p = registry.by_stage("P")
        s = registry.by_stage("S")
        c = registry.by_stage("C")
        assert "fastbrief" in p
        assert "p3p" in s
        assert "fly-lqr" in c
        assert len(p) + len(s) + len(c) == len(registry.names())

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            registry.register("fastbrief")(ToyProblem)

    def test_factory_kwargs(self):
        p = registry.create("mahony", n_samples=42)
        p.ensure_setup()
        assert p.work_units == 42


class TestSweep:
    def test_small_sweep(self):
        spec = SweepSpec(
            kernels=["mahony", "fly-lqr"],
            archs=[M4],
            config=HarnessConfig(reps=1, warmup_reps=0),
            overrides={"mahony": {"n_samples": 50}, "fly-lqr": {"n_steps": 50}},
        )
        results = api.sweep(spec)
        assert len(results) == 4  # 2 kernels x 1 arch x 2 cache states
        assert results.get("mahony", "m4", "C") is not None
        assert results.get("mahony", "m4", "NC") is not None

    def test_datapoints_counted(self):
        spec = SweepSpec(
            kernels=["fly-lqr"], archs=[M4],
            config=HarnessConfig(reps=3, warmup_reps=0),
            overrides={"fly-lqr": {"n_steps": 20}},
        )
        results = api.sweep(spec)
        assert results.datapoints() == 6

    def test_progress_callback(self):
        lines = []
        spec = SweepSpec(kernels=["fly-lqr"], archs=[M4],
                         config=HarnessConfig(reps=1, warmup_reps=0),
                         overrides={"fly-lqr": {"n_steps": 10}})
        api.sweep(spec, progress=lines.append)
        assert len(lines) == 2


class TestResults:
    def _result(self):
        from repro.mcu.ops import OpTrace

        r = BenchmarkResult(kernel="k", arch="m4", cache="C", scalar="f32",
                            dataset="d", stage="P", work_units=2)
        for i, cycles in enumerate((100.0, 200.0)):
            r.runs.append(RunRecord(
                rep=i, cycles=cycles, latency_s=cycles / 1e6,
                energy_j=cycles * 1e-9, avg_power_w=0.1, peak_power_w=0.12 + i * 0.01,
                trace=OpTrace(fadd=10), valid=True,
            ))
        return r

    def test_aggregates(self):
        r = self._result()
        assert r.mean_cycles == 150.0
        assert r.unit_cycles == 75.0
        assert r.peak_power_w == pytest.approx(0.13)
        assert r.all_valid

    def test_empty_result_nan(self):
        r = BenchmarkResult(kernel="k", arch="m4", cache="C", scalar="f32",
                            dataset="d", stage="P")
        assert np.isnan(r.mean_cycles)

    def test_summary_keys(self):
        s = self._result().summary()
        assert s["kernel"] == "k"
        assert s["reps"] == 2

    def test_si_format(self):
        assert si_format(26_000) == "26K"
        assert si_format(2_000_000) == "2M"
        assert si_format(0.5) == "0.5"
        assert si_format(float("nan")) == "-"
