"""The benchmark harness.

Drives an :class:`~repro.core.problem.EntoProblem` on a simulated core:
checks the memory fit, performs cache warm-up repetitions, runs the
measured repetitions, prices each repetition's operation trace through the
pipeline and energy models, and (optionally) toggles simulated GPIO lines
so the instrumentation substrate can observe the run exactly as a logic
analyzer and current probe would on real hardware.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.config import DEFAULT_CONFIG, HarnessConfig
from repro.core.problem import EntoProblem
from repro.core.results import BenchmarkResult, RunRecord
from repro.mcu.arch import ArchSpec
from repro.mcu.cache import CacheConfig, CacheModel
from repro.mcu.energy import EnergyModel
from repro.mcu.memory import check_fit
from repro.mcu.ops import OpCounter
from repro.mcu.pipeline import PipelineModel
from repro.mcu.static import static_profile


class Harness:
    """Runs problems on one simulated core."""

    def __init__(
        self,
        arch: ArchSpec,
        config: HarnessConfig = DEFAULT_CONFIG,
        gpio=None,
        power_monitor=None,
    ):
        self.arch = arch
        self.config = config.validated()
        self.pipeline = PipelineModel(arch)
        self.energy = EnergyModel(arch)
        self.gpio = gpio  # repro.instrumentation.gpio.GpioBus, optional
        self.power_monitor = power_monitor  # optional current-probe sim
        self._sim_time_s = 0.0

    # -- time bookkeeping ---------------------------------------------------

    def _advance(self, dt_s: float) -> None:
        self._sim_time_s += dt_s

    def _mark(self, pin: str, state: bool) -> None:
        if self.gpio is not None:
            self.gpio.write(pin, state, self._sim_time_s)

    def _record_power_segment(self, duration_s: float, power_w: float,
                              peak_w: Optional[float] = None) -> None:
        if self.power_monitor is not None:
            self.power_monitor.add_segment(
                self._sim_time_s, duration_s, power_w,
                peak_w if peak_w is not None else power_w,
            )

    # -- main entry -----------------------------------------------------------

    def run(self, problem: EntoProblem, cache: CacheConfig) -> BenchmarkResult:
        """Run one problem configuration; returns the aggregate result."""
        result = BenchmarkResult(
            kernel=problem.name,
            arch=self.arch.name,
            cache=cache.label,
            scalar=problem.scalar.name,
            dataset=problem.dataset_name,
            stage=problem.stage,
        )

        footprint = problem.footprint()
        fit = check_fit(footprint, self.arch)
        if not fit.fits:
            if self.config.strict_memory:
                from repro.mcu.memory import MemoryFitError

                raise MemoryFitError(
                    f"{problem.name} exceeds {self.arch.name} memory"
                )
            result.fits = False
            result.skip_reason = (
                f"needs {fit.flash_used} B flash / {fit.sram_used} B SRAM; "
                f"{self.arch.name} offers {fit.flash_available} / {fit.sram_available}"
            )
            return result

        rng = np.random.default_rng(problem.seed)
        problem.ensure_setup(rng)
        result.work_units = max(int(problem.work_units), 1)

        static = static_profile(problem.name, problem.static_mix_base(), self.arch)
        code_bytes = static.flash_bytes
        data_bytes = footprint.data_bytes
        cache_model = CacheModel(self.arch, cache)
        cache_activity = cache_model.activity(code_bytes, data_bytes)

        # Benchmark start: raise the trigger pin that starts the current
        # probe's acquisition on real hardware.
        self._mark("trigger", True)
        self._advance(10e-6)
        self._mark("trigger", False)

        total_reps = self.config.warmup_reps + self.config.reps
        for rep in range(total_reps):
            measured = rep >= self.config.warmup_reps
            counter = OpCounter()
            solve_result = problem.solve(counter)
            trace = counter.snapshot()

            breakdown = self.pipeline.cycles(
                trace, problem.scalar, cache, code_bytes, data_bytes
            )
            report = self.energy.report(trace, breakdown, cache_activity)

            # ROI window: latency pin high for exactly the kernel runtime.
            self._mark("roi", True)
            self._record_power_segment(
                report.latency_s, report.avg_power_w, report.peak_power_w
            )
            self._advance(report.latency_s)
            self._mark("roi", False)

            # Idle gap between repetitions.
            self._record_power_segment(
                self.config.inter_rep_gap_s, self.energy.idle_power_w()
            )
            self._advance(self.config.inter_rep_gap_s)

            if measured:
                valid = bool(problem.validate(solve_result))
                result.runs.append(
                    RunRecord(
                        rep=rep - self.config.warmup_reps,
                        cycles=breakdown.total,
                        latency_s=report.latency_s,
                        energy_j=report.energy_j,
                        avg_power_w=report.avg_power_w,
                        peak_power_w=report.peak_power_w,
                        trace=trace,
                        valid=valid,
                    )
                )
        return result
