"""Tests for the fault-injection subsystem (repro.faults).

The load-bearing guarantees:

* with every injector disabled (severity 0 / no hook) the touched code
  paths are **bit-identical** to the fault-free originals;
* campaigns are deterministic: same seed → byte-identical resilience
  reports, across runs and across worker counts;
* degradation is physically sensible: monotone latency/energy inflation
  with severity, monotone mission completion under brownout.
"""

import json

import numpy as np
import pytest

import repro.obs as obs
from repro.closedloop import FlappingWingRunner, HoverMission
from repro.core.config import HarnessConfig
from repro.core.experiment import SweepSpec, run_sweep_serial
from repro.datasets import imu
from repro.engine import run_sweep_engine
from repro.faults import (
    FaultCampaignSpec,
    build_report,
    corrupt_sequence,
    corrupt_trace,
    fault_names,
    get_fault,
    make_edge_filter,
    render_report,
    run_campaign,
    save_report,
)
from repro.faults.campaign import (
    mission_cell,
    plan_mission_cells,
    run_mission_job,
)
from repro.faults.power import battery_voltage_frac
from repro.instrumentation.gpio import GpioBus
from repro.instrumentation.logic_analyzer import LogicAnalyzer
from repro.instrumentation.power_monitor import CurrentTrace, PowerMonitor
from repro.mcu.arch import M33, get_arch
from repro.mcu.cache import CACHE_ON


def _fly_cell(fault, mission, arch, severity, seed):
    """Fly one fault-campaign mission cell in-process: (result, events)."""
    return run_mission_job(mission_cell(fault, mission, arch, severity, seed))


class TestRegistry:
    def test_known_faults_registered(self):
        names = fault_names()
        for expected in ("brownout", "battery", "dvfs", "cpi-storm",
                         "overrun-storm", "imu-dropout", "probe-noise"):
            assert expected in names

    def test_unknown_fault_lists_available(self):
        with pytest.raises(KeyError, match="brownout"):
            get_fault("does-not-exist")

    def test_severity_validation(self):
        with pytest.raises(ValueError):
            get_fault("brownout").derate_arch(M33, 1.5)


class TestArchDerating:
    def test_severity_zero_returns_base_arch_object(self):
        # Identity, not equality: the engine keys cells by arch name, and
        # the no-fault path must be indistinguishable from no fault at all.
        for name in ("brownout", "battery", "dvfs", "cpi-storm"):
            assert get_fault(name).derate_arch(M33, 0.0) is M33

    def test_brownout_throttling_monotone_in_severity(self):
        fault = get_fault("brownout")
        clocks = [fault.derate_arch(M33, s).clock_hz
                  for s in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert all(a >= b for a, b in zip(clocks, clocks[1:]))
        assert clocks[-1] < clocks[0]  # deep sag really throttles

    def test_brownout_raises_power_floor_and_shrinks_budget(self):
        fault = get_fault("brownout")
        idle = [fault.derate_arch(M33, s).power.idle_mw for s in (0.0, 0.5, 1.0)]
        budgets = [fault.peak_budget_w(M33, s) for s in (0.0, 0.5, 1.0)]
        assert idle[0] < idle[1] < idle[2]
        assert budgets[0] > budgets[1] > budgets[2]

    def test_cpi_storm_inflates_cycles_not_power(self):
        fault = get_fault("cpi-storm")
        derated = fault.derate_arch(M33, 0.5)
        assert derated.cpi_scale > 1.0
        assert derated.power == M33.power
        assert derated.clock_hz == M33.clock_hz

    def test_battery_curve_monotone_with_knee(self):
        depths = np.linspace(0.0, 1.0, 21)
        volts = [battery_voltage_frac(d) for d in depths]
        assert all(a >= b for a, b in zip(volts, volts[1:]))
        # The knee: the last 20 % of discharge loses more voltage than the
        # first 80 % combined.
        assert (volts[16] - volts[20]) > (volts[0] - volts[16])


class TestNoFaultBitIdentity:
    def test_severity_zero_sweep_matches_serial_driver(self):
        spec = SweepSpec(
            kernels=["mahony"],
            archs=[get_fault("brownout").derate_arch(M33, 0.0)],
            caches=(CACHE_ON,),
            config=HarnessConfig(reps=1, warmup_reps=0),
        )
        engine = run_sweep_engine(spec)
        serial = run_sweep_serial(SweepSpec(
            kernels=["mahony"], archs=[M33], caches=(CACHE_ON,),
            config=HarnessConfig(reps=1, warmup_reps=0),
        ))
        a = engine.get("mahony", "m33")
        b = serial.get("mahony", "m33")
        for run_a, run_b in zip(a.runs, b.runs):
            assert run_a.cycles == run_b.cycles
            assert run_a.latency_s == run_b.latency_s
            assert run_a.energy_j == run_b.energy_j
            assert run_a.peak_power_w == run_b.peak_power_w

    def test_runner_without_hook_bit_identical(self):
        base = FlappingWingRunner(arch=M33).run(HoverMission())
        hooked = FlappingWingRunner(arch=M33, fault_hook=None).run(HoverMission())
        assert base.path_error_rms_m == hooked.path_error_rms_m
        assert base.compute_energy_j == hooked.compute_energy_j
        assert base.effective_rate_hz == hooked.effective_rate_hz

    def test_severity_zero_mission_cell_matches_plain_runner(self):
        result, events = _fly_cell("brownout", "hover", "m33", 0.0, 99)
        plain = FlappingWingRunner(arch=M33).run(HoverMission())
        assert result.path_error_rms_m == plain.path_error_rms_m
        assert result.compute_energy_j == plain.compute_energy_j
        assert result.fault_events == 0 and events == []


class TestSensorFaults:
    def test_corrupt_sequence_deterministic_per_seed(self):
        seq = imu.load("bee-hover", n=120, seed=0)
        a = corrupt_sequence(seq, "dropout", 0.6, seed=7)
        b = corrupt_sequence(seq, "dropout", 0.6, seed=7)
        c = corrupt_sequence(seq, "dropout", 0.6, seed=8)
        np.testing.assert_array_equal(a.gyro, b.gyro)
        assert not np.array_equal(a.gyro, c.gyro)

    def test_dropout_count_monotone_in_severity(self):
        seq = imu.load("bee-hover", n=200, seed=0)
        held = []
        for severity in (0.2, 0.5, 0.9):
            out = corrupt_sequence(seq, "dropout", severity, seed=3)
            held.append(int((out.gyro[1:] == out.gyro[:-1]).all(axis=1).sum()))
        assert held[0] < held[1] < held[2]

    def test_severity_zero_returns_same_sequence(self):
        seq = imu.load("bee-hover", n=50, seed=0)
        assert corrupt_sequence(seq, "dropout", 0.0, seed=1) is seq

    def test_truth_untouched_by_corruption(self):
        seq = imu.load("bee-hover", n=80, seed=0)
        out = corrupt_sequence(seq, "bias", 1.0, seed=2)
        np.testing.assert_array_equal(out.truth, seq.truth)
        assert not np.array_equal(out.gyro, seq.gyro)


class TestProbeFaults:
    def _trace(self, n=1000):
        rng = np.random.default_rng(0)
        times = np.arange(n) * 1e-5
        current = 0.01 + 0.002 * rng.random(n)
        return CurrentTrace(times, current, 3.3)

    def test_corrupt_trace_drops_and_saturates(self):
        trace = self._trace()
        out = corrupt_trace(trace, 0.8, np.random.default_rng(1))
        assert len(out) < len(trace)
        assert out.current_a.max() < trace.current_a.max()

    def test_corrupt_trace_severity_zero_identity(self):
        trace = self._trace()
        assert corrupt_trace(trace, 0.0, np.random.default_rng(1)) is trace

    def test_power_monitor_explicit_rng_reproducible(self):
        def capture(rng):
            mon = PowerMonitor(rng=rng)
            mon.arm()

            class Trigger:
                pin, state, time_s = "trigger", True, 0.0

            mon.on_gpio(Trigger())
            mon.add_segment(0.0, 1e-3, 0.05, 0.08)
            return mon.capture()

        a = capture(np.random.default_rng(11))
        b = capture(np.random.default_rng(11))
        c = capture(np.random.default_rng(12))
        np.testing.assert_array_equal(a.current_a, b.current_a)
        assert not np.array_equal(a.current_a, c.current_a)

    def test_logic_analyzer_edge_filter_drops_edges(self):
        def run(edge_filter):
            bus = GpioBus()
            la = LogicAnalyzer(bus, edge_filter=edge_filter)
            la.start()
            for i in range(200):
                bus.write("roi", i % 2 == 0, i * 1e-6)
            return len(la.edges)

        full = run(None)
        faulted = run(make_edge_filter(0.9, seed=4))
        assert faulted < full


class TestMissionFaults:
    def test_hover_completion_monotone_in_brownout_severity(self):
        completed = []
        for severity in (0.0, 0.5, 1.0):
            result, _ = _fly_cell("brownout", "hover", "m33", severity, 123)
            completed.append(result.completed)
        # Completion only ever degrades with severity, and a full-depth
        # brownout crosses the reset threshold and kills the flight.
        assert all(a >= b for a, b in zip(completed, completed[1:]))
        assert completed[0] is True
        assert completed[-1] is False

    def test_brownout_reset_reports_failure_forensics(self):
        result, events = _fly_cell("brownout", "hover", "m33", 1.0, 123)
        assert result.aborted_by == "brownout_reset"
        assert result.time_to_failure_s is not None
        assert 0.0 < result.time_to_failure_s < HoverMission().duration_s
        assert result.energy_to_abort_j > 0.0
        assert any(e["kind"] == "brownout_reset" for e in events)

    def test_overrun_storm_inflates_latency_and_slows_loop(self):
        calm, _ = _fly_cell("overrun-storm", "hover", "m0plus", 0.0, 5)
        storm, _ = _fly_cell("overrun-storm", "hover", "m0plus", 1.0, 5)
        assert storm.worst_latency_s > 2.0 * calm.worst_latency_s
        assert storm.effective_rate_hz < calm.effective_rate_hz
        assert storm.fault_events > 0

    def test_overrun_degraded_telemetry_emitted(self):
        _, metrics = obs.observe()
        try:
            result = FlappingWingRunner(arch=get_arch("m0plus")).run(
                HoverMission())
        finally:
            obs.unobserve()
        assert metrics.counter("mission.overruns") == result.overruns > 0


class TestCampaignDeterminism:
    SPEC = FaultCampaignSpec(
        fault="brownout",
        severities=(0.5, 1.0),
        missions=("hover",),
        kernels=("mahony",),
        archs=("m33",),
        seed=42,
    )

    def test_cell_seeds_stable_and_distinct(self):
        cells_a = plan_mission_cells(self.SPEC)
        cells_b = plan_mission_cells(self.SPEC)
        assert [c.seed for c in cells_a] == [c.seed for c in cells_b]
        assert len({c.seed for c in cells_a}) == len(cells_a)

    def test_report_byte_stable_across_runs_and_jobs(self, tmp_path):
        report_1 = build_report(run_campaign(self.SPEC, jobs=1))
        report_2 = build_report(run_campaign(self.SPEC, jobs=2))
        path_1 = save_report(report_1, tmp_path / "r1.json")
        path_2 = save_report(report_2, tmp_path / "r2.json")
        assert path_1.read_bytes() == path_2.read_bytes()

    def test_report_structure_and_scores(self):
        report = build_report(run_campaign(self.SPEC))
        assert report["fault"] == "brownout"
        assert report["severities"][0] == 0.0  # baseline always anchored
        assert len(report["missions"]) == 1
        assert len(report["kernels"]) == 1
        for entry in report["missions"] + report["kernels"]:
            assert 0.0 <= entry["resilience_score"] <= 1.0
        assert report["missions"][0]["first_failing_severity"] == 1.0
        assert 0.0 <= report["overall_resilience_score"] <= 1.0
        json.dumps(report)  # report must be pure primitives

    def test_kernel_grid_monotone_degradation(self):
        report = build_report(run_campaign(FaultCampaignSpec(
            fault="cpi-storm", severities=(0.5, 1.0),
            kernels=("mahony",), archs=("m33",), seed=0,
        )))
        curve = report["kernels"][0]["curve"]
        latencies = [p["unit_latency_us"] for p in curve]
        energies = [p["unit_energy_uj"] for p in curve]
        assert latencies == sorted(latencies)
        assert latencies[0] < latencies[-1]
        assert energies[0] < energies[-1]

    def test_render_report_mentions_failure_point(self):
        text = render_report(build_report(run_campaign(self.SPEC)))
        assert "brownout" in text
        assert "fails at severity 1" in text
        assert "overall resilience score" in text
