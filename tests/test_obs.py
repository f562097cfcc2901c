"""Tests for the observability layer (`repro.obs`).

Covers the contract the layer makes with the rest of the suite:

* span nesting, depth, and self-time accounting on a fake clock,
* zero-overhead disabled tracing (one shared no-op object, nothing
  recorded through a full engine sweep),
* Chrome trace-event export round-trips ``json.loads`` with only valid
  event types,
* metric aggregation is identical for ``--jobs 1`` and ``--jobs 4``,
* enabling observation never changes results (sweep and campaign output
  is byte-identical with tracing on, and so are mission results drawn
  over both runners, cores, rates, seeds and faults),
* mission traces are deterministic (byte-identical across runs),
* the ``repro trace`` / ``--trace`` / ``--metrics-out`` CLI surface.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.closedloop import HoverMission, SteeringCourse
from repro.core.config import HarnessConfig
from repro.core.experiment import SweepSpec
from repro.engine import EngineOptions, run_sweep_engine
from repro.mcu.arch import M4, M33
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.tracer import _NOOP_SPAN, Tracer

KERNELS = ["mahony", "p3p"]
OVERRIDES = {"mahony": {"n_samples": 40}}
FAST = HarnessConfig(reps=2, warmup_reps=1)


def small_spec():
    return SweepSpec(
        kernels=list(KERNELS),
        archs=[M4, M33],
        config=FAST,
        overrides=dict(OVERRIDES),
    )


#: Short missions by registered name, for drawn runs of either runner.
_SHORT_MISSIONS = {
    "hover": lambda: HoverMission(duration_s=0.05),
    "steer": lambda: SteeringCourse(duration_s=0.6),
}


@pytest.fixture(autouse=True)
def _restore_defaults():
    """Every test leaves the process-wide obs singletons disabled."""
    yield
    obs.unobserve()


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestTracer:
    def test_span_nesting_depth_and_self_time(self):
        clock = FakeClock()
        tracer = Tracer(enabled=True, clock=clock)
        with tracer.span("parent", cat="t"):
            clock.t = 1.0
            assert tracer.depth == 1
            with tracer.span("child", cat="t"):
                clock.t = 3.0
                assert tracer.depth == 2
            clock.t = 5.0
        assert tracer.depth == 0
        child, parent = tracer.spans  # children close (record) first
        assert child.name == "child" and parent.name == "parent"
        assert child.depth == 1 and parent.depth == 0
        assert child.dur_s == pytest.approx(2.0)
        assert child.self_s == pytest.approx(2.0)
        assert parent.dur_s == pytest.approx(5.0)
        assert parent.self_s == pytest.approx(3.0)  # 5.0 minus the child

    def test_span_args_and_set(self):
        tracer = Tracer(enabled=True, clock=FakeClock())
        with tracer.span("s", cat="t", kernel="p3p") as span:
            span.set(extra=7)
        assert tracer.spans[0].args == {"kernel": "p3p", "extra": 7}

    def test_add_span_uses_explicit_sim_times(self):
        tracer = Tracer(enabled=True, clock=FakeClock())
        tracer.add_span("step", 0.25, 0.75, cat="mission",
                        track="mission:hover", self_s=0.1, step=3)
        (span,) = tracer.spans
        assert span.t0_s == 0.25 and span.dur_s == pytest.approx(0.5)
        assert span.self_s == 0.1 and span.track == "mission:hover"

    def test_seq_is_monotone_record_order(self):
        tracer = Tracer(enabled=True, clock=FakeClock())
        for name in ("a", "b", "c"):
            with tracer.span(name):
                pass
        assert [s.seq for s in tracer.spans] == [0, 1, 2]

    def test_exceptions_propagate_and_still_record(self):
        tracer = Tracer(enabled=True, clock=FakeClock())
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("x")
        assert tracer.by_name("boom") and tracer.depth == 0


class TestDisabledIsFree:
    def test_disabled_span_is_one_shared_object(self):
        tracer = Tracer(enabled=False)
        spans = [tracer.span("a"), tracer.span("b", cat="x", k=1)]
        assert spans[0] is spans[1] is _NOOP_SPAN
        with spans[0]:
            pass
        assert tracer.spans == [] and tracer.instants == []

    def test_default_tracer_is_disabled(self):
        assert obs.get_tracer() is obs.NULL_TRACER
        assert not obs.get_tracer().enabled
        assert not obs.get_metrics().enabled

    def test_sweep_with_defaults_records_nothing(self):
        """The solve/price hot path adds no events while obs is off."""
        tracer, metrics = obs.get_tracer(), obs.get_metrics()
        before = (len(tracer.spans), len(tracer.instants), len(metrics))
        run_sweep_engine(small_spec())
        assert (len(tracer.spans), len(tracer.instants), len(metrics)) == before
        assert tracer.spans == []

    def test_disabled_recording_methods_are_noops(self):
        tracer = Tracer(enabled=False)
        tracer.add_span("x", 0.0, 1.0)
        tracer.instant("x")
        tracer.counter("x", 1.0)
        assert not tracer.spans and not tracer.instants and not tracer.counters
        registry = MetricsRegistry(enabled=False)
        registry.inc("c")
        registry.set_gauge("g", 1)
        registry.observe("h", 1.0)
        assert len(registry) == 0


class TestMetrics:
    def test_counter_gauge_histogram(self):
        m = MetricsRegistry()
        m.inc("hits")
        m.inc("hits", 2)
        m.set_gauge("jobs", 4)
        for v in (0.5, 1.5, 2.0):
            m.observe("lat", v)
        assert m.counter("hits") == 3
        assert m.gauge("jobs") == 4
        h = m.histogram("lat")
        assert h.count == 3 and h.mean == pytest.approx(4.0 / 3)
        assert h.min == 0.5 and h.max == 2.0

    def test_histogram_merge_and_roundtrip(self):
        a, b = Histogram(), Histogram()
        for v in (0.1, 10.0):
            a.observe(v)
        b.observe(1.0)
        a.merge(b)
        assert a.count == 3 and a.sum == pytest.approx(11.1)
        again = Histogram.from_dict(a.as_dict())
        assert again.as_dict() == a.as_dict()

    def test_registry_merge_dict_roundtrip(self):
        m = MetricsRegistry()
        m.inc("c", 2)
        m.set_gauge("g", 7)
        m.observe("h", 3.0)
        other = MetricsRegistry.from_dict(m.as_dict())
        other.merge(m)
        assert other.counter("c") == 4
        assert other.histogram("h").count == 2

    def test_as_dict_sections_sorted(self):
        m = MetricsRegistry()
        for name in ("z", "a", "k"):
            m.inc(name)
        assert list(m.as_dict()["counters"]) == ["a", "k", "z"]


class TestChromeExport:
    def test_round_trips_json_loads_with_valid_events(self, tmp_path):
        tracer, _ = obs.observe()
        run_sweep_engine(small_spec())
        doc = obs.to_chrome_trace(tracer)
        parsed = json.loads(json.dumps(doc))
        events = parsed["traceEvents"]
        assert events, "a traced sweep must produce events"
        assert {e["ph"] for e in events} <= {"M", "X", "i", "C"}
        for e in events:
            if e["ph"] == "X":
                assert isinstance(e["ts"], (int, float))
                assert e["dur"] >= 0
                assert isinstance(e["pid"], int) and isinstance(e["tid"], int)
        path = obs.save_chrome_trace(tracer, tmp_path / "t.json")
        assert json.loads(path.read_text())["traceEvents"]

    def test_phase_report_lists_hottest_first(self):
        clock = FakeClock()
        tracer = Tracer(enabled=True, clock=clock)
        with tracer.span("slow"):
            clock.t = 2.0
        with tracer.span("fast"):
            clock.t = 2.5
        report = obs.phase_report(tracer)
        assert report.index("slow") < report.index("fast")
        assert "2 spans" in report

    def test_metrics_jsonl_one_sorted_line_per_metric(self, tmp_path):
        m = MetricsRegistry()
        m.inc("b")
        m.inc("a")
        m.observe("h", 1.0)
        path = obs.save_metrics_jsonl(m, tmp_path / "m.jsonl")
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [l["metric"] for l in lines] == ["a", "b", "h"]


def _strip_nondeterministic(metrics_dict):
    """Drop wall-clock histograms and config gauges before comparison."""
    d = json.loads(json.dumps(metrics_dict))
    d["histograms"] = {
        k: v for k, v in d["histograms"].items() if not k.endswith("wall_s")
    }
    d.pop("gauges", None)
    return d


class TestDeterminism:
    def test_sweep_results_identical_with_tracing_on(self, tmp_path):
        plain = run_sweep_engine(small_spec())
        obs.observe()
        traced = run_sweep_engine(small_spec())
        assert traced.results == plain.results

    def test_sweep_metrics_identical_jobs_1_vs_4(self, tmp_path):
        dumps = []
        for jobs in (1, 4):
            _, metrics = obs.observe()
            run_sweep_engine(
                small_spec(),
                options=EngineOptions(jobs=jobs, cache_dir=tmp_path / str(jobs)),
            )
            dumps.append(_strip_nondeterministic(metrics.as_dict()))
            obs.unobserve()
        assert dumps[0] == dumps[1]

    def test_campaign_metrics_identical_jobs_1_vs_4(self):
        from repro.faults import FaultCampaignSpec, run_campaign

        spec = FaultCampaignSpec(
            fault="brownout", severities=(0.5,), missions=("hover",), seed=3
        )
        dumps, grids = [], []
        for jobs in (1, 4):
            _, metrics = obs.observe()
            out = run_campaign(spec, options=EngineOptions(jobs=jobs))
            dumps.append(_strip_nondeterministic(metrics.as_dict()))
            grids.append(out.mission_grid)
            obs.unobserve()
        assert dumps[0] == dumps[1]
        assert grids[0] == grids[1]

    def test_mission_trace_bytes_identical_across_runs(self):
        from repro.closedloop import FlappingWingRunner, HoverMission
        from repro.mcu.arch import get_arch

        blobs = []
        for _ in range(2):
            tracer, _ = obs.observe()
            FlappingWingRunner(arch=get_arch("m33")).run(HoverMission())
            sim_only = [
                e for e in obs.to_chrome_trace(tracer)["traceEvents"]
                if e["ph"] != "M"
            ]
            blobs.append(json.dumps(sim_only, sort_keys=True))
            obs.unobserve()
        assert blobs[0] == blobs[1]

    @settings(max_examples=20, deadline=None)
    @given(
        kind=st.sampled_from(sorted(_SHORT_MISSIONS)),
        arch=st.sampled_from(["m0plus", "m4", "m33", "m7", "rv32imafc"]),
        rate_scale=st.floats(0.25, 2.0),
        seed=st.integers(0, 2**16),
        fault=st.sampled_from([None, "brownout", "imu-dropout",
                               "overrun-storm"]),
        severity=st.floats(0.1, 1.0),
    )
    def test_mission_result_identical_with_tracing_on(
        self, kind, arch, rate_scale, seed, fault, severity
    ):
        from repro.closedloop import mission_entry
        from repro.closedloop.runner import RUNNER_CLASSES
        from repro.faults import get_fault
        from repro.mcu.arch import get_arch

        mission = _SHORT_MISSIONS[kind]()
        entry = mission_entry(kind)
        rate = entry.control_rate_hz * rate_scale

        def runner():
            hook = None
            if fault is not None:
                hook = get_fault(fault).mission_hook(
                    severity, seed, mission.duration_s, 1.0 / rate)
            return RUNNER_CLASSES[entry.runner](
                arch=get_arch(arch), control_rate_hz=rate, seed=seed,
                fault_hook=hook)

        plain_runner = runner()
        plain = plain_runner.run(mission)
        obs.observe()
        try:
            traced = runner().run(mission)
        finally:
            obs.unobserve()
        assert traced == plain
        if fault is None:
            # Per-mission state lives in run(): a second flight is the same.
            assert plain_runner.run(mission) == plain


class TestCli:
    def test_trace_mission_prints_phase_report(self, capsys):
        from repro.cli import main

        assert main(["trace", "mission", "hover"]) == 0
        out = capsys.readouterr().out
        assert "phase report" in out
        assert "mission.control" in out and "mission.estimate" in out

    def test_trace_sweep_writes_valid_chrome_trace(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "sweep.trace.json"
        cache = tmp_path / "cache"
        argv = ["trace", "sweep", "--kernels", "mahony", "--archs", "m33",
                "--cache-dir", str(cache), "--trace", str(trace)]
        assert main(argv) == 0
        # Second run hits the warm trace cache and must still export.
        assert main(argv) == 0
        doc = json.loads(trace.read_text())
        names = {e.get("name") for e in doc["traceEvents"]}
        assert "engine.sweep" in names
        assert "engine.cache_hit" in names  # the warm-cache run
        assert "phase report" in capsys.readouterr().out

    def test_sweep_trace_flag_leaves_output_identical(self, tmp_path, capsys):
        from repro.cli import main

        base = ["sweep", "--kernels", "mahony", "--archs", "m33",
                "--out", str(tmp_path / "r.json")]
        assert main(base) == 0
        plain = (tmp_path / "r.json").read_bytes()
        assert main(base + ["--trace", str(tmp_path / "t.json"),
                            "--metrics-out", str(tmp_path / "m.jsonl")]) == 0
        assert (tmp_path / "r.json").read_bytes() == plain
        assert json.loads((tmp_path / "t.json").read_text())["traceEvents"]
        assert (tmp_path / "m.jsonl").read_text().strip()

    def test_mission_metrics_out(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "m.jsonl"
        assert main(["mission", "steer", "--metrics-out", str(path)]) == 0
        metrics = {json.loads(l)["metric"] for l in path.read_text().splitlines()}
        assert "mission.steps" in metrics and "mission.runs" in metrics
