"""Tests for ExperimentIO (JSON/CSV persistence of sweeps)."""

import json

import pytest

from repro.core.config import HarnessConfig
from repro import api
from repro.api import SweepSpec
from repro.core.experiment_io import (
    load_results_csv,
    load_results_json,
    save_results_csv,
    save_results_json,
)
from repro.mcu.arch import M4


@pytest.fixture(scope="module")
def sweep():
    spec = SweepSpec(
        kernels=["mahony", "fly-lqr"],
        archs=[M4],
        config=HarnessConfig(reps=2, warmup_reps=0),
        overrides={"mahony": {"n_samples": 50}, "fly-lqr": {"n_steps": 50}},
    )
    return api.sweep(spec)


class TestJsonRoundtrip:
    def test_roundtrip_preserves_everything(self, sweep, tmp_path):
        path = save_results_json(sweep, tmp_path / "results.json")
        again = load_results_json(path)
        assert len(again) == len(sweep)
        for orig in sweep.results:
            loaded = again.get(orig.kernel, orig.arch, orig.cache)
            assert loaded is not None
            assert loaded.mean_cycles == orig.mean_cycles
            assert loaded.mean_energy_j == orig.mean_energy_j
            assert loaded.work_units == orig.work_units
            assert loaded.runs[0].trace.as_dict() == orig.runs[0].trace.as_dict()

    def test_format_version_checked(self, sweep, tmp_path):
        path = save_results_json(sweep, tmp_path / "results.json")
        data = json.loads(path.read_text())
        data["format_version"] = 99
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="format version"):
            load_results_json(path)


class TestCsvExport:
    def test_one_row_per_configuration(self, sweep, tmp_path):
        path = save_results_csv(sweep, tmp_path / "results.csv")
        rows = load_results_csv(path)
        assert len(rows) == len(sweep)
        assert {r["kernel"] for r in rows} == {"mahony", "fly-lqr"}

    def test_summary_values_match(self, sweep, tmp_path):
        path = save_results_csv(sweep, tmp_path / "results.csv")
        rows = load_results_csv(path)
        row = next(r for r in rows if r["kernel"] == "mahony" and r["cache"] == "C")
        orig = sweep.get("mahony", "m4", "C")
        assert float(row["unit_latency_us"]) == pytest.approx(orig.unit_latency_us)
        assert row["valid"] == "True"
        assert int(row["reps"]) == 2
