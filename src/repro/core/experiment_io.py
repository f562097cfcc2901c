"""ExperimentIO: persistence for benchmark results and experiment logs.

The C++ framework's ``ExperimentIO`` moves data between host and MCU over
semihosting and lets problems buffer results on-device (``SavesResults``).
Here it persists sweeps: results serialize to JSON (full fidelity,
including operation traces) and CSV (one summary row per configuration,
convenient for plotting), and reload into the same dataclasses.  The
execution engine additionally writes per-sweep telemetry summaries (cache
hit rate, cells run/skipped, wall time) next to the experiment output
through this module.  Solved kernel profiles persist in the engine's
trace cache instead (:mod:`repro.engine.trace_cache`), which is also how
a killed sweep resumes: rerun it with the same ``cache_dir``.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import List, Union

from repro.core.experiment import SweepResults
from repro.core.results import BenchmarkResult, RunRecord
from repro.mcu.ops import OpTrace

PathLike = Union[str, Path]

_FORMAT_VERSION = 1


def _run_to_dict(run: RunRecord) -> dict:
    return {
        "rep": run.rep,
        "cycles": run.cycles,
        "latency_s": run.latency_s,
        "energy_j": run.energy_j,
        "avg_power_w": run.avg_power_w,
        "peak_power_w": run.peak_power_w,
        "trace": run.trace.as_dict(),
        "valid": run.valid,
    }


def _run_from_dict(data: dict) -> RunRecord:
    return RunRecord(
        rep=data["rep"],
        cycles=data["cycles"],
        latency_s=data["latency_s"],
        energy_j=data["energy_j"],
        avg_power_w=data["avg_power_w"],
        peak_power_w=data["peak_power_w"],
        trace=OpTrace(**data["trace"]),
        valid=data["valid"],
    )


def result_to_dict(result: BenchmarkResult) -> dict:
    """Serialize one result with full per-run fidelity (public API)."""
    return {
        "kernel": result.kernel,
        "arch": result.arch,
        "cache": result.cache,
        "scalar": result.scalar,
        "dataset": result.dataset,
        "stage": result.stage,
        "fits": result.fits,
        "skip_reason": result.skip_reason,
        "work_units": result.work_units,
        "runs": [_run_to_dict(r) for r in result.runs],
    }


def result_from_dict(data: dict) -> BenchmarkResult:
    """Rebuild a result serialized by :func:`result_to_dict`."""
    result = BenchmarkResult(
        kernel=data["kernel"],
        arch=data["arch"],
        cache=data["cache"],
        scalar=data["scalar"],
        dataset=data["dataset"],
        stage=data["stage"],
        fits=data["fits"],
        skip_reason=data.get("skip_reason"),
        work_units=data.get("work_units", 1),
    )
    result.runs = [_run_from_dict(r) for r in data["runs"]]
    return result


def save_results_json(results: SweepResults, path: PathLike) -> Path:
    """Persist a sweep with full per-run fidelity."""
    path = Path(path)
    payload = {
        "format_version": _FORMAT_VERSION,
        "results": [result_to_dict(r) for r in results.results],
    }
    path.write_text(json.dumps(payload, indent=1))
    return path


def load_results_json(path: PathLike) -> SweepResults:
    """Reload a sweep saved by :func:`save_results_json`."""
    data = json.loads(Path(path).read_text())
    version = data.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported results format version {version!r} "
            f"(expected {_FORMAT_VERSION})"
        )
    out = SweepResults()
    for entry in data["results"]:
        out.add(result_from_dict(entry))
    return out


CSV_COLUMNS = [
    "kernel", "arch", "cache", "scalar", "dataset", "stage", "fits",
    "reps", "work_units", "cycles", "unit_cycles", "latency_us",
    "unit_latency_us", "energy_uj", "unit_energy_uj", "avg_power_mw",
    "peak_power_mw", "valid",
]


def save_results_csv(results: SweepResults, path: PathLike) -> Path:
    """One summary row per configuration — the plotting-friendly export."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for r in results.results:
            writer.writerow(
                {
                    "kernel": r.kernel,
                    "arch": r.arch,
                    "cache": r.cache,
                    "scalar": r.scalar,
                    "dataset": r.dataset,
                    "stage": r.stage,
                    "fits": r.fits,
                    "reps": len(r.runs),
                    "work_units": r.work_units,
                    "cycles": r.mean_cycles if r.runs else "",
                    "unit_cycles": r.unit_cycles if r.runs else "",
                    "latency_us": r.mean_latency_us if r.runs else "",
                    "unit_latency_us": r.unit_latency_us if r.runs else "",
                    "energy_uj": r.mean_energy_uj if r.runs else "",
                    "unit_energy_uj": r.unit_energy_uj if r.runs else "",
                    "avg_power_mw": r.mean_power_mw if r.runs else "",
                    "peak_power_mw": r.peak_power_mw if r.runs else "",
                    "valid": r.all_valid if r.runs else "",
                }
            )
    return path


def load_results_csv(path: PathLike) -> List[dict]:
    """Read back the CSV summary (as dicts; numbers remain strings)."""
    with Path(path).open(newline="") as fh:
        return list(csv.DictReader(fh))


# -- telemetry summaries ------------------------------------------------------


def save_telemetry_json(summary: dict, path: PathLike) -> Path:
    """Persist a sweep summary (``repro.engine.sweep_summary``) as a sidecar.

    Benchmark trajectories (``BENCH_*.json``) and CI can diff these across
    PRs to track engine performance: cache hit rate, cells run/skipped,
    solver wall time, estimated speedup over the serial driver.
    """
    path = Path(path)
    path.write_text(json.dumps(summary, indent=1, sort_keys=True))
    return path


def telemetry_path_for(out_path: PathLike) -> Path:
    """Conventional sidecar location: ``results.json`` -> ``results.telemetry.json``."""
    out_path = Path(out_path)
    return out_path.with_name(out_path.stem + ".telemetry.json")
