"""Scenario-subsystem bench: generation throughput and campaign scaling.

Seeds the repo's first perf baseline, ``BENCH_scenarios.json`` at the
repo root: Tier-B generation throughput (scenarios/s), campaign
wall-time at ``--jobs 1`` vs ``--jobs 4``, and the kernel-grid cache hit
counts.  Re-running the bench overwrites the baseline, so perf drift in
the generator or the campaign executor shows up as a diff.
"""

import json
import time
from pathlib import Path

from repro.api import EngineOptions, generate_scenarios, run_scenarios

BASELINE = Path(__file__).parent.parent / "BENCH_scenarios.json"

GEN_COUNT = 300
CAMPAIGN_COUNT = 12
SEED = 42


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_scenarios_bench(benchmark, save_artifact):
    """Generation throughput + campaign wall-time, one JSON baseline."""
    _, gen_s = _timed(
        lambda: generate_scenarios(tier="b", count=GEN_COUNT, seed=SEED)
    )
    sset = generate_scenarios(tier="b", count=CAMPAIGN_COUNT, seed=SEED)

    serial = benchmark.pedantic(
        lambda: _timed(lambda: run_scenarios(sset, EngineOptions(jobs=1))),
        rounds=1, iterations=1,
    )
    serial_report, serial_s = serial
    pooled_report, pooled_s = _timed(
        lambda: run_scenarios(sset, EngineOptions(jobs=4)))

    # The scaling knob must not change the answer.
    assert json.dumps(serial_report, sort_keys=True) == \
        json.dumps(pooled_report, sort_keys=True)

    cache = serial_report["cache_stats"]
    baseline = {
        "generation": {
            "count": GEN_COUNT,
            "seed": SEED,
            "wall_s": round(gen_s, 4),
            "scenarios_per_s": round(GEN_COUNT / gen_s, 1),
        },
        "campaign": {
            "count": CAMPAIGN_COUNT,
            "seed": SEED,
            "address": serial_report["address"],
            "kernel_cells": serial_report["counts"]["kernel_cells"],
            "mission_jobs": serial_report["counts"]["mission_jobs"],
            "wall_s_jobs1": round(serial_s, 3),
            "wall_s_jobs4": round(pooled_s, 3),
        },
        "cache": {
            "memory_hits": cache["memory_hits"],
            "disk_hits": cache["disk_hits"],
            "misses": cache["misses"],
        },
    }
    BASELINE.write_text(
        json.dumps(baseline, indent=2, sort_keys=True) + "\n"
    )
    save_artifact("scenarios_bench", json.dumps(baseline, indent=2,
                                                sort_keys=True))

    assert baseline["generation"]["scenarios_per_s"] > 50
    assert baseline["campaign"]["kernel_cells"] > 0
    assert baseline["campaign"]["mission_jobs"] > 0
