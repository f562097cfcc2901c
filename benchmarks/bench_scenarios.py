"""Scenario-subsystem bench: generation throughput and campaign scaling.

The record ``benchmarks/run.py`` writes to
``benchmarks/BENCH_scenarios.json``: Tier-B generation throughput
(scenarios/s), campaign wall-time at ``--jobs 1`` vs ``--jobs 4``, and
the kernel-grid cache hit counts.  Its inputs carry the content address
of the campaign's scenario set, so generator drift shows up as a stale
record in tier-1.  Both modes run the same inputs.
"""

import json
import time

from repro.api import EngineOptions, generate_scenarios, run_scenarios

TIER = "b"
GEN_COUNT = 300
CAMPAIGN_COUNT = 12
SEED = 42
JOBS = (1, 4)


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _campaign_set():
    return generate_scenarios(tier=TIER, count=CAMPAIGN_COUNT, seed=SEED)


def inputs(quick: bool) -> dict:
    """Counts, seeds, job counts and the campaign set's address."""
    return {
        "tier": TIER,
        "generation": {"count": GEN_COUNT, "seed": SEED},
        "campaign": {
            "count": CAMPAIGN_COUNT,
            "seed": SEED,
            "jobs": list(JOBS),
            "address": _campaign_set().address,
        },
    }


def record(quick: bool) -> dict:
    """Time generation and the campaign at each job count; gate invariants."""
    _, gen_s = _timed(
        lambda: generate_scenarios(tier=TIER, count=GEN_COUNT, seed=SEED)
    )
    sset = _campaign_set()
    (serial_report, serial_s), (pooled_report, pooled_s) = (
        _timed(lambda: run_scenarios(sset, EngineOptions(jobs=jobs)))
        for jobs in JOBS
    )

    # The scaling knob must not change the answer.
    if json.dumps(serial_report, sort_keys=True) != \
            json.dumps(pooled_report, sort_keys=True):
        raise AssertionError("the campaign report differs across --jobs")

    cache = serial_report["cache_stats"]
    body = {
        "generation": {
            "wall_s": round(gen_s, 4),
            "scenarios_per_s": round(GEN_COUNT / gen_s, 1),
        },
        "campaign": {
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
    if not body["generation"]["scenarios_per_s"] > 50:
        raise AssertionError(f"generation below 50 scenarios/s: {body}")
    if not (body["campaign"]["kernel_cells"] > 0
            and body["campaign"]["mission_jobs"] > 0):
        raise AssertionError(f"the campaign ran no kernels or missions: {body}")
    return body


def test_scenarios_bench(benchmark, save_artifact):
    """Generation throughput + campaign wall-time, gates applied."""
    body = benchmark.pedantic(record, kwargs={"quick": True}, rounds=1)
    save_artifact("scenarios_bench", json.dumps(body, indent=2, sort_keys=True))
