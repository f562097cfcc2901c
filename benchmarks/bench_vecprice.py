"""Columnar-pricer bench: Table IV pricing speedup.

The record ``benchmarks/run.py`` writes to
``benchmarks/BENCH_vecprice.json`` covers the full Table IV pricing
grid (every suite kernel x every characterization core of both ISAs x
cache on/off) priced through ``repro.api.price_batch`` with
``vectorize=True`` vs the serial per-cell reference
(``vectorize=False``).  Wall time is best-of-N on warm traces so only
the price stage is measured; the headline is the vectorized speedup
(the ROADMAP target is >= 10x).

Byte-identity is asserted on every run — the vectorized and serial
results must serialize identically, and the Table IV text rendered from
the engine's sweep must equal the text rendered from the serial
re-price — so the bench doubles as an equivalence smoke test.  The
quick grid (6 kernels x 2 cores) is gated at a 5x speedup, the full
grid at 10x.
"""

import dataclasses
import json
import time

from repro.analysis import tables
from repro.api import (
    EngineOptions,
    SweepResults,
    SweepSpec,
    TraceCache,
    price_batch,
    sweep,
)
from repro.backends import characterization_archs, get_arch
from repro.core.config import HarnessConfig
from repro.mcu.cache import CACHE_OFF, CACHE_ON

#: Reduced sequence lengths (same as bench_table4_dynamic) keep the
#: one-time solve pass tractable; pricing cost is solve-independent.
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

#: --quick grid: enough kernels to cross every pricing regime (float,
#: int/branch, misfit, quantized CNN) on one core per ISA.
QUICK_KERNELS = [
    "fastbrief", "mahony", "p3p", "5pt", "bee-mpc", "proximity-net-int8",
]
QUICK_ARCH_NAMES = ("m4", "rv32imafc")

REPS = 3
TIMING_ROUNDS = 5
CACHES = (CACHE_ON, CACHE_OFF)


def inputs(quick: bool) -> dict:
    """The priced grid: kernels, cores, cache labels, reps, overrides."""
    if quick:
        kernels, archs = list(QUICK_KERNELS), list(QUICK_ARCH_NAMES)
    else:
        kernels = list(tables.TABLE_KERNELS) + ["proximity-net-int8"]
        archs = [arch.name for arch in characterization_archs()]
    return {
        "kernels": kernels,
        "archs": archs,
        "caches": [cache.label for cache in CACHES],
        "reps": REPS,
        "timing_rounds": TIMING_ROUNDS,
        "overrides": {k: v for k, v in OVERRIDES.items() if k in kernels},
    }


def _solve_items(grid: dict):
    """Warm a trace cache with one sweep; expand profiles to price items."""
    cache = TraceCache()
    archs = [get_arch(name) for name in grid["archs"]]
    spec = SweepSpec(
        kernels=grid["kernels"],
        archs=archs,
        caches=CACHES,
        config=HarnessConfig(reps=grid["reps"], warmup_reps=0),
        overrides=grid["overrides"],
    )
    sweep(spec, options=EngineOptions(trace_cache=cache))
    profiles = list(cache.profiles().values())
    items = [
        (profile, arch, cache_cfg)
        for profile in profiles
        for arch in archs
        for cache_cfg in CACHES
    ]
    return spec, cache, items


def _best_of(fn, rounds: int):
    """(result, best wall seconds) over ``rounds`` calls."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def _serialized(results) -> str:
    return json.dumps(
        [dataclasses.asdict(r) for r in results], sort_keys=True
    )


def _micro(grid: dict) -> dict:
    """Table IV pricing: batched vs serial on identical warm traces."""
    kernels, rounds = grid["kernels"], grid["timing_rounds"]
    spec, cache, items = _solve_items(grid)

    vectorized, vec_s = _best_of(
        lambda: price_batch(items, vectorize=True), rounds
    )
    serial, ser_s = _best_of(
        lambda: price_batch(items, vectorize=False), rounds
    )
    if _serialized(vectorized) != _serialized(serial):
        raise AssertionError(
            "vectorized pricing diverged from the serial reference"
        )

    # The rendered table must also match: the engine's sweep over the
    # warm cache against the serial re-price.
    engine = sweep(spec, options=EngineOptions(trace_cache=cache))
    if tables.render_table4(engine, kernels=kernels) != tables.render_table4(
        SweepResults(results=serial), kernels=kernels
    ):
        raise AssertionError(
            "Table IV text differs between the engine and the serial re-price"
        )

    priced = sum(1 for r in vectorized if r.fits)
    return {
        "grid": {
            "kernels": len(kernels),
            "archs": grid["archs"],
            "cache_states": len(grid["caches"]),
            "reps": grid["reps"],
            "cells": len(items),
            "priced_cells": priced,
        },
        "serial_wall_s": round(ser_s, 5),
        "vectorized_wall_s": round(vec_s, 5),
        "serial_us_per_cell": round(ser_s / len(items) * 1e6, 2),
        "vectorized_us_per_cell": round(vec_s / len(items) * 1e6, 2),
        "speedup": round(ser_s / vec_s, 2),
        "byte_identical": True,
        "table4_text_identical": True,
    }


def record(quick: bool) -> dict:
    """Price the grid both ways; raise on any diff or a slow batch path.

    The floor is 5x on the quick grid and 10x on the full grid.
    """
    micro = _micro(inputs(quick))
    floor = 5.0 if quick else 10.0
    if micro["speedup"] < floor:
        raise AssertionError(
            f"speedup {micro['speedup']}x below the {floor}x floor"
        )
    return {"micro_table4_pricing": micro}


def test_vecprice_bench(benchmark, save_artifact):
    """Quick-grid speedup gate + byte-identity, artifact for trending."""
    body = benchmark.pedantic(record, kwargs={"quick": True}, rounds=1)
    save_artifact("vecprice_bench", json.dumps(body, indent=2, sort_keys=True))
