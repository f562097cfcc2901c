"""Columnar-pricer bench: Table IV pricing speedup.

Seeds ``BENCH_vecprice.json`` at the repo root with the full Table IV
pricing grid (every suite kernel x every characterization core of both
ISAs x cache on/off) priced through ``repro.api.price_batch`` with
``vectorize=True`` vs the serial per-cell reference
(``vectorize=False``).  Wall time is best-of-N on warm traces so only
the price stage is measured; the headline is the vectorized speedup
(the ROADMAP target is >= 10x).

Byte-identity is asserted on every run — the vectorized and serial
results must serialize identically, and the Table IV text rendered from
the engine's sweep must equal the text rendered from the serial
re-price — so the bench doubles as an equivalence smoke test.  CI runs
``python benchmarks/bench_vecprice.py --quick`` (a reduced grid with a
5x regression gate); a full run regenerates the committed baseline.
"""

import argparse
import dataclasses
import json
import time
from pathlib import Path

from repro.analysis import tables
from repro.api import (
    EngineOptions,
    SweepResults,
    SweepSpec,
    TraceCache,
    price_batch,
    sweep,
)
from repro.backends import characterization_archs
from repro.core.config import HarnessConfig
from repro.mcu.cache import CACHE_OFF, CACHE_ON

BASELINE = Path(__file__).parent.parent / "BENCH_vecprice.json"

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


def _grid(quick: bool):
    """(kernels, archs) for the requested mode."""
    archs = list(characterization_archs())
    if quick:
        by_name = {a.name: a for a in archs}
        return QUICK_KERNELS, [by_name[n] for n in QUICK_ARCH_NAMES]
    return list(tables.TABLE_KERNELS) + ["proximity-net-int8"], archs


def _solve_items(kernels, archs):
    """Warm a trace cache with one sweep; expand profiles to price items."""
    cache = TraceCache()
    spec = SweepSpec(
        kernels=kernels,
        archs=archs,
        caches=(CACHE_ON, CACHE_OFF),
        config=HarnessConfig(reps=REPS, warmup_reps=0),
        overrides={k: v for k, v in OVERRIDES.items() if k in kernels},
    )
    sweep(spec, options=EngineOptions(trace_cache=cache))
    profiles = list(cache.profiles().values())
    items = [
        (profile, arch, cache_cfg)
        for profile in profiles
        for arch in archs
        for cache_cfg in (CACHE_ON, CACHE_OFF)
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


def _micro(quick: bool) -> dict:
    """Table IV pricing: batched vs serial on identical warm traces."""
    kernels, archs = _grid(quick)
    spec, cache, items = _solve_items(kernels, archs)

    vectorized, vec_s = _best_of(
        lambda: price_batch(items, vectorize=True), TIMING_ROUNDS
    )
    serial, ser_s = _best_of(
        lambda: price_batch(items, vectorize=False), TIMING_ROUNDS
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
            "archs": [a.name for a in archs],
            "cache_states": 2,
            "reps": REPS,
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


def run_bench(quick: bool = False, write: bool = True) -> dict:
    baseline = {
        "mode": "quick" if quick else "full",
        "micro_table4_pricing": _micro(quick),
    }
    if write:
        BASELINE.write_text(
            json.dumps(baseline, indent=2, sort_keys=True) + "\n"
        )
    return baseline


def test_vecprice_bench(benchmark, save_artifact):
    """Quick-grid speedup gate + byte-identity, artifact for trending.

    Does not touch the committed ``BENCH_vecprice.json`` — only a full
    script run (``python benchmarks/bench_vecprice.py``) reseeds it.
    """
    baseline = benchmark.pedantic(
        lambda: run_bench(quick=True, write=False), rounds=1, iterations=1
    )
    save_artifact(
        "vecprice_bench", json.dumps(baseline, indent=2, sort_keys=True)
    )
    micro = baseline["micro_table4_pricing"]
    assert micro["byte_identical"] and micro["table4_text_identical"]
    # Regression gate: full-grid runs land >= 10x; the reduced grid on a
    # noisy worker must still clear 5x.
    assert micro["speedup"] >= 5.0, micro


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced grid + 5x gate (the CI smoke mode)",
    )
    args = parser.parse_args()
    result = run_bench(quick=args.quick)
    micro = result["micro_table4_pricing"]
    print(json.dumps(result, indent=2, sort_keys=True))
    print(f"wrote {BASELINE}")
    floor = 5.0 if args.quick else 10.0
    if micro["speedup"] < floor:
        raise SystemExit(
            f"speedup {micro['speedup']}x below the {floor}x floor"
        )
