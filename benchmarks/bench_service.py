"""Service-tier bench: spill invariance, latency ladder, tiers, overload.

The record ``benchmarks/run.py`` writes to
``benchmarks/BENCH_service.json`` holds four figures for the
admission-controlled query service (see ``docs/service.md``):

* **identity** — the headline invariant: a 64-query characterize burst
  answered through a :class:`repro.api.ShardPool` must be byte-identical
  to the serial broker reference with the L2 disk spill enabled and
  disabled.  Any diff is a hard failure.
* **latency** — p50/p99 request latency and aggregate QPS measured over
  TCP with 1, 8, and 64 concurrent clients (quick: 1 and 8, at 25
  rather than 40 requests per client) against a warm pool, so the
  figure isolates service overhead (framing, event loop, admission, L1
  hits) rather than solve time.
* **tiers** — a capacity-2 L1 in front of a disk spill, swept with 8
  distinct cells twice: round two must be served from L2 (nonzero L2
  hit and promotion counts prove the eviction→spill→promote path).
* **overload** — a one-slot pool pinned mid-batch while probes arrive
  over the wire: every probe must shed with a well-formed structured
  ``service-overloaded`` record (positive ``retry_after``), and the
  pool must serve again once the slot frees.

Byte-identity and shed well-formedness are asserted on every run, so
the bench doubles as an end-to-end smoke test.
"""

import json
import tempfile
import threading
import time
from dataclasses import asdict
from pathlib import Path

from repro.api import (
    CharacterizeQuery,
    ServiceBroker,
    ServiceClient,
    ServiceServer,
    ShardPool,
    query,
)
from repro.core.config import HarnessConfig

#: One rep, no warmup, shrunk sequences: answers stay exact and solves
#: stay small, so the bench measures the service tier, not the engine.
CONFIG = HarnessConfig(reps=1, warmup_reps=0)
OVERRIDES = {"*": {"n_samples": 40}}

KERNELS = ("mahony", "madgwick")
ARCH_NAMES = ("m4", "m33")
CACHE_LABELS = ("C", "NC")

BURST_REPEATS = 8  # 8 distinct cells x 8 = the documented 64-query burst


def _cells():
    """The 8 distinct characterize cells every phase sweeps."""
    return [
        CharacterizeQuery(kernel=k, arch=a, cache=c)
        for k in KERNELS for a in ARCH_NAMES for c in CACHE_LABELS
    ]


def _wire(cell) -> dict:
    """The raw wire request for one characterize cell."""
    return {
        "op": "characterize",
        "kernel": cell.kernel,
        "arch": cell.arch,
        "cache": cell.cache,
    }


def inputs(quick: bool) -> dict:
    """Cells, config, overrides, burst repeats and the client ladder."""
    return {
        "cells": [_wire(cell) for cell in _cells()],
        "config": asdict(CONFIG),
        "overrides": OVERRIDES,
        "burst_repeats": BURST_REPEATS,
        "ladder": {
            "clients": [1, 8] if quick else [1, 8, 64],
            "requests_per_client": 25 if quick else 40,
        },
    }


def _rendered(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile of an unsorted sample."""
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


# ----------------------------------------------------------- the phases


def _identity(spill_root: Path) -> dict:
    """64-query burst vs the serial broker at both spill states."""
    cells = _cells()
    burst = cells * BURST_REPEATS

    with ServiceBroker(config=CONFIG, overrides=OVERRIDES) as serial:
        reference = [
            _rendered(query(cell, broker=serial)) for cell in cells
        ]

    diffs = 0
    spill_states = [False, True]
    for spill in spill_states:
        # capacity < distinct cells so the spill run really evicts and
        # re-loads answers through L2 mid-burst.
        with ShardPool(
            config=CONFIG,
            overrides=OVERRIDES,
            capacity=4,
            spill_dir=spill_root / "spill" if spill else None,
        ) as pool:
            answers = pool.ask_many(burst, timeout=600)
        diffs += sum(
            1
            for i, payload in enumerate(answers)
            if _rendered(payload) != reference[i % len(cells)]
        )

    return {
        "burst_queries": len(burst),
        "distinct_cells": len(cells),
        "spill_states": spill_states,
        "byte_diffs": diffs,
        "byte_identical": diffs == 0,
    }


def _client_rounds(address, requests, latencies, barrier):
    """One client thread: connect, sync on the barrier, time each ask."""
    with ServiceClient(*address) as client:
        barrier.wait(60)
        for request in requests:
            start = time.perf_counter()
            client.ask(dict(request))
            latencies.append(time.perf_counter() - start)


def _latency(ladder: dict) -> dict:
    """p50/p99 and QPS at each rung of the concurrent-client ladder."""
    per_client = ladder["requests_per_client"]
    cells = _cells()

    pool = ShardPool(config=CONFIG, overrides=OVERRIDES, max_inflight=256)
    rungs = []
    try:
        with ServiceServer(pool) as server:
            # Warm every cell once so the timed requests are L1 hits:
            # the ladder measures service overhead, not solve time.
            with ServiceClient(*server.address) as warmer:
                for cell in cells:
                    warmer.ask(_wire(cell))

            for n_clients in ladder["clients"]:
                requests = [
                    _wire(cells[i % len(cells)]) for i in range(per_client)
                ]
                barrier = threading.Barrier(n_clients + 1)
                buckets = [[] for _ in range(n_clients)]
                threads = [
                    threading.Thread(
                        target=_client_rounds,
                        args=(server.address, requests, bucket, barrier),
                    )
                    for bucket in buckets
                ]
                for thread in threads:
                    thread.start()
                barrier.wait(60)
                wall_start = time.perf_counter()
                for thread in threads:
                    thread.join()
                wall = time.perf_counter() - wall_start

                merged = [dt for bucket in buckets for dt in bucket]
                rungs.append({
                    "clients": n_clients,
                    "requests": len(merged),
                    "p50_ms": round(_percentile(merged, 0.50) * 1e3, 3),
                    "p99_ms": round(_percentile(merged, 0.99) * 1e3, 3),
                    "qps": round(len(merged) / wall, 1),
                    "wall_s": round(wall, 4),
                })
    finally:
        pool.close()
    return {"per_client_requests": per_client, "rungs": rungs}


def _tiers(spill_root: Path) -> dict:
    """Two sequential sweeps through a capacity-2 L1 over a disk spill."""
    with ShardPool(
        config=CONFIG,
        overrides=OVERRIDES,
        capacity=2,
        spill_dir=spill_root / "tiers",
    ) as pool:
        cells = _cells()
        for cell in cells:          # fill: 8 cells through 2 slots
            pool.ask(cell, timeout=600)
        for cell in cells:          # re-read: served from the spill
            pool.ask(cell, timeout=600)
        cache = pool.stats()["cache"]

    return {
        "l1_capacity": cache["capacity"],
        "l1_hits": cache["hits"],
        "l1_evictions": cache["evictions"],
        "l2_entries": cache["l2"]["entries"],
        "l2_hits": cache["l2"]["hits"],
        "l2_promotions": cache["l2"]["promotions"],
    }


def _hold_dispatch(pool):
    """Pin the pool's dispatcher behind an event; returns the gate.

    The bench-only overload seam: CI needs deterministic saturation, and
    sizing a solve against wall clock is not deterministic.  Holding the
    batch dispatcher keeps the admitted query in flight for exactly as
    long as the probes need.
    """
    gate = threading.Event()
    original = pool._run_batch

    def held(batch):
        gate.wait(60)
        original(batch)

    pool._run_batch = held
    return gate


def _overload() -> dict:
    """Probe a saturated one-slot pool over TCP; audit the shed records."""
    pool = ShardPool(config=CONFIG, overrides=OVERRIDES, max_inflight=1)
    gate = _hold_dispatch(pool)
    cells = _cells()
    try:
        with ServiceServer(pool) as server, \
                ServiceClient(*server.address) as client:
            occupier = pool.submit(cells[0])
            responses = [
                client.query({"v": 2, **_wire(cell)}) for cell in cells[1:]
            ]
            gate.set()
            pool.result(occupier, timeout=600)
            # The slot was released on delivery: the pool serves again.
            recovered = client.ask(_wire(cells[1]))["kind"] == "characterize"

        shed = [r for r in responses if not r.get("ok")]
        well_formed = bool(shed) and all(
            r.get("v") == 2
            and isinstance(r.get("error"), dict)
            and r["error"].get("code") == "service-overloaded"
            and isinstance(r["error"].get("retry_after"), float)
            and r["error"]["retry_after"] > 0
            and isinstance(r["error"].get("message"), str)
            for r in shed
        )
        return {
            "max_inflight": 1,
            "probes": len(responses),
            "shed": len(shed),
            "shed_rate": round(len(shed) / len(responses), 3),
            "retry_after_s": shed[0]["error"]["retry_after"] if shed else None,
            "records_well_formed": well_formed,
            "recovered_after_release": recovered,
        }
    finally:
        gate.set()
        pool.close()


def _check(baseline: dict) -> None:
    """The pass/fail gates every run applies, quick or full."""
    if not baseline["identity"]["byte_identical"]:
        raise AssertionError(
            f"{baseline['identity']['byte_diffs']} byte-diffs vs the "
            "serial broker reference"
        )
    if baseline["tiers"]["l2_hits"] < 1:
        raise AssertionError("the eviction run never hit the L2 spill")
    overload = baseline["overload"]
    if overload["shed"] < 1 or not overload["records_well_formed"]:
        raise AssertionError(f"malformed or missing shed records: {overload}")
    if not overload["recovered_after_release"]:
        raise AssertionError("pool did not recover after slot release")


def record(quick: bool) -> dict:
    """Run all four phases and raise if any gate fails."""
    with tempfile.TemporaryDirectory(prefix="bench-service-") as tmp:
        spill_root = Path(tmp)
        body = {
            "identity": _identity(spill_root),
            "latency": _latency(inputs(quick)["ladder"]),
            "tiers": _tiers(spill_root),
            "overload": _overload(),
        }
    _check(body)
    return body


def test_service_bench(benchmark, save_artifact):
    """Quick-ladder run of every phase with the gates applied."""
    body = benchmark.pedantic(record, kwargs={"quick": True}, rounds=1)
    save_artifact("service_bench", json.dumps(body, indent=2, sort_keys=True))
