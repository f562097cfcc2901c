"""Tests for ``repro.service``: the coalescing benchmark-query broker.

The headline assertions mirror the subsystem's contract:

* a burst of 64 mixed queries over 8 distinct cells performs exactly one
  miss per distinct cell (and, via the solve/price split, one engine
  solve per distinct *kernel*), with every duplicate answered as a hit;
* answers are byte-identical to the serial reference driver;
* N concurrent identical queries are single-flight: 1 miss, N-1 hits;
* backpressure, close semantics, the LRU answer cache, the wire
  protocol, and the JSONL server round trip.
"""

import json
import threading
import time

import pytest

import repro.obs as obs
import repro.service.broker as broker_mod
from repro.core.config import HarnessConfig
from repro.core.experiment import SweepSpec, run_sweep_serial
from repro.core.experiment_io import result_to_dict
from repro.mcu.arch import get_arch
from repro.mcu.cache import CACHE_OFF, CACHE_ON
from repro.service import (
    BrokerClosed,
    CampaignQuery,
    CharacterizeQuery,
    MissionQuery,
    ResultCache,
    ServiceBroker,
    ServiceClient,
    ServiceServer,
    ShardPool,
    mission_record,
    parse_request,
    query_key,
    request_of,
)

#: One rep, no warmup, shrunk sequences: answers stay exact, tests stay fast.
CONFIG = HarnessConfig(reps=1, warmup_reps=0)
OVERRIDES = {"*": {"n_samples": 40}}

KERNELS = ("mahony", "madgwick")
ARCH_NAMES = ("m4", "m33")
CACHE_LABELS = ("C", "NC")


def distinct_cells():
    """The 8 distinct characterize cells the burst tests sweep."""
    return [
        CharacterizeQuery(kernel=k, arch=a, cache=c)
        for k in KERNELS for a in ARCH_NAMES for c in CACHE_LABELS
    ]


@pytest.fixture
def metrics():
    """Enabled metrics registry, restored to disabled afterwards."""
    _, registry = obs.observe()
    yield registry
    obs.unobserve()


def counting_run_plan(monkeypatch):
    """Spy on the broker's ``run_plan`` seam, tallying executed solves."""
    solves = []
    original = broker_mod.run_plan

    def spy(plan, options=None, telemetry=None):
        registry = obs.MetricsRegistry()
        results = original(plan, options=options, telemetry=registry)
        solves.append(registry.counter("engine.solves"))
        return results

    monkeypatch.setattr(broker_mod, "run_plan", spy)
    return solves


# ------------------------------------------------------- the headline burst


def test_burst_of_64_mixed_queries_coalesces_and_matches_serial(
    metrics, monkeypatch
):
    solves = counting_run_plan(monkeypatch)
    cells = distinct_cells()
    queries = cells * 8  # 64 queries, duplicates interleaved

    with ServiceBroker(config=CONFIG, overrides=OVERRIDES) as broker:
        payloads = broker.ask_many(queries)

    assert len(payloads) == 64
    # Duplicates get byte-identical answers to their first occurrence.
    for i, payload in enumerate(payloads):
        assert json.dumps(payload, sort_keys=True) == \
            json.dumps(payloads[i % len(cells)], sort_keys=True)

    # Exactly one miss per distinct cell, however the burst batched.
    counters = metrics.as_dict()["counters"]
    assert counters["service.queries"] == 64
    assert counters["service.misses"] == len(cells)
    assert counters["service.hits"] == 64 - len(cells)
    assert counters.get("service.errors", 0) == 0
    assert counters["service.batches"] >= 1

    # Queue and batch latency histograms exported through repro.obs.
    histograms = metrics.as_dict()["histograms"]
    assert histograms["service.queue_wall_s"]["count"] == 64
    assert histograms["service.batch_wall_s"]["count"] >= 1

    # The solve/price split goes further than one solve per cell: the 8
    # cells share 2 kernel configurations, so exactly 2 solves execute.
    assert sum(solves) == len(KERNELS)

    # Byte-identity against the serial reference driver, cell by cell.
    serial = run_sweep_serial(SweepSpec(
        kernels=list(KERNELS),
        archs=[get_arch(a) for a in ARCH_NAMES],
        caches=(CACHE_ON, CACHE_OFF),
        config=CONFIG,
        overrides=OVERRIDES,
    ))
    for query, payload in zip(cells, payloads):
        expected = result_to_dict(
            serial.get(query.kernel, query.arch, query.cache)
        )
        assert json.dumps(payload["result"], sort_keys=True) == \
            json.dumps(expected, sort_keys=True)


def test_concurrent_identical_queries_are_single_flight(metrics):
    n = 12
    query = CharacterizeQuery(kernel="mahony", arch="m33")
    answers = [None] * n
    with ServiceBroker(config=CONFIG, overrides=OVERRIDES) as broker:
        def work(i):
            answers[i] = broker.ask(query)

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    counters = metrics.as_dict()["counters"]
    assert counters["service.queries"] == n
    assert counters["service.misses"] == 1
    assert counters["service.hits"] == n - 1
    first = json.dumps(answers[0], sort_keys=True)
    assert all(json.dumps(a, sort_keys=True) == first for a in answers)


# ------------------------------------------------------ other query kinds


def test_mission_query_matches_direct_run():
    from repro.api import MissionSpec, run_mission

    with ServiceBroker(config=CONFIG) as broker:
        payload = broker.ask(MissionQuery(mission="hover", arch="m33"))
    direct = run_mission(MissionSpec(mission="hover", arch="m33"))
    assert payload["kind"] == "mission"
    assert payload["result"] == mission_record(direct)


def test_campaign_query_round_trips():
    from repro.api import CampaignSpec

    spec = CampaignSpec(
        fault="brownout", severities=(1.0,), missions=("hover",),
        kernels=(), archs=("m33",), seed=0,
    )
    with ServiceBroker(config=CONFIG) as broker:
        payload = broker.ask(CampaignQuery(spec=spec))
        again = broker.ask(CampaignQuery(spec=spec))
    assert payload["kind"] == "campaign"
    assert payload["result"]["fault"] == "brownout"
    assert payload["result"]["mission_grid"]
    assert json.dumps(again, sort_keys=True) == \
        json.dumps(payload, sort_keys=True)


# --------------------------------------------------------- broker semantics


def test_validation_errors_raise_in_the_submitting_thread():
    with ServiceBroker(config=CONFIG) as broker:
        with pytest.raises(KeyError, match="unknown kernel"):
            broker.submit(CharacterizeQuery(kernel="not-a-kernel"))
        with pytest.raises(KeyError, match="unknown arch"):
            broker.submit(CharacterizeQuery(kernel="mahony", arch="z80"))


def test_closed_broker_rejects_submissions():
    broker = ServiceBroker(config=CONFIG)
    broker.close()
    with pytest.raises(BrokerClosed):
        broker.submit(CharacterizeQuery(kernel="mahony"))
    broker.close()  # idempotent


def test_backpressure_blocks_submitters_at_max_pending(monkeypatch):
    release = threading.Event()
    broker = ServiceBroker(config=CONFIG, overrides=OVERRIDES, max_pending=2)
    original = broker._run_batch

    def gated_batch(batch):
        release.wait(30)
        original(batch)

    monkeypatch.setattr(broker, "_run_batch", gated_batch)
    query = CharacterizeQuery(kernel="mahony", arch="m33")
    tickets = [broker.submit(query)]
    # Wait for the dispatcher to pick the first ticket up and park.
    deadline = time.monotonic() + 10
    while broker._pending.qsize() > 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    tickets.append(broker.submit(query))
    tickets.append(broker.submit(query))  # queue now full

    blocked = threading.Thread(
        target=lambda: tickets.append(broker.submit(query))
    )
    blocked.start()
    blocked.join(0.3)
    assert blocked.is_alive(), "submit should block while the queue is full"

    release.set()
    blocked.join(10)
    assert not blocked.is_alive()
    for ticket in tickets:
        assert broker.result(ticket, timeout=30)
    broker.close()


# --------------------------------------------------------------- the cache


def test_result_cache_lru_eviction_and_stats():
    cache = ResultCache(capacity=2)
    cache.put("a", {"v": 1})
    cache.put("b", {"v": 2})
    assert cache.get("a") == {"v": 1}   # refreshes "a"
    cache.put("c", {"v": 3})            # evicts "b", the LRU entry
    assert cache.get("b") is None
    assert "a" in cache and "c" in cache
    assert len(cache) == 2
    stats = cache.as_dict()
    assert stats["entries"] == 2
    assert stats["evictions"] == 1
    assert stats["hits"] == 1
    assert stats["misses"] == 1
    assert stats["hit_rate"] == 0.5


def test_result_cache_rejects_zero_capacity():
    with pytest.raises(ValueError):
        ResultCache(capacity=0)


def test_query_key_is_content_addressed():
    q = CharacterizeQuery(kernel="mahony")
    assert query_key(q, CONFIG) == query_key(q, CONFIG)
    assert len(query_key(q, CONFIG)) == 32
    assert query_key(q, CONFIG) != query_key(
        CharacterizeQuery(kernel="madgwick"), CONFIG
    )
    assert query_key(q, CONFIG) != query_key(
        q, HarnessConfig(reps=2, warmup_reps=0)
    )


# ------------------------------------------------------------ wire protocol


def test_wire_request_round_trip():
    q = parse_request(
        {"op": "characterize", "kernel": "mahony", "arch": "m4", "cache": "NC"}
    )
    assert q == CharacterizeQuery(kernel="mahony", arch="m4", cache="NC")
    assert parse_request(request_of(q)) == q

    m = parse_request({"op": "mission"})
    assert m == MissionQuery(mission="hover", arch="m33")
    assert parse_request(request_of(m)) == m

    c = parse_request({"op": "campaign", "fault": "brownout",
                       "severities": [0.5], "missions": ["hover"]})
    assert c.spec.fault == "brownout"
    assert parse_request(request_of(c)) == c

    with pytest.raises(ValueError, match="unknown op"):
        parse_request({"op": "frobnicate"})


def test_server_round_trip_over_tcp():
    with ShardPool(config=CONFIG, overrides=OVERRIDES) as pool:
        with ServiceServer(pool, port=0) as server:
            host, port = server.address
            with ServiceClient(host, port, timeout=60.0) as client:
                assert client.ping()
                response = client.query(
                    {"op": "characterize", "kernel": "mahony", "arch": "m33"}
                )
                assert response["ok"]
                assert response["kind"] == "characterize"
                assert response["result"]["kernel"] == "mahony"
                bad = client.query({"op": "characterize", "kernel": "nope"})
                assert not bad["ok"]
                assert "nope" in bad["error"]
                stats = client.stats()
                assert stats["cache"]["entries"] >= 1
                assert stats["batches"] >= 1
