"""Tests for the tiered, admission-controlled served broker.

The contract under test (see ``docs/service.md``):

* the three-tier read path: L1 evictions spill to L2, an L1 miss that
  hits L2 promotes back into L1, per-tier hits are counted; a spill
  file is written once while whole, and a torn one reads as a miss and
  is rewritten;
* spill invariance: the same 64-query burst returns byte-identical
  answers (in the key order the server sends) with the L2 spill enabled
  and disabled, costs one engine solve per kernel, leaves no admission
  slot in flight, and matches the serial reference driver; a drawn mix
  of asks, cache policies, L1 capacities and spill states answers, in
  process and over TCP, exactly what a plain broker answers;
* admission control: a full pool sheds with a typed
  ``ServiceOverloaded`` (deterministic ``retry_after``) instead of
  blocking, and batch priority sheds before interactive;
* a server-side timeout mid-solve ends in a typed ``timeout`` record,
  the server keeps answering, and the held slot and answer are not
  lost;
* the typed error taxonomy round-trips the wire envelope, and the
  client re-raises typed classes, honors per-query timeouts, and
  retries shed queries with backoff.
"""

import dataclasses
import json
import socket
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro import api
from repro.core.config import HarnessConfig
from repro.core.experiment import SweepSpec, run_sweep_serial
from repro.core.experiment_io import result_to_dict
from repro.mcu.arch import get_arch
from repro.mcu.cache import CACHE_OFF, CACHE_ON
from repro.service import (
    CharacterizeQuery,
    QueryOptions,
    QueryValidationError,
    ResultCache,
    ServiceBroker,
    ServiceClient,
    ServiceError,
    ServiceOverloaded,
    ServiceServer,
    ServiceTimeout,
    ShardPool,
    ShardUnavailable,
    SpillCache,
    TieredResultCache,
    error_from_record,
    error_record,
    parse_request,
    query_key,
    request_of,
    shard_of,
)
from tests.test_service import counting_run_plan

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


@pytest.fixture(scope="module")
def direct_answers():
    """Each test cell's unsorted rendering from a plain broker's answer."""
    with ServiceBroker(config=CONFIG, overrides=OVERRIDES) as broker:
        return [
            json.dumps(api.query(cell, broker=broker))
            for cell in distinct_cells()
        ]


def unwrapped(reply: dict) -> dict:
    """A TCP reply without its ``v`` / ``ok`` envelope fields."""
    return {k: v for k, v in reply.items() if k not in ("v", "ok")}


# ------------------------------------------------------------ cache tiers


def test_l1_evict_spills_to_l2_and_promotes_back(tmp_path):
    cache = TieredResultCache(capacity=2, spill_dir=tmp_path / "spill")
    cache.put("k1", {"answer": 1})
    cache.put("k2", {"answer": 2})
    cache.put("k3", {"answer": 3})  # evicts k1 -> spill

    assert "k1" in cache.spill
    assert len(cache.spill) == 1

    # L1 miss, L2 hit, promoted back into L1 (evicting k2 to spill).
    payload, tier = cache.get_tiered("k1")
    assert payload == {"answer": 1}
    assert tier == "l2"
    payload, tier = cache.get_tiered("k1")
    assert tier == "l1"
    assert "k2" in cache.spill

    stats = cache.as_dict()
    assert stats["l2"]["hits"] == 1
    assert stats["l2"]["promotions"] == 1
    assert stats["l2"]["puts"] == 2  # k1 then k2

    # A never-seen key misses every tier.
    payload, tier = cache.get_tiered("k-unknown")
    assert payload is None and tier is None


def test_spill_cache_ignores_torn_and_foreign_entries(tmp_path):
    spill = SpillCache(tmp_path)
    spill.put("good", {"x": 1})
    (tmp_path / "torn.json").write_text("{not json", encoding="utf-8")
    (tmp_path / "foreign.json").write_text(
        json.dumps({"spill_version": 999, "key": "foreign", "payload": {}}),
        encoding="utf-8",
    )
    # Whole JSON, but not an object.
    (tmp_path / "array.json").write_text("[1, 2]", encoding="utf-8")
    (tmp_path / "string.json").write_text('"x"', encoding="utf-8")
    assert spill.get("good") == {"x": 1}
    assert spill.get("torn") is None
    assert spill.get("foreign") is None
    assert spill.get("array") is None
    assert spill.get("string") is None
    assert spill.get("absent") is None
    assert spill.as_dict()["misses"] == 5


def test_l2_writes_a_whole_entry_once_and_rewrites_a_torn_one(tmp_path):
    cache = TieredResultCache(capacity=1, spill_dir=tmp_path)
    cache.put("k", {"answer": 1})
    cache.put("other", {"answer": 2})  # evicts k: written
    cache.put("k", {"answer": 1})      # evicts other: written
    cache.put("other", {"answer": 2})  # evicts k again: already whole
    assert cache.spill.puts == 2

    path = tmp_path / "k.json"
    path.write_bytes(path.read_bytes()[:10])  # torn under the server
    assert cache.spill.get("k") is None
    cache.put("k", {"answer": 1})      # evicts other: already whole
    cache.put("other", {"answer": 2})  # evicts k: the torn file is rewritten
    assert cache.spill.puts == 3
    assert cache.spill.get("k") == {"answer": 1}


def test_plain_result_cache_get_tiered_is_l1_only():
    cache = ResultCache(capacity=2)
    cache.put("k", {"a": 1})
    assert cache.get_tiered("k") == ({"a": 1}, "l1")
    assert cache.get_tiered("absent") == (None, None)


# ------------------------------------------------ the partition key map


def test_shard_of_is_deterministic_and_in_range():
    keys = [query_key(q, CONFIG) for q in distinct_cells()]
    for key in keys:
        assert shard_of(key, 1) == 0
        for n in (2, 4, 7):
            index = shard_of(key, n)
            assert 0 <= index < n
            assert index == shard_of(key, n)  # stable


# ------------------------------------------- the headline invariance burst


def test_burst_is_byte_identical_at_any_spill_state(
    metrics, tmp_path, monkeypatch
):
    solves = counting_run_plan(monkeypatch)
    cells = distinct_cells()
    queries = cells * 8  # 64 queries, duplicates interleaved

    serial = run_sweep_serial(SweepSpec(
        kernels=list(KERNELS),
        archs=[get_arch(a) for a in ARCH_NAMES],
        caches=(CACHE_ON, CACHE_OFF),
        config=CONFIG,
        overrides=OVERRIDES,
    ))
    expected = {
        (q.kernel, q.arch, q.cache): json.dumps(
            result_to_dict(serial.get(q.kernel, q.arch, q.cache)),
            sort_keys=True,
        )
        for q in cells
    }

    rendered = {}
    for spill in (False, True):
        solves.clear()
        spill_dir = tmp_path / "spill" if spill else None
        # capacity < distinct cells so the spill run actually evicts
        # and re-loads through L2 mid-burst.
        with ShardPool(
            config=CONFIG,
            overrides=OVERRIDES,
            capacity=4,
            spill_dir=spill_dir,
        ) as pool:
            first = pool.ask_many(queries, timeout=300)
            again = [pool.ask(q, timeout=300) for q in cells]
            # An immediate repeat is a guaranteed L1 hit (the cell
            # was just promoted/written into the LRU).
            encore = pool.ask(cells[-1], timeout=300)
        # Read after close: the dispatcher has been joined, so every
        # delivery's slot release has run.
        assert pool.stats()["admission"]["inflight"] == 0
        # One broker is one single-flight lock: one solve per kernel.
        assert sum(solves) == len(KERNELS)
        # Unsorted renderings, as the server encodes answers: a
        # spilled answer must come back in its original key order.
        assert json.dumps(encore) == json.dumps(again[-1])
        rendered[spill] = json.dumps(first)
        # Round 2 (served via L1/L2, never re-solved) is identical.
        for q, payload in zip(cells, again):
            assert json.dumps(payload) == json.dumps(
                first[cells.index(q)]
            )
        # Every answer matches the serial reference driver.
        for q, payload in zip(cells, first[:len(cells)]):
            key = (q.kernel, q.arch, q.cache)
            assert json.dumps(payload["result"], sort_keys=True) == \
                expected[key]

    # One rendering, whatever the spill state.
    assert len(set(rendered.values())) == 1

    counters = metrics.as_dict()["counters"]
    # 2 spill states x (64 burst + 8 re-asks + 1 encore), nothing lost
    # or duplicated.
    assert counters["service.queries"] == 2 * (64 + 8 + 1)
    assert counters.get("service.errors", 0) == 0
    # The capacity-4 L1 cannot hold 8 cells: spill runs must hit L2.
    assert counters["service.l2_hits"] >= 1
    assert counters["service.l1_hits"] >= 1


@settings(max_examples=100, deadline=None)
@given(
    asks=st.lists(
        st.tuples(
            st.integers(0, 7), st.sampled_from(("use", "bypass", "refresh"))
        ),
        min_size=1,
        max_size=24,
    ),
    capacity=st.integers(1, 8),
    spill=st.booleans(),
    over_tcp=st.booleans(),
)
def test_served_answer_equals_the_direct_answer(
    direct_answers, asks, capacity, spill, over_tcp
):
    cells = distinct_cells()
    queries = [
        dataclasses.replace(cells[index], options=QueryOptions(cache=policy))
        for index, policy in asks
    ]
    with tempfile.TemporaryDirectory(prefix="spill-") as tmp:
        with ShardPool(
            config=CONFIG,
            overrides=OVERRIDES,
            capacity=capacity,
            spill_dir=Path(tmp) if spill else None,
        ) as pool:
            if over_tcp:
                with ServiceServer(pool, port=0) as server, \
                        ServiceClient(*server.address, timeout=300.0) as client:
                    answers = [unwrapped(client.ask(q)) for q in queries]
            else:
                answers = pool.ask_many(queries, timeout=300)
        # Read after close: every delivery's slot release has run.
        assert pool.stats()["admission"]["inflight"] == 0
    for (index, _), answer in zip(asks, answers):
        assert json.dumps(answer) == direct_answers[index]


# ----------------------------------------------------- admission control


def _gate_dispatcher(pool):
    """Block the pool's batch processing behind an event; returns the gate."""
    gate = threading.Event()
    original = pool._run_batch

    def gated(batch):
        gate.wait(30)
        original(batch)

    pool._run_batch = gated
    return gate


def test_full_shard_sheds_with_typed_overload_and_retry_hint():
    pool = ShardPool(config=CONFIG, overrides=OVERRIDES, max_inflight=2)
    gate = _gate_dispatcher(pool)
    try:
        t1 = pool.submit(CharacterizeQuery(kernel="mahony"))
        t2 = pool.submit(CharacterizeQuery(kernel="madgwick"))
        with pytest.raises(ServiceOverloaded) as shed:
            pool.submit(CharacterizeQuery(kernel="mahony", arch="m4"))
        assert shed.value.retry_after is not None
        assert shed.value.retry_after > 0
        assert shed.value.code == "service-overloaded"
        # Deterministic: the same admission state sheds identically.
        with pytest.raises(ServiceOverloaded) as shed2:
            pool.submit(CharacterizeQuery(kernel="mahony", arch="m4"))
        assert shed2.value.retry_after == shed.value.retry_after

        gate.set()
        pool.result(t1, timeout=300)
        pool.result(t2, timeout=300)
        # Slots released on delivery: submits are admitted again.
        assert pool.ask(
            CharacterizeQuery(kernel="mahony"), timeout=300
        )["kind"] == "characterize"
        assert pool.stats()["shed"] == 2
    finally:
        gate.set()
        pool.close()


def test_batch_priority_sheds_before_interactive():
    batch_opts = QueryOptions(priority="batch")
    pool = ShardPool(
        config=CONFIG, overrides=OVERRIDES, max_inflight=4
    )  # batch_limit = 2
    gate = _gate_dispatcher(pool)
    try:
        cells = distinct_cells()
        tickets = [
            pool.submit(dataclasses.replace(cells[0], options=batch_opts)),
            pool.submit(dataclasses.replace(cells[1], options=batch_opts)),
        ]
        # Batch share exhausted; interactive still admitted.
        with pytest.raises(ServiceOverloaded):
            pool.submit(dataclasses.replace(cells[2], options=batch_opts))
        tickets.append(pool.submit(cells[3]))
        tickets.append(pool.submit(cells[4]))
        # Now the whole pool is full: interactive sheds too.
        with pytest.raises(ServiceOverloaded):
            pool.submit(cells[5])
        gate.set()
        for ticket in tickets:
            pool.result(ticket, timeout=300)
    finally:
        gate.set()
        pool.close()


def test_closed_pool_raises_shard_unavailable():
    pool = ShardPool(config=CONFIG, overrides=OVERRIDES)
    pool.close()
    with pytest.raises(ShardUnavailable):
        pool.submit(CharacterizeQuery(kernel="mahony"))


def test_pool_lifts_validation_errors_into_the_taxonomy():
    with ShardPool(config=CONFIG, overrides=OVERRIDES) as pool:
        with pytest.raises(QueryValidationError, match="unknown kernel"):
            pool.submit(CharacterizeQuery(kernel="nope"))
        # QueryValidationError doubles as ValueError for legacy callers.
        with pytest.raises(ValueError):
            pool.submit(CharacterizeQuery(kernel="nope"))


# ------------------------------------------------------- query options


def test_options_do_not_change_the_content_address():
    q = CharacterizeQuery(kernel="mahony", arch="m4", cache="NC")
    variants = [
        dataclasses.replace(q, options=QueryOptions(priority="batch")),
        dataclasses.replace(q, options=QueryOptions(timeout=5.0)),
        dataclasses.replace(q, options=QueryOptions(cache="bypass")),
    ]
    base = query_key(q, CONFIG)
    for variant in variants:
        assert query_key(variant, CONFIG) == base


def test_options_round_trip_the_wire_envelope():
    q = CharacterizeQuery(
        kernel="mahony",
        options=QueryOptions(priority="batch", timeout=2.5, cache="refresh"),
    )
    request = request_of(q)
    assert request["v"] == 2
    assert request["options"] == {
        "priority": "batch", "timeout": 2.5, "cache": "refresh",
    }
    assert parse_request(request) == q

    # Default options keep the bare v1 request shape (old servers work).
    bare = request_of(CharacterizeQuery(kernel="mahony"))
    assert "v" not in bare and "options" not in bare


def test_option_validation_rejects_unknown_settings():
    with pytest.raises(QueryValidationError, match="unknown priority"):
        QueryOptions(priority="urgent").validated()
    with pytest.raises(QueryValidationError, match="reserved"):
        QueryOptions(fidelity="approx").validated()
    with pytest.raises(QueryValidationError, match="unknown cache policy"):
        QueryOptions(cache="write-through").validated()
    with pytest.raises(QueryValidationError, match="timeout"):
        QueryOptions(timeout=-1.0).validated()
    with pytest.raises(QueryValidationError, match="unknown option field"):
        QueryOptions.from_wire({"nice": 10})
    with pytest.raises(QueryValidationError, match="unsupported wire version"):
        parse_request({"v": 99, "op": "ping"})


def test_cache_policy_bypass_and_refresh(metrics):
    q = CharacterizeQuery(kernel="mahony", arch="m33")
    with ShardPool(config=CONFIG, overrides=OVERRIDES) as pool:
        first = pool.ask(q, timeout=300)
        hit = pool.ask(q, timeout=300)
        bypass = pool.ask(
            dataclasses.replace(q, options=QueryOptions(cache="bypass")),
            timeout=300,
        )
        refresh = pool.ask(
            dataclasses.replace(q, options=QueryOptions(cache="refresh")),
            timeout=300,
        )
        stats = pool.stats()
    # Identical bytes whichever path produced them.
    renderings = {
        json.dumps(p, sort_keys=True) for p in (first, hit, bypass, refresh)
    }
    assert len(renderings) == 1
    # bypass and refresh each skipped the answer-cache read.
    assert stats["cache"]["misses"] >= 1
    counters = metrics.as_dict()["counters"]
    assert counters["service.misses"] == 3  # first + bypass + refresh
    assert counters["service.hits"] == 1


# ------------------------------------------------ typed wire error records


@pytest.mark.parametrize("exc", [
    ServiceError("plain failure"),
    QueryValidationError("unknown kernel 'nope'"),
    ServiceOverloaded("service at capacity", retry_after=0.075),
    ShardUnavailable("the service is closed"),
    ServiceTimeout("no answer within 2.0s"),
])
def test_every_typed_error_round_trips_the_wire(exc):
    record = json.loads(json.dumps(error_record(exc)))  # through the wire
    back = error_from_record(record)
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert back.code == exc.code
    assert back.retry_after == exc.retry_after


def test_untyped_errors_classify_conservatively():
    assert error_record(KeyError("unknown arch 'z80'"))["code"] == \
        "query-validation"
    assert error_record(ValueError("bad"))["code"] == "query-validation"
    assert error_record(TimeoutError("slow"))["code"] == "timeout"
    assert error_record(RuntimeError("boom"))["code"] == "internal"
    # Unknown future codes degrade to the base class, code preserved.
    future = error_from_record({"code": "quota-exceeded", "message": "m"})
    assert type(future) is ServiceError
    assert future.code == "quota-exceeded"


# ---------------------------------------------------- client + async server


def test_client_ask_raises_typed_errors_end_to_end():
    with ShardPool(config=CONFIG, overrides=OVERRIDES) as pool:
        with ServiceServer(pool, port=0) as server:
            host, port = server.address
            with ServiceClient(host, port, timeout=300.0) as client:
                payload = client.ask(CharacterizeQuery(kernel="mahony"))
                assert payload["ok"]
                assert payload["v"] == 2
                assert payload["kind"] == "characterize"
                with pytest.raises(QueryValidationError, match="nope"):
                    client.ask({"op": "characterize", "kernel": "nope"})
                stats = client.stats()
                # The bad query failed validation before admission.
                assert stats["admission"]["admitted"] == 1
                assert stats["shed"] == 0
                assert stats["cache"]["entries"] >= 1

                # v1 requests still get flat string errors.
                bad = client.query({"op": "characterize", "kernel": "nope"})
                assert not bad["ok"]
                assert isinstance(bad["error"], str)
                assert "nope" in bad["error"]


def test_client_ask_sees_overload_with_retry_hint_over_the_wire():
    pool = ShardPool(config=CONFIG, overrides=OVERRIDES, max_inflight=1)
    gate = _gate_dispatcher(pool)
    try:
        ticket = pool.submit(CharacterizeQuery(kernel="mahony"))
        with ServiceServer(pool, port=0) as server:
            host, port = server.address
            with ServiceClient(host, port, timeout=30.0) as client:
                with pytest.raises(ServiceOverloaded) as shed:
                    client.ask(CharacterizeQuery(kernel="madgwick"))
                assert shed.value.retry_after > 0
        gate.set()
        pool.result(ticket, timeout=300)
    finally:
        gate.set()
        pool.close()


def test_server_timeout_mid_solve_is_typed_and_leaks_nothing(
    direct_answers,
):
    cells = distinct_cells()
    cell = cells[3]
    request = {
        "v": 2, "op": "characterize", "kernel": cell.kernel,
        "arch": cell.arch, "cache": cell.cache, "options": {"timeout": 0.2},
    }
    pool = ShardPool(config=CONFIG, overrides=OVERRIDES)
    gate = _gate_dispatcher(pool)
    try:
        with ServiceServer(pool, port=0) as server, \
                ServiceClient(*server.address, timeout=30.0) as client, \
                ServiceClient(*server.address, timeout=30.0) as other:
            # The client's own deadline bounds the wait for the reply.
            reply = client.query(request, timeout=5.0)
            assert reply["v"] == 2 and reply["ok"] is False
            assert reply["error"]["code"] == "timeout"
            # The solve is still held; the loop keeps answering.
            assert client.ping()
            assert other.ping()
            assert pool.stats()["admission"]["inflight"] == 1

            gate.set()
            deadline = time.monotonic() + 30
            while (pool.stats()["admission"]["inflight"]
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert pool.stats()["admission"]["inflight"] == 0

            # The held solve landed in L1: the repeat is a hit.
            hits = pool.stats()["cache"]["hits"]
            again = client.ask(cell)
            assert pool.stats()["cache"]["hits"] == hits + 1
            assert json.dumps(unwrapped(again)) == direct_answers[3]
    finally:
        gate.set()
        pool.close()


def test_client_per_query_timeout_against_a_silent_server():
    silent = socket.create_server(("127.0.0.1", 0))
    host, port = silent.getsockname()[0], silent.getsockname()[1]
    accepted = []

    def accept_and_hold():
        conn, _ = silent.accept()
        accepted.append(conn)  # never reply

    thread = threading.Thread(target=accept_and_hold, daemon=True)
    thread.start()
    try:
        client = ServiceClient(host, port, timeout=30.0)
        with pytest.raises(ServiceTimeout):
            client.query({"op": "ping"}, timeout=0.2)
        client.close()
    finally:
        for conn in accepted:
            conn.close()
        silent.close()


def test_ask_with_retry_backs_off_then_succeeds():
    client = ServiceClient.__new__(ServiceClient)  # no socket needed
    calls = []

    def flaky_ask(request, options=None, timeout=None):
        calls.append(request)
        if len(calls) < 3:
            raise ServiceOverloaded("full", retry_after=0.001)
        return {"ok": True, "pong": True}

    client.ask = flaky_ask
    assert client.ask_with_retry({"op": "ping"}) == {"ok": True, "pong": True}
    assert len(calls) == 3

    calls.clear()
    with pytest.raises(ServiceOverloaded):
        client.ask_with_retry({"op": "ping"}, retries=1)
    assert len(calls) == 2
