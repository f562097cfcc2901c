"""Benchmark-query service: a coalescing, cache-backed broker.

The ROADMAP's north star is a system that serves benchmark answers at
production query volume.  Today's consumers (CLI, analysis studies,
fault campaigns) each hand-build a :class:`~repro.core.experiment.SweepSpec`
and drive :mod:`repro.engine` directly, so identical (kernel x arch x
config) questions are re-solved per caller.  This package centralizes
them behind one broker:

* **Queries** (:mod:`repro.service.queries`) — small frozen dataclasses
  (characterize a kernel cell, fly a mission, score a fault campaign)
  with a content-address key derived with the same canonical-JSON +
  sha256 scheme as the engine's trace cache.
* **Result cache tiers** (:mod:`repro.service.cache`) — an in-memory
  LRU (L1) over answered payloads, keyed by that content address, with
  an optional disk-spill tier (L2, trace-cache directory format) that
  catches L1 evictions; per-tier hits surface through :mod:`repro.obs`
  (the engine's trace cache of solve profiles is L3).
* **Broker** (:mod:`repro.service.broker`) — a bounded submission queue
  (backpressure) drained by a single dispatcher thread that coalesces
  duplicates (single-flight: N concurrent identical queries trigger one
  solve) and batches distinct characterize cells into **one** engine
  cell-plan, so a burst of queries costs one solve per distinct kernel
  configuration.
* **Served broker** (:mod:`repro.service.shard`) — :class:`ShardPool`,
  the one broker ``repro serve`` runs, behind an admission gate
  (:mod:`repro.service.admission`): bounded inflight work,
  ``interactive``/``batch`` priorities, and typed
  :class:`ServiceOverloaded` shedding with a ``retry_after`` hint
  instead of blocking.
* **Query options & errors** (:mod:`repro.service.queries`,
  :mod:`repro.service.errors`) — a frozen :class:`QueryOptions`
  (priority, fidelity placeholder, timeout, cache policy) on every
  query, and a typed :class:`ServiceError` taxonomy serialized as
  structured records in wire envelope v2.
* **Server** (:mod:`repro.service.server`, :mod:`repro.service.aio`) —
  ``repro serve``'s asyncio JSONL-over-TCP front-end plus the matching
  ``repro query`` client (context-managed, per-query timeouts,
  retry-with-backoff on shed).

Determinism contract: answers are byte-identical to direct engine /
closed-loop / campaign runs at any concurrency level, spill state, and
cache policy — the service only routes and caches; it never perturbs
what it runs (asserted in ``tests/test_service.py`` and
``tests/test_service_tiers.py``).
"""

from repro.closedloop import mission_record
from repro.service.admission import AdmissionController
from repro.service.aio import AsyncServiceServer
from repro.service.broker import BrokerClosed, ServiceBroker
from repro.service.cache import ResultCache, SpillCache, TieredResultCache
from repro.service.errors import (
    QueryValidationError,
    ServiceError,
    ServiceOverloaded,
    ServiceTimeout,
    ShardUnavailable,
    error_from_record,
    error_record,
)
from repro.service.queries import (
    CampaignQuery,
    CharacterizeQuery,
    DEFAULT_OPTIONS,
    MissionQuery,
    QueryOptions,
    WIRE_VERSION,
    parse_request,
    query_key,
    request_of,
)
from repro.service.server import DEFAULT_PORT, ServiceClient, ServiceServer
from repro.service.shard import ShardPool, shard_of

__all__ = [
    "AdmissionController",
    "AsyncServiceServer",
    "BrokerClosed",
    "DEFAULT_OPTIONS",
    "DEFAULT_PORT",
    "CampaignQuery",
    "CharacterizeQuery",
    "MissionQuery",
    "QueryOptions",
    "QueryValidationError",
    "ResultCache",
    "ServiceBroker",
    "ServiceClient",
    "ServiceError",
    "ServiceOverloaded",
    "ServiceServer",
    "ServiceTimeout",
    "ShardPool",
    "ShardUnavailable",
    "SpillCache",
    "TieredResultCache",
    "WIRE_VERSION",
    "error_from_record",
    "error_record",
    "mission_record",
    "parse_request",
    "query_key",
    "request_of",
    "shard_of",
]
