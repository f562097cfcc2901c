"""The served broker: one :class:`ServiceBroker` behind an admission gate.

``repro serve`` answers through a :class:`ShardPool`: the broker itself
(one bounded queue, one dispatcher that coalesces duplicates and solves
each distinct kernel once per batch) with an
:class:`~repro.service.admission.AdmissionController` in front of the
queue.  Where a bare broker blocks a submitter on a full queue, the pool
sheds with a typed :class:`~repro.service.errors.ServiceOverloaded`.
Admission keeps inflight work below the queue bound, so the pool's
``submit`` never blocks, and the asyncio front-end calls it inline on
the event loop.  The answer cache is L1, tiered to an L2 spill when
``spill_dir`` is set.  The engine runs under the broker's one
:class:`~repro.engine.EngineOptions`, whose ``jobs`` sizes both a
batch's solve pool and a campaign query's mission pool.

There is one broker because one broker is one single-flight lock:
partitioning queries over several brokers repeated solves (brokers share
the L3 trace cache but not its single flight) and was slower on cached
traffic too.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import HarnessConfig
from repro.engine import EngineOptions
from repro.obs import get_metrics
from repro.service.admission import AdmissionController
from repro.service.broker import BrokerClosed, ServiceBroker, _Ticket
from repro.service.cache import ResultCache, TieredResultCache
from repro.service.errors import (
    QueryValidationError,
    ServiceOverloaded,
    ShardUnavailable,
)
from repro.service.queries import Query, query_key, query_kind

__all__ = ["ShardPool", "shard_of"]


def shard_of(key: str, n_shards: int) -> int:
    """The partition index of content address ``key`` among ``n_shards``.

    The leading 8 hex digits of the sha256 content address, modulo the
    partition count — deterministic, uniform, and stable across
    processes.  The service runs one broker, so nothing routes through
    this any more.  It stays because it is exported from
    :mod:`repro.service`, and because the benchmark's traced run
    (``perfbench/tracing.py``) wraps ``shard.shard_of`` by name as part
    of its route layer.
    """
    return int(key[:8], 16) % n_shards


class ShardPool(ServiceBroker):
    """The broker ``repro serve`` runs: admission in front of the queue.

    Inherits ``result`` / ``ask`` / ``ask_many`` / ``close`` and the
    context manager; :meth:`submit` sheds instead of blocking.  Takes
    :class:`ServiceBroker`'s ``config``, ``overrides`` and
    ``engine_options``, plus:

    Args:
        capacity: L1 answer-cache entries.
        spill_dir: L2 spill directory; None disables the disk tier.
        max_inflight: Admitted-but-unfinished bound; beyond it, submits
            shed with ``ServiceOverloaded``.
    """

    def __init__(
        self,
        config: Optional[HarnessConfig] = None,
        overrides: Optional[dict] = None,
        engine_options: Optional[EngineOptions] = None,
        capacity: int = 1024,
        spill_dir=None,
        max_inflight: int = 64,
    ):
        if spill_dir is not None:
            cache: ResultCache = TieredResultCache(
                capacity, spill_dir=spill_dir
            )
        else:
            cache = ResultCache(capacity)
        self._admission = AdmissionController(max_inflight=max_inflight)
        super().__init__(
            config=config,
            overrides=overrides,
            engine_options=engine_options,
            # The queue never blocks: admission bounds inflight work
            # below the queue capacity, so a full queue is a bug, not
            # backpressure.
            max_pending=max(2 * max_inflight, 8),
            cache=cache,
        )

    def submit(self, query: Query) -> _Ticket:
        """Validate, admit, and enqueue one query without blocking.

        Raises :class:`QueryValidationError` on a bad query,
        :class:`~repro.service.errors.ServiceOverloaded` when the
        inflight bound is reached, and :class:`ShardUnavailable` once
        the service is closed.
        """
        try:
            query = query.validated()
        except QueryValidationError:
            raise
        except (KeyError, ValueError, TypeError) as exc:
            # The query types raise plain KeyError/ValueError; lift them
            # into the typed taxonomy, keeping the actionable message.
            if isinstance(exc, KeyError) and len(exc.args) == 1:
                message = str(exc.args[0])
            else:
                message = str(exc)
            raise QueryValidationError(message) from exc
        key = query_key(query, self.config)
        kind = query_kind(query)
        if self._closed.is_set():
            raise ShardUnavailable("the service is closed")
        admission = self._admission
        priority = query.options.priority
        try:
            admission.try_admit(priority)
        except ServiceOverloaded:
            metrics = get_metrics()
            if metrics.enabled:
                metrics.inc("service.shed")
            raise
        try:
            ticket = self.submit_prevalidated(query, key, kind)
        except BrokerClosed as exc:
            admission.release(priority)
            raise ShardUnavailable("the service is closed") from exc
        except Exception:
            admission.release(priority)
            raise
        ticket.add_done_callback(
            lambda _ticket: admission.release(priority)
        )
        return ticket

    def stats(self) -> dict:
        """The broker's counters, plus ``admission`` and its ``shed``."""
        admission = self._admission.stats()
        return {
            **super().stats(),
            "admission": admission,
            "shed": admission["shed"],
        }
