"""The coalescing, single-flight benchmark-query broker.

Concurrency model — one bounded queue, one dispatcher:

* Client threads :meth:`ServiceBroker.submit` tickets onto a bounded
  ``queue.Queue``; a full queue blocks the caller, which **is** the
  backpressure (the broker never buffers unboundedly ahead of the
  engine).  The served broker, :class:`~repro.service.shard.ShardPool`,
  is this class with an admission gate in front of the queue: it sheds
  with a typed error instead of blocking.
* A single dispatcher thread drains whatever is queued into one *batch*,
  deduplicates it by content-address key (duplicates **coalesce**: they
  wait on the first ticket's answer and count as cache hits), answers
  what it can from the :class:`~repro.service.cache.ResultCache`, and
  solves the rest — every uncached characterize cell in the batch goes
  through **one** engine cell-plan
  (:func:`repro.engine.build_cell_plan`), so N queries against one
  kernel configuration cost one solve.
* Because all solving happens on the dispatcher thread, identical
  queries can never race into duplicate solves — the batch dedup plus
  the serialized dispatch is the single-flight lock.
* One :class:`~repro.engine.EngineOptions` says how the engine runs:
  its ``jobs`` sizes both a batch's kernel-solve pool and a campaign
  query's mission pool, and its trace cache is the L3 tier.

Determinism: the dispatcher only routes; characterize answers come from
the same planner/pricer as ``run_sweep`` (pricing is per-cell pure, so
batch composition cannot leak between answers), missions and campaigns
run the exact library entry points.  Payloads are therefore
byte-identical to direct runs at any client concurrency — asserted in
``tests/test_service.py``.

This module is a sanctioned wall-clock seam (like the engine executor):
queue-wait and batch latencies are real host time, exported as
``*_wall_s`` metrics which the determinism checks exclude.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Callable, Dict, List, Optional

from repro.closedloop import make_mission, make_runner, mission_record
from repro.core.config import HarnessConfig
from repro.core.experiment_io import result_to_dict
from repro.engine import EngineOptions, build_cell_plan, run_plan
from repro.faults import run_campaign
from repro.mcu.arch import get_arch
from repro.obs import get_metrics, get_tracer
from repro.service.cache import ResultCache
from repro.service.errors import ServiceOverloaded
from repro.service.queries import (
    SERVICE_FORMAT_VERSION,
    Query,
    query_key,
    query_kind,
)


class BrokerClosed(RuntimeError):
    """Submission to a broker whose dispatcher has shut down."""


#: Queue sentinel asking the dispatcher to finish and exit.
_CLOSE = object()


@dataclass
class _Ticket:
    """One submitted query awaiting its answer."""

    query: Query
    key: str
    kind: str
    submitted_s: float
    priority: str = "interactive"
    done: threading.Event = field(default_factory=threading.Event)
    payload: Optional[dict] = None
    error: Optional[BaseException] = None
    #: Callbacks awaiting delivery; None once delivery has claimed them.
    callbacks: Optional[List[Callable[["_Ticket"], None]]] = field(
        default_factory=list
    )
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def add_done_callback(self, fn: Callable[["_Ticket"], None]) -> None:
        """Run ``fn(ticket)`` once the answer (or error) lands.

        Runs immediately when delivery has already begun; otherwise at
        delivery time on the dispatcher thread.  The asyncio front-end
        and the pool's admission release both hang off this hook.
        """
        with self._lock:
            if self.callbacks is not None:
                self.callbacks.append(fn)
                return
        fn(self)

    def finish(
        self,
        payload: Optional[dict] = None,
        error: Optional[BaseException] = None,
    ) -> None:
        """Deliver the answer: set state, run callbacks, then wake waiters.

        Callbacks run before ``done`` is set, so a thread woken by
        :meth:`ServiceBroker.result` sees their effects: a pool's
        admission slot is already free when its answer is collected.
        """
        self.payload = payload
        self.error = error
        with self._lock:
            callbacks, self.callbacks = self.callbacks or [], None
        for fn in callbacks:
            fn(self)
        self.done.set()


class ServiceBroker:
    """Accepts queries, coalesces duplicates, answers from cache or engine.

    Args:
        config: Harness configuration every characterize answer is priced
            under (and part of every query's content address).
        overrides: Kernel factory overrides, same schema as
            :class:`~repro.core.experiment.SweepSpec.overrides`.
        engine_options: Engine execution options, campaign queries
            included; the broker pins one shared trace cache onto them
            so successive batches reuse solve profiles.
        capacity: Answer-cache entries retained (LRU beyond that).
        max_pending: Bound of the submission queue — the backpressure
            knob; submitters block while it is full.
        cache: Answer cache to use instead of building a private
            :class:`ResultCache` — a :class:`ShardPool` passes its own,
            tiered to a disk spill when it has one.
    """

    def __init__(
        self,
        config: Optional[HarnessConfig] = None,
        overrides: Optional[dict] = None,
        engine_options: Optional[EngineOptions] = None,
        capacity: int = 1024,
        max_pending: int = 256,
        cache: Optional[ResultCache] = None,
    ):
        self.config = (config if config is not None else HarnessConfig()).validated()
        self.overrides = dict(overrides or {})
        options = engine_options if engine_options is not None else EngineOptions()
        if options.trace_cache is None:
            options = replace(options, trace_cache=options.make_cache())
        self.options = options
        self.cache = cache if cache is not None else ResultCache(capacity)
        self._pending: "queue.Queue" = queue.Queue(maxsize=max_pending)
        self._closed = threading.Event()
        self._batches = 0
        self._thread = threading.Thread(
            target=self._serve,
            name="repro-service-dispatcher",
            daemon=True,
        )
        self._thread.start()

    # -- client surface -------------------------------------------------------

    def submit(self, query: Query) -> _Ticket:
        """Validate and enqueue one query; returns its ticket.

        Blocks while the submission queue is full (backpressure).
        Validation errors (unknown kernel/arch/mission/fault) raise here,
        in the submitting thread, before anything is queued.
        """
        if self._closed.is_set():
            raise BrokerClosed("broker is closed")
        query = query.validated()
        return self.submit_prevalidated(
            query, query_key(query, self.config), query_kind(query)
        )

    def submit_prevalidated(
        self, query: Query, key: str, kind: str
    ) -> _Ticket:
        """Enqueue a query whose validation and key are already done.

        The :class:`ShardPool` path: the pool validates and computes the
        content address itself, admits the query, then enqueues it here.
        """
        if self._closed.is_set():
            raise BrokerClosed("broker is closed")
        ticket = _Ticket(
            query=query,
            key=key,
            kind=kind,
            submitted_s=perf_counter(),
            priority=query.options.priority,
        )
        self._pending.put(ticket)
        return ticket

    def result(self, ticket: _Ticket, timeout: Optional[float] = None) -> dict:
        """Wait for a ticket's answer; re-raises its solve error if any."""
        if not ticket.done.wait(timeout):
            raise TimeoutError(
                f"no answer for {ticket.kind} query within {timeout}s"
            )
        if ticket.error is not None:
            raise ticket.error
        return ticket.payload

    def ask(self, query: Query, timeout: Optional[float] = None) -> dict:
        """Submit one query and block for its answer.

        ``timeout`` falls back to the query's own
        :attr:`~repro.service.queries.QueryOptions.timeout` when omitted
        — the redesigned options-first spelling of the old keyword.
        """
        if timeout is None:
            timeout = query.options.timeout
        return self.result(self.submit(query), timeout=timeout)

    def ask_many(
        self, queries, timeout: Optional[float] = None
    ) -> List[dict]:
        """Submit a burst of queries, then collect answers in order.

        Submitting everything before waiting lets the dispatcher see the
        whole burst as few batches, maximizing coalescing.  When a
        submit sheds (a :class:`~repro.service.shard.ShardPool` at its
        inflight bound), the burst's oldest outstanding answer is
        collected, which frees its slot, and the submit is retried; with
        none of the burst's own tickets outstanding, the shed is raised.
        """
        tickets: List[_Ticket] = []
        answers: List[dict] = []
        for query in queries:
            while True:
                try:
                    tickets.append(self.submit(query))
                    break
                except ServiceOverloaded:
                    if len(answers) == len(tickets):
                        raise
                    answers.append(
                        self.result(tickets[len(answers)], timeout=timeout)
                    )
        answers.extend(
            self.result(t, timeout=timeout) for t in tickets[len(answers):]
        )
        return answers

    def stats(self) -> dict:
        """JSON-friendly service counters (cache, batches, queue depth)."""
        return {
            "cache": self.cache.as_dict(),
            "batches": self._batches,
            "pending": self._pending.qsize(),
            "closed": self._closed.is_set(),
        }

    def close(self) -> None:
        """Stop accepting queries, let the dispatcher finish, and join it."""
        if not self._closed.is_set():
            self._closed.set()
            self._pending.put(_CLOSE)
        self._thread.join()

    def __enter__(self) -> "ServiceBroker":
        """Context-manager entry: the broker itself."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: close the broker."""
        self.close()

    # -- dispatcher -----------------------------------------------------------

    def _serve(self) -> None:
        """Dispatcher loop: drain a batch, run it, repeat until closed."""
        while True:
            item = self._pending.get()
            closing = item is _CLOSE
            batch: List[_Ticket] = [] if closing else [item]
            while True:
                try:
                    nxt = self._pending.get_nowait()
                except queue.Empty:
                    break
                if nxt is _CLOSE:
                    closing = True
                    continue
                batch.append(nxt)
            if batch:
                try:
                    self._run_batch(batch)
                except BaseException as exc:  # keep serving after a bad batch
                    for ticket in batch:
                        if not ticket.done.is_set():
                            ticket.finish(error=exc)
            if closing:
                self._fail_remaining()
                return

    def _fail_remaining(self) -> None:
        """Fail any ticket that raced in behind the close sentinel."""
        while True:
            try:
                ticket = self._pending.get_nowait()
            except queue.Empty:
                return
            if ticket is _CLOSE:
                continue
            ticket.finish(error=BrokerClosed("broker is closed"))

    def _run_batch(self, batch: List[_Ticket]) -> None:
        """Coalesce one drained batch, solve its distinct misses, deliver."""
        metrics = get_metrics()
        tracer = get_tracer()
        self._batches += 1
        dispatched_s = perf_counter()

        # Interactive work goes first within the batch (stable sort:
        # arrival order is preserved within each priority class).
        # Answers are per-cell pure, so ordering cannot change bytes —
        # only who waits behind whom.
        batch = sorted(
            batch, key=lambda t: 0 if t.priority == "interactive" else 1
        )

        # Coalesce: group tickets by content address, preserving batch
        # order; answer distinct keys from the cache tiers where the
        # key's cache policy allows a read.
        waiters: Dict[str, List[_Ticket]] = {}
        to_solve: List[_Ticket] = []
        answered: Dict[str, dict] = {}
        failed: Dict[str, BaseException] = {}
        hits = misses = coalesced = l1_hits = l2_hits = 0
        for ticket in batch:
            if metrics.enabled:
                metrics.observe(
                    "service.queue_wall_s", dispatched_s - ticket.submitted_s
                )
            if ticket.key in waiters:
                waiters[ticket.key].append(ticket)
                coalesced += 1
                hits += 1
                continue
            waiters[ticket.key] = [ticket]
            if ticket.query.options.cache == "use":
                cached, tier = self.cache.get_tiered(ticket.key)
            else:  # bypass / refresh skip the answer-cache read
                cached, tier = None, None
            if cached is not None:
                answered[ticket.key] = cached
                hits += 1
                if tier == "l1":
                    l1_hits += 1
                elif tier == "l2":
                    l2_hits += 1
            else:
                to_solve.append(ticket)
                misses += 1

        # L3 accounting: how many solve profiles the engine's trace
        # cache served during this batch's solving.
        trace_stats = self.options.trace_cache.stats
        l3_before = trace_stats.hits

        with tracer.span(
            "service.batch", cat="service", queries=len(batch),
            distinct=len(waiters), solves=len(to_solve),
        ):
            characterize = [t for t in to_solve if t.kind == "characterize"]
            if characterize:
                self._solve_characterize(characterize, answered, failed)
            for ticket in to_solve:
                if ticket.kind == "mission":
                    self._solve_one(ticket, answered, failed,
                                    self._answer_mission)
                elif ticket.kind == "campaign":
                    self._solve_one(ticket, answered, failed,
                                    self._answer_campaign)

        # Cache fresh answers (unless the asking ticket said bypass) and
        # deliver to every waiter, in batch order.
        for ticket in to_solve:
            payload = answered.get(ticket.key)
            if payload is not None and ticket.query.options.cache != "bypass":
                self.cache.put(ticket.key, payload)
        for key, tickets in waiters.items():
            payload = answered.get(key)
            error = failed.get(key)
            if payload is None and error is None:
                error = RuntimeError(f"query {key} produced no answer")
            for ticket in tickets:
                ticket.finish(payload=payload, error=error)

        if metrics.enabled:
            metrics.inc("service.queries", len(batch))
            metrics.inc("service.hits", hits)
            metrics.inc("service.misses", misses)
            metrics.inc("service.l1_hits", l1_hits)
            metrics.inc("service.l2_hits", l2_hits)
            metrics.inc("service.l3_hits", trace_stats.hits - l3_before)
            metrics.inc("service.coalesced", coalesced)
            metrics.inc("service.batches")
            metrics.inc("service.errors", len(failed))
            metrics.set_gauge("service.queue_depth", self._pending.qsize())
            metrics.observe(
                "service.batch_wall_s", perf_counter() - dispatched_s
            )

    # -- solvers --------------------------------------------------------------

    def _solve_characterize(
        self,
        tickets: List[_Ticket],
        answered: Dict[str, dict],
        failed: Dict[str, BaseException],
    ) -> None:
        """Answer every uncached characterize cell via ONE engine plan."""
        requests = [
            (t.query.kernel, get_arch(t.query.arch), t.query.cache_config())
            for t in tickets
        ]
        try:
            plan = build_cell_plan(
                requests, config=self.config, overrides=self.overrides
            )
            results = run_plan(plan, options=self.options)
        except Exception as exc:
            for ticket in tickets:
                failed[ticket.key] = exc
            return
        for ticket in tickets:
            q = ticket.query
            try:
                result = results.lookup(q.kernel, q.arch, q.cache)
            except Exception as exc:
                failed[ticket.key] = exc
                continue
            answered[ticket.key] = {
                "service_version": SERVICE_FORMAT_VERSION,
                "kind": "characterize",
                "key": ticket.key,
                "kernel": q.kernel,
                "arch": q.arch,
                "cache": q.cache,
                "result": result_to_dict(result),
            }

    def _solve_one(
        self,
        ticket: _Ticket,
        answered: Dict[str, dict],
        failed: Dict[str, BaseException],
        answer_fn: Callable[[_Ticket], dict],
    ) -> None:
        """Run one non-batchable query, filing its answer or error by key."""
        try:
            answered[ticket.key] = answer_fn(ticket)
        except Exception as exc:
            failed[ticket.key] = exc

    def _answer_mission(self, ticket: _Ticket) -> dict:
        """Fly one fault-free mission and record its task-level metrics."""
        q = ticket.query
        mission = make_mission(q.mission)
        runner = make_runner(q.mission, q.arch)
        result = runner.run(mission)
        return {
            "service_version": SERVICE_FORMAT_VERSION,
            "kind": "mission",
            "key": ticket.key,
            "mission": q.mission,
            "arch": q.arch,
            "result": mission_record(result),
        }

    def _answer_campaign(self, ticket: _Ticket) -> dict:
        """Score one fault campaign through the standard campaign runner."""
        campaign = run_campaign(ticket.query.spec, options=self.options)
        return {
            "service_version": SERVICE_FORMAT_VERSION,
            "kind": "campaign",
            "key": ticket.key,
            "fault": campaign.fault,
            "result": {
                "fault": campaign.fault,
                "seed": campaign.seed,
                "severities": list(campaign.severities),
                "kernel_grid": campaign.kernel_grid,
                "mission_grid": campaign.mission_grid,
            },
        }
