"""Span recorder and layer wrappers for the benchmark's traced run.

The traced run times the calls into each layer's public functions by
patching them, from this file, with thin wrappers that record a span:
name, start, end, parent span and job or request id.  Spans stay in
memory and are written out once, when the run ends.  Nothing in
``src/`` changes; :meth:`Instrumentation.remove` restores every patched
attribute, so one process can measure untraced and traced rounds back
to back and report the difference as the tracing overhead.

Parents come from a per-thread stack.  Work that crosses a thread or
an ``await`` (the service's request path) names its parent explicitly
or through a context variable, because a thread stack cannot follow it.
A span's self time is its duration minus the part of that interval its
children cover (:func:`self_times`).
"""

from __future__ import annotations

import contextvars
import itertools
import json
import threading
from collections import Counter, defaultdict
from time import perf_counter

#: Record layout: ``[sid, name, parent_sid, rid, start_s, end_s]``.
SID, NAME, PARENT, RID, START, END = range(6)

#: The request that opens and closes a traced server's measured window
#: (a ``stats`` query: it costs no solve), exactly as the wire carries it.
SERVICE_MARK = json.dumps({"op": "stats"})

#: The kernel packages whose ``solve_profile`` time is reported apart.
KERNEL_PACKAGES = (
    "perception", "pose", "attitude", "ekf", "control", "factorgraph", "nn",
)


class SpanLog:
    """In-memory span store shared by every thread of one process."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: Parent for spans that start inside an asyncio task.
        self.task_parent = contextvars.ContextVar("perfbench_span", default=None)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """The innermost open span of this thread, else of this task."""
        stack = self._stack()
        return stack[-1] if stack else self.task_parent.get()

    def begin(self, name: str, rid=None, parent=None) -> list:
        """Open a span on this thread's stack and return its record."""
        if parent is None:
            parent = self.current()
        if rid is None and parent is not None:
            rid = parent[RID]
        record = [next(self._ids), name,
                  parent[SID] if parent is not None else 0, rid,
                  perf_counter(), 0.0]
        self._stack().append(record)
        return record

    def end(self, record: list) -> None:
        """Close the innermost span (which must be ``record``)."""
        record[END] = perf_counter()
        self._stack().pop()
        self.spans.append(record)

    def open_detached(self, name: str, rid=None, parent=None) -> list:
        """A span that outlives the current stack frame (async roots)."""
        if rid is None and parent is not None:
            rid = parent[RID]
        return [next(self._ids), name,
                parent[SID] if parent is not None else 0, rid,
                perf_counter(), 0.0]

    def close_detached(self, record: list) -> None:
        """Close a span made by :meth:`open_detached`."""
        record[END] = perf_counter()
        self.spans.append(record)

    def add(self, name: str, start: float, end: float, parent=None,
            rid=None) -> None:
        """Record a finished span whose bounds were measured elsewhere."""
        self.spans.append([next(self._ids), name,
                           parent[SID] if parent is not None else 0,
                           rid, start, end])

    def wrap(self, fn, name: str):
        """``fn`` with every call recorded as a span called ``name``."""
        log = self

        def traced(*args, **kwargs):
            record = log.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                log.end(record)

        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        """Write every span as JSON: a name table plus one row per span."""
        names = sorted({s[NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[s[SID], index[s[NAME]], s[PARENT], s[RID],
                 round(s[START], 7), round(s[END], 7)] for s in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"columns": ["sid", "name", "parent", "rid",
                                   "start_s", "end_s"],
                       "names": names, "spans": rows}, handle)


def self_times(spans) -> dict:
    """sid -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT]:
            children[span[PARENT]].append((span[START], span[END]))
    out = {}
    for span in spans:
        start, end = span[START], span[END]
        covered = 0.0
        kids = children.get(span[SID])
        if kids:
            kids.sort()
            cur_s = cur_e = None
            for s, e in kids:
                s, e = max(s, start), min(e, end)
                if e <= s:
                    continue
                if cur_e is None or s > cur_e:
                    if cur_e is not None:
                        covered += cur_e - cur_s
                    cur_s, cur_e = s, e
                elif e > cur_e:
                    cur_e = e
            if cur_e is not None:
                covered += cur_e - cur_s
        out[span[SID]] = (end - start) - covered
    return out


def layer_summary(spans, roots) -> dict:
    """Self time per span name over the trees under ``roots``.

    Returns ``{"layers": {name: self_s}, "roots_s": sum of root
    durations, "spans": count}``; the layer-sum check compares the sum
    of ``layers`` against ``roots_s``.
    """
    root_ids = {r[SID] for r in roots}
    parent_of = {s[SID]: s[PARENT] for s in spans}
    member = {}

    def in_tree(sid):
        path = []
        while sid and sid not in member:
            if sid in root_ids:
                member[sid] = True
                break
            path.append(sid)
            sid = parent_of.get(sid, 0)
        verdict = member.get(sid, False) if sid else False
        for node in path:
            member[node] = verdict
        return verdict

    selfs = self_times(spans)
    layers = Counter()
    count = 0
    for span in spans:
        if in_tree(span[SID]):
            layers[span[NAME]] += selfs[span[SID]]
            count += 1
    return {
        "layers": dict(layers),
        "roots_s": sum(r[END] - r[START] for r in roots),
        "spans": count,
    }


class Patches:
    """Attribute replacements that :meth:`remove` undoes."""

    def __init__(self):
        self._patched = []

    def patch(self, owner, attr: str, wrapper) -> None:
        """Replace ``owner.attr`` with ``wrapper`` until :meth:`remove`.

        ``owner`` is a module or a class that defines ``attr`` itself.
        """
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def remove(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


class OpTimer(Patches):
    """Times each outermost call of the workload's operations.

    This is the end-to-end operation boundary of an untraced run (one
    mission job, one kernel solve): two clock reads per call, no spans.
    A call made inside another timed call is part of that call's time.
    ``samples`` holds each call's host time and ``labels`` its label.
    """

    def __init__(self):
        super().__init__()
        self.samples = []
        self.labels = []
        self._depth = 0

    def time(self, owner, attr: str, label: str) -> None:
        """Time every outermost call of ``owner.attr`` until :meth:`remove`."""
        original, timer = vars(owner)[attr], self

        def timed(*args, **kwargs):
            if timer._depth:
                return original(*args, **kwargs)
            timer._depth += 1
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                timer.samples.append(perf_counter() - start)
                timer.labels.append(label)
                timer._depth -= 1

        self.patch(owner, attr, timed)


class _TimedJson:
    """The ``json`` module as one module sees it, with two calls timed."""

    def __init__(self, loads, dumps):
        self.loads, self.dumps = loads, dumps

    def __getattr__(self, name):
        return getattr(json, name)


class Instrumentation(Patches):
    """Installs and removes the layer wrappers on one :class:`SpanLog`."""

    def __init__(self, log: SpanLog):
        super().__init__()
        self.log = log

    def _trace_pricing(self) -> None:
        """The engine's batch pricer: ``vecprice.price`` spans and cells."""
        import repro.engine.executor as executor

        log, price_batch = self.log, executor.price_batch

        def traced_price(items):
            log.counts["vecprice.cells"] += len(items)
            record = log.begin("vecprice.price")
            try:
                return price_batch(items)
            finally:
                log.end(record)

        self.patch(executor, "price_batch", traced_price)

    # -- campaign and characterize layers -----------------------------------

    def install_batch_layers(self, package_of: dict) -> None:
        """Wrap the engine, scenario, fault and closed-loop layers."""
        import repro.api as api
        import repro.engine as engine
        import repro.engine.executor as executor
        import repro.faults as faults
        import repro.scenarios as scenarios
        from repro.attitude.filters import Mahony
        from repro.closedloop.runner import (
            FlappingWingRunner,
            MissionFaultHook,
            StriderRunner,
        )
        from repro.closedloop.simulator import FlappingWingBody, WaterStrider
        from repro.control.geometric import GeometricController
        from repro.control.smac import SlidingModeAdaptiveController
        from repro.mcu.energy import EnergyModel
        from repro.mcu.pipeline import PipelineModel

        log, counts, local = self.log, self.log.counts, threading.local()
        wrap = log.wrap

        self.patch(scenarios.ScenarioGenerator, "sample", wrap(
            scenarios.ScenarioGenerator.sample, "scenarios.generate"))
        self.patch(scenarios, "run_scenario_set", wrap(
            scenarios.run_scenario_set, "scenarios.campaign"))
        self.patch(scenarios, "build_report", wrap(
            scenarios.build_report, "scenarios.report"))
        self.patch(faults, "run_campaign", wrap(
            faults.run_campaign, "faults.campaign"))
        self.patch(api, "build_report", wrap(
            api.build_report, "faults.report"))
        self.patch(engine, "run_sweep_engine", wrap(
            engine.run_sweep_engine, "engine.sweep"))

        build_plan = executor.build_plan

        def traced_build_plan(spec):
            record = log.begin("engine.plan")
            try:
                plan = build_plan(spec)
            finally:
                log.end(record)
            counts["engine.cells"] += len(plan.cells)
            counts["engine.cells_skipped"] += sum(
                len(job.skip_cells) for job in plan.jobs)
            return plan

        self.patch(executor, "build_plan", traced_build_plan)

        solve_profile = executor.solve_profile

        def traced_solve(kernel, *args, **kwargs):
            record = log.begin(f"{package_of[kernel]}.solve", rid=kernel)
            try:
                return solve_profile(kernel, *args, **kwargs)
            finally:
                log.end(record)
                counts["engine.solves"] += 1

        self.patch(executor, "solve_profile", traced_solve)
        self._trace_pricing()

        # Mission runners: the per-step layers below only record spans
        # while a runner is flying, so the same classes used inside a
        # kernel solve stay part of that solve's time.
        jobs = itertools.count()

        def runner_wrapper(run):
            def traced_run(runner, mission):
                record = log.begin("closedloop.run", rid=f"job{next(jobs)}")
                local.flying = True
                try:
                    return run(runner, mission)
                finally:
                    local.flying = False
                    log.end(record)
                    counts["closedloop.missions"] += 1
                    hook = runner.fault_hook
                    if hook is not None:
                        counts["faults.injections"] += len(hook.events)
            return traced_run

        for cls in (FlappingWingRunner, StriderRunner):
            self.patch(cls, "run", runner_wrapper(cls.run))

        def step_wrapper(fn, name, count_key=None):
            def traced(*args, **kwargs):
                if not getattr(local, "flying", False):
                    return fn(*args, **kwargs)
                if count_key is not None:
                    counts[count_key] += 1
                record = log.begin(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    log.end(record)
            return traced

        for cls in (FlappingWingBody, WaterStrider):
            for attr, value in list(vars(cls).items()):
                if attr == "step":
                    self.patch(cls, attr, step_wrapper(
                        value, "closedloop.simulator",
                        "closedloop.physics_steps"))
                elif attr.startswith("read_"):
                    self.patch(cls, attr, step_wrapper(
                        value, "closedloop.simulator"))
        self.patch(Mahony, "update", step_wrapper(
            vars(Mahony)["update"], "attitude.update"))
        for cls in (GeometricController, SlidingModeAdaptiveController):
            self.patch(cls, "compute", step_wrapper(
                vars(cls)["compute"], "control.compute",
                "closedloop.control_steps"))
        self.patch(PipelineModel, "cycles", step_wrapper(
            vars(PipelineModel)["cycles"], "mcu.step_price",
            "mcu.step_price_calls"))
        self.patch(EnergyModel, "report", step_wrapper(
            vars(EnergyModel)["report"], "mcu.step_price"))

        hooks = [MissionFaultHook]
        while hooks:
            cls = hooks.pop()
            hooks.extend(cls.__subclasses__())
            for attr in ("on_imu", "on_heading", "on_price", "abort_reason"):
                if attr in vars(cls):
                    self.patch(cls, attr, step_wrapper(
                        vars(cls)[attr], "faults.hook"))

    # -- service layers (run inside the server process) ---------------------

    def install_service_layers(self, window) -> None:
        """Wrap the service request path: decode to encode.

        ``window.mark(log)`` runs when the load generator sends
        :data:`SERVICE_MARK`, so set-up traffic stays out of the
        measured window.  The cache, spill, batch and shed counts come
        from the server's own ``stats`` replies (``service_load.py``);
        only the L3 count, which ``stats`` does not carry, is kept here.
        """
        import repro.service.aio as aio
        import repro.service.broker as broker
        import repro.service.shard as shard
        from repro.service.admission import AdmissionController
        from repro.service.cache import ResultCache, TieredResultCache

        log, counts = self.log, self.log.counts
        wrap = log.wrap
        rid_of_query = {}
        root_of_rid = {}
        request_ids = itertools.count(1)
        #: ``(root span, response)`` of the request this connection has
        #: answered and not yet encoded.
        unencoded = contextvars.ContextVar("perfbench_unencoded", default=None)

        answer_line = aio.AsyncServiceServer.answer_line

        async def traced_answer_line(server, line):
            if line == SERVICE_MARK:
                window.mark(log)
                return await answer_line(server, line)
            rid = f"req{next(request_ids)}"
            root = log.open_detached("service.request", rid=rid)
            root_of_rid[rid] = root
            log.task_parent.set(root)
            response = await answer_line(server, line)
            unencoded.set((root, response))
            return response

        self.patch(aio.AsyncServiceServer, "answer_line", traced_answer_line)

        def traced_dumps(obj, *args, **kwargs):
            record = log.begin("service.encode")
            try:
                return json.dumps(obj, *args, **kwargs)
            finally:
                log.end(record)
                pending = unencoded.get()
                # The request ends once its own response is encoded.
                if pending is not None and pending[1] is obj:
                    unencoded.set(None)
                    log.task_parent.set(None)
                    log.close_detached(pending[0])

        self.patch(aio, "json", _TimedJson(
            wrap(json.loads, "service.decode"), traced_dumps))
        self.patch(aio, "shape_ok", wrap(aio.shape_ok, "service.encode"))

        parse_request = aio.parse_request

        def traced_parse(request):
            record = log.begin("service.decode")
            try:
                query = parse_request(request)
            finally:
                log.end(record)
            rid_of_query[id(query)] = record[RID]
            return query

        self.patch(aio, "parse_request", traced_parse)

        pool_submit = shard.ShardPool.submit

        def traced_submit(pool, query):
            # The rid stays mapped until the dispatcher picks the ticket
            # up: it may do so before this thread returns.
            rid = rid_of_query.get(id(query))
            record = log.begin("service.submit", rid=rid,
                               parent=root_of_rid.get(rid))
            try:
                return pool_submit(pool, query)
            except Exception:
                rid_of_query.pop(id(query), None)
                raise
            finally:
                log.end(record)

        self.patch(shard.ShardPool, "submit", traced_submit)
        self.patch(shard, "query_key", wrap(shard.query_key, "service.route"))
        self.patch(shard, "shard_of", wrap(shard.shard_of, "service.route"))
        self.patch(AdmissionController, "try_admit", wrap(
            AdmissionController.try_admit, "service.admission"))

        run_batch = broker.ServiceBroker._run_batch
        local = threading.local()

        def traced_batch(service_broker, batch):
            dispatched = perf_counter()
            rids = [rid_of_query.pop(id(t.query), None) for t in batch]
            rid_of_key = {}
            for ticket, rid in zip(batch, rids):
                rid_of_key.setdefault(ticket.key, rid)
                log.add("service.queue_wait", ticket.submitted_s, dispatched,
                        parent=root_of_rid.get(rid), rid=rid)
            first = rids[0] if rids else None
            record = log.begin("service.batch", rid=first,
                               parent=root_of_rid.get(first))
            local.rid_of_key = rid_of_key
            try:
                return run_batch(service_broker, batch)
            finally:
                local.rid_of_key = {}
                log.end(record)
                for rid in rids:
                    root_of_rid.pop(rid, None)

        self.patch(broker.ServiceBroker, "_run_batch", traced_batch)

        def cache_wrapper(fn):
            def traced(cache, key, *args):
                rid = getattr(local, "rid_of_key", {}).get(key)
                record = log.begin("service.cache", rid=rid)
                try:
                    return fn(cache, key, *args)
                finally:
                    log.end(record)
            return traced

        self.patch(TieredResultCache, "get_tiered",
                   cache_wrapper(TieredResultCache.get_tiered))
        self.patch(ResultCache, "put", cache_wrapper(ResultCache.put))
        self.patch(broker, "build_cell_plan",
                   wrap(broker.build_cell_plan, "service.solve"))

        run_plan = broker.run_plan

        def traced_run_plan(plan, options=None, telemetry=None):
            stats = getattr(options.trace_cache, "stats", None)
            before = stats.hits if stats is not None else 0
            record = log.begin("service.solve")
            try:
                return run_plan(plan, options=options, telemetry=telemetry)
            finally:
                log.end(record)
                if stats is not None:
                    counts["service.l3_hits"] += stats.hits - before

        self.patch(broker, "run_plan", traced_run_plan)
        self._trace_pricing()


#: Every per-layer metric and its unit; each workload reports all of
#: them, 0 where the workload never enters that layer.
LAYER_METRICS = {
    "scenarios.generate_s": "s",
    "scenarios.campaign_s": "s",
    "scenarios.report_s": "s",
    "faults.campaign_s": "s",
    "faults.report_s": "s",
    "engine.sweep_s": "s",
    "engine.plan_s": "s",
    "engine.solve_s": "s",
    "engine.solves": "count",
    **{f"{package}.solve_s": "s" for package in KERNEL_PACKAGES},
    "engine.cells": "count",
    "engine.cells_skipped": "count",
    "vecprice.price_s": "s",
    "vecprice.cells": "count",
    "closedloop.run_s": "s",
    "closedloop.missions": "count",
    "closedloop.control_steps": "count",
    "closedloop.physics_steps": "count",
    "closedloop.simulator_s": "s",
    "attitude.update_s": "s",
    "control.compute_s": "s",
    "mcu.step_price_s": "s",
    "mcu.step_price_memo_hit_ratio": "ratio",
    "faults.hook_s": "s",
    "faults.injections": "count",
    "service.decode_s": "s",
    "service.submit_s": "s",
    "service.route_s": "s",
    "service.admission_s": "s",
    "service.shed": "count",
    "service.queue_wait_s": "s",
    "service.batch_s": "s",
    "service.batch_size": "count",
    "service.cache_s": "s",
    "service.l1_hits": "count",
    "service.l2_hits": "count",
    "service.l3_hits": "count",
    "service.misses": "count",
    "service.l2_spills": "count",
    "service.solve_s": "s",
    "service.encode_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.layer_sum_s": "s",
    "trace.layer_sum_ratio": "ratio",
    "trace.layer_sum_ok": "count",
    "trace.unattributed_s": "s",
    "trace.spans": "count",
}

#: Root span names: their self time is time inside no named layer.
ROOT_SPANS = ("bench.round", "service.request")

#: The layer-sum check passes when the layers' self times add up to
#: the traced wall time within this share of it.
LAYER_SUM_TOLERANCE = 0.05


def layer_metrics(summary: dict, counts: dict, units: int, wall_s: float,
                  untraced_wall_s: float, generate_s: float = 0.0) -> dict:
    """Per-layer metrics per unit of work (a round, or a query block).

    ``summary`` is a :func:`layer_summary` over ``units`` units and
    ``counts`` are the counters over the same units.  ``wall_s`` and
    ``untraced_wall_s`` are host times of one unit, traced and not;
    ``generate_s`` is the set-up's scenario generation time.
    """
    per_unit = 1.0 / max(units, 1)
    layers = summary["layers"]
    out = {name: 0.0 for name in LAYER_METRICS}
    for name, self_s in layers.items():
        key = f"{name}_s"
        if key in out:
            out[key] = self_s * per_unit
    out["engine.solve_s"] = sum(out[f"{p}.solve_s"] for p in KERNEL_PACKAGES)
    for key, count in counts.items():
        if LAYER_METRICS.get(key) == "count":
            out[key] = count * per_unit
    steps = counts.get("closedloop.control_steps", 0)
    if steps:
        out["mcu.step_price_memo_hit_ratio"] = (
            1.0 - counts.get("mcu.step_price_calls", 0) / steps)
    if counts.get("service.batches"):
        out["service.batch_size"] = (
            counts["service.batched_queries"] / counts["service.batches"])
    out["scenarios.generate_s"] = generate_s
    layer_sum = sum(layers.values()) * per_unit
    out["trace.wall_s"] = wall_s
    out["trace.untraced_wall_s"] = untraced_wall_s
    out["trace.overhead_s"] = wall_s - untraced_wall_s
    out["trace.overhead_ratio"] = (
        (wall_s - untraced_wall_s) / untraced_wall_s if untraced_wall_s else 0.0)
    roots_s = summary["roots_s"] * per_unit
    out["trace.layer_sum_s"] = layer_sum
    out["trace.layer_sum_ratio"] = layer_sum / roots_s if roots_s else 0.0
    out["trace.layer_sum_ok"] = float(
        abs(layer_sum - roots_s) <= LAYER_SUM_TOLERANCE * roots_s)
    out["trace.unattributed_s"] = sum(
        layers.get(name, 0.0) for name in ROOT_SPANS) * per_unit
    out["trace.spans"] = summary["spans"] * per_unit
    return out
