"""Structured sweep telemetry.

Replaces the bare ``Callable[[str], None]`` progress hook with typed
events: cell lifecycle (finished / skipped), solve lifecycle
(started / finished / cache hit), and sweep bracketing.  Subscribers
receive every event as it is emitted; the collector additionally keeps
counters and per-stage wall-clock so a sweep ends with a one-shot
:meth:`Telemetry.summary` report — cache hit rate, cells run vs skipped,
solver wall time, jobs in flight, and the estimated speedup over the
serial driver (which would have re-executed each kernel once per cell).

The legacy string callback remains available through
:func:`progress_subscriber`, which renders ``cell_finished`` /
``cell_skipped`` events into the exact lines ``run_sweep`` always printed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

#: Event kinds, for reference and validation.
EVENT_KINDS = (
    "sweep_started",
    "solve_started",
    "solve_finished",
    "cache_hit",
    "cell_finished",
    "cell_skipped",
    "sweep_finished",
    # Fault-campaign lifecycle (repro.faults): campaign bracketing, one
    # event per mission cell, one per injected fault occurrence, and the
    # closed-loop runner's overrun-degradation attribution event.
    "campaign_started",
    "campaign_finished",
    "mission_started",
    "mission_finished",
    "fault_injected",
    "overrun_degraded",
)


@dataclass(frozen=True)
class TelemetryEvent:
    """One structured progress event."""

    kind: str
    #: Seconds since the sweep started (engine wall clock).
    t_s: float
    kernel: str = ""
    arch: str = ""
    cache: str = ""
    detail: dict = field(default_factory=dict)

    def render(self) -> str:
        """Human-readable one-liner (for verbose CLI output)."""
        where = "/".join(p for p in (self.arch, self.cache) if p)
        subject = " ".join(p for p in (self.kernel, f"on {where}" if where else "") if p)
        extras = " ".join(f"{k}={v}" for k, v in self.detail.items())
        return f"[{self.t_s:8.3f}s] {self.kind:14s} {subject} {extras}".rstrip()


class Telemetry:
    """Collects events, counters, and stage timings for one sweep."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._t0 = clock()
        self.events: List[TelemetryEvent] = []
        self.counts: Dict[str, int] = {kind: 0 for kind in EVENT_KINDS}
        self._subscribers: List[Callable[[TelemetryEvent], None]] = []
        self._stage_wall: Dict[str, float] = {}
        self._stage_open: Dict[str, float] = {}
        #: Concurrency high-water mark, maintained by the executor.
        self.in_flight = 0
        self.max_in_flight = 0
        #: Observed solve wall seconds per job key (executor-provided).
        self.solve_wall_by_key: Dict[str, float] = {}
        #: Solve wall seconds recorded in cache-hit profiles at the time
        #: they were originally solved.
        self.cached_solve_s: Dict[str, float] = {}
        #: Filled by the executor: cells each solve key had to cover.
        self.cells_by_key: Dict[str, int] = {}
        self.cache_stats: dict = {}
        self.jobs_requested = 1

    # -- event flow ----------------------------------------------------------

    def subscribe(self, fn: Callable[[TelemetryEvent], None]) -> None:
        """Call ``fn`` synchronously with every subsequently emitted event."""
        self._subscribers.append(fn)

    def emit(
        self,
        kind: str,
        kernel: str = "",
        arch: str = "",
        cache: str = "",
        **detail,
    ) -> TelemetryEvent:
        """Record one event, bump its kind counter, notify subscribers.

        Args:
            kind: Event kind (``solve_started``, ``cache_hit``, ...).
            kernel: Kernel the event concerns, when applicable.
            arch: Core the event concerns, when applicable.
            cache: Cache label the event concerns, when applicable.
            **detail: Free-form extra payload stored on the event.

        Returns:
            The recorded :class:`TelemetryEvent`.
        """
        event = TelemetryEvent(
            kind=kind,
            t_s=self._clock() - self._t0,
            kernel=kernel,
            arch=arch,
            cache=cache,
            detail=detail,
        )
        self.events.append(event)
        self.counts[kind] = self.counts.get(kind, 0) + 1
        for fn in self._subscribers:
            fn(event)
        return event

    # -- concurrency + stage accounting --------------------------------------

    def job_launched(self) -> None:
        """Count one solve job entering flight (tracks peak concurrency)."""
        self.in_flight += 1
        self.max_in_flight = max(self.max_in_flight, self.in_flight)

    def job_retired(self) -> None:
        """Count one solve job leaving flight."""
        self.in_flight = max(self.in_flight - 1, 0)

    def stage_start(self, name: str) -> None:
        """Open the wall-clock window for a named stage (solve/price)."""
        self._stage_open[name] = self._clock()

    def stage_end(self, name: str) -> None:
        """Close a stage window, accumulating its wall time."""
        start = self._stage_open.pop(name, None)
        if start is not None:
            self._stage_wall[name] = (
                self._stage_wall.get(name, 0.0) + self._clock() - start
            )

    @property
    def wall_s(self) -> float:
        """Wall seconds since this collector was created."""
        return self._clock() - self._t0

    # -- reporting ------------------------------------------------------------

    def serial_estimate_s(self) -> float:
        """What the serial driver's kernel compute would have cost.

        The serial path re-solves a kernel once per priced cell; the
        engine solved (or cache-hit) each job once.  The estimate sums
        per-job solve wall time — observed this run, or recorded in the
        cached profile at original solve time — multiplied by that job's
        cell count; jobs with neither contribute the mean known solve
        time per cell (zero if nothing is known at all).
        """
        known = dict(self.cached_solve_s)
        known.update(self.solve_wall_by_key)
        mean_solve = sum(known.values()) / len(known) if known else 0.0
        total = 0.0
        for key, n_cells in self.cells_by_key.items():
            total += known.get(key, mean_solve) * n_cells
        return total

    def summary(self) -> dict:
        """One flat dict summarizing the run (cells, solves, cache, speedup)."""
        cells_run = self.counts.get("cell_finished", 0)
        cells_skipped = self.counts.get("cell_skipped", 0)
        solves = self.counts.get("solve_finished", 0)
        cache_hits = self.counts.get("cache_hit", 0)
        lookups = solves + cache_hits
        wall = self.wall_s
        serial_est = self.serial_estimate_s()
        return {
            "cells_total": cells_run + cells_skipped,
            "cells_run": cells_run,
            "cells_skipped": cells_skipped,
            "solves_executed": solves,
            "cache_hits": cache_hits,
            "cache_hit_rate": cache_hits / lookups if lookups else 0.0,
            "cache": dict(self.cache_stats),
            "jobs_requested": self.jobs_requested,
            "max_jobs_in_flight": self.max_in_flight,
            "wall_s": wall,
            "stage_wall_s": dict(self._stage_wall),
            "serial_estimate_s": serial_est,
            "est_speedup_vs_serial": serial_est / wall if wall > 0 else 0.0,
            "events": len(self.events),
        }


def progress_subscriber(
    progress: Callable[[str], None],
) -> Callable[[TelemetryEvent], None]:
    """Adapt a legacy string-progress callback into an event subscriber.

    Emits exactly the lines the pre-engine ``run_sweep`` produced: one
    ``"<kernel> on <arch>/<cache>: ok|skip"`` per completed cell.
    """

    def on_event(event: TelemetryEvent) -> None:
        if event.kind == "cell_finished":
            status = "ok" if event.detail.get("fits", True) else "skip"
            progress(f"{event.kernel} on {event.arch}/{event.cache}: {status}")
        elif event.kind == "cell_skipped":
            progress(f"{event.kernel} on {event.arch}/{event.cache}: skip")

    return on_event


def verbose_subscriber(
    write: Callable[[str], None],
) -> Callable[[TelemetryEvent], None]:
    """Render every event as a structured one-liner (CLI ``--verbose``)."""

    def on_event(event: TelemetryEvent) -> None:
        write(event.render())

    return on_event
