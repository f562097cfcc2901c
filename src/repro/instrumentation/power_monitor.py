"""Simulated inline current probe (the STLINK-V3PWR stand-in).

The harness reports power *segments* (a start time, a duration, an average
power, a peak power).  When an acquisition is armed — by the same trigger
pin a real STLINK-V3PWR waits on — the monitor synthesizes a current trace
from those segments at the probe's 100 kHz sample rate with 50 nA
resolution: per-sample noise, burst structure that actually reaches the
reported peak, and a local clock with a small skew relative to the logic
analyzer.  The analysis pipeline must recover latency/energy/peak power
from this trace, exactly as the paper's Python scripts do from real logs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np


@dataclass(frozen=True)
class PowerSegment:
    """One constant-activity stretch of the power profile (harness time)."""

    start_s: float
    duration_s: float
    avg_power_w: float
    peak_power_w: float


@dataclass(frozen=True)
class CurrentTrace:
    """A captured current log, in monitor-local time."""

    times_s: np.ndarray
    current_a: np.ndarray
    supply_v: float

    @property
    def power_w(self) -> np.ndarray:
        return self.current_a * self.supply_v

    def __len__(self) -> int:
        return len(self.times_s)


class PowerMonitor:
    """Segment-driven current-trace synthesizer."""

    SAMPLE_RATE_HZ = 100e3
    CURRENT_RESOLUTION_A = 50e-9

    def __init__(
        self,
        supply_v: float = 3.3,
        noise_a: float = 8e-6,
        clock_skew_ppm: float = 40.0,
        start_offset_s: float = 0.0,
        seed: int = 1234,
        rng: Optional[np.random.Generator] = None,
        capture_filter: Optional[Callable[["CurrentTrace"], "CurrentTrace"]] = None,
    ):
        self.supply_v = supply_v
        self.noise_a = noise_a
        # Local clock runs at (1 + skew) x true rate — sync must correct it.
        self.clock_skew = clock_skew_ppm * 1e-6
        self.start_offset_s = start_offset_s
        # All of the probe's randomness (noise, burst placement) draws from
        # this one explicit generator so experiments are reproducible
        # end-to-end: pass a config-seeded ``numpy.random.Generator`` to
        # share a stream, or rely on ``seed`` for a private one.
        self._rng = rng if rng is not None else np.random.default_rng(seed)
        # Optional post-processing applied to every captured trace — the
        # seam probe-fault injectors (sample drops, skew drift, saturation)
        # hook into without the monitor knowing about fault models.
        self._capture_filter = capture_filter
        self._armed = False
        self._acquiring = False
        self._segments: List[PowerSegment] = []
        self._acquire_from_s: Optional[float] = None

    # -- trigger handling (wire to the GPIO bus) ----------------------------

    def arm(self) -> None:
        """Arm the monitor: the next trigger rising edge starts acquisition."""
        self._armed = True

    def on_gpio(self, event) -> None:
        """GPIO listener: trigger pin starts acquisition when armed."""
        if event.pin == "trigger" and event.state and self._armed:
            self._armed = False
            self._acquiring = True
            self._acquire_from_s = event.time_s

    # -- segment intake -------------------------------------------------------

    def add_segment(self, start_s: float, duration_s: float,
                    avg_power_w: float, peak_power_w: Optional[float] = None) -> None:
        if duration_s <= 0:
            return
        if self._acquiring:
            self._segments.append(
                PowerSegment(
                    start_s, duration_s, avg_power_w,
                    peak_power_w if peak_power_w is not None else avg_power_w,
                )
            )

    # -- trace synthesis --------------------------------------------------------

    def capture(self) -> CurrentTrace:
        """Synthesize the captured current trace from recorded segments."""
        if not self._segments or self._acquire_from_s is None:
            return CurrentTrace(np.array([]), np.array([]), self.supply_v)
        t0 = self._acquire_from_s
        end = max(s.start_s + s.duration_s for s in self._segments)
        dt = 1.0 / self.SAMPLE_RATE_HZ
        n = int(np.ceil((end - t0) / dt)) + 2
        true_times = t0 + np.arange(n) * dt
        power = np.zeros(n)

        for seg in self._segments:
            mask = (true_times >= seg.start_s) & (
                true_times < seg.start_s + seg.duration_s
            )
            count = int(mask.sum())
            if count == 0:
                # Segment shorter than a sample period: land its energy on
                # the nearest sample so short kernels are still integrable.
                idx = int(round((seg.start_s - t0) / dt))
                if 0 <= idx < n:
                    power[idx] += seg.avg_power_w * seg.duration_s / dt
                continue
            base = np.full(count, seg.avg_power_w)
            # Preserve segment energy when sampling over-covers a short
            # segment (a window shorter than count * dt).
            covered = count * dt
            if covered > seg.duration_s:
                base *= seg.duration_s / covered
            if seg.peak_power_w > seg.avg_power_w and count >= 3:
                # Shape a burst: a few samples reach the true peak while the
                # mean is preserved.
                burst_n = max(1, count // 10)
                burst_idx = self._rng.choice(count, size=burst_n, replace=False)
                delta = seg.peak_power_w - seg.avg_power_w
                base[burst_idx] += delta
                base -= delta * burst_n / count  # preserve the average
            power[mask] = base

        current = power / self.supply_v
        current += self._rng.normal(0.0, self.noise_a, size=n)
        current = np.maximum(current, 0.0)
        current = (
            np.round(current / self.CURRENT_RESOLUTION_A) * self.CURRENT_RESOLUTION_A
        )
        # Express time on the monitor's skewed local clock.
        local_times = (true_times - t0) * (1.0 + self.clock_skew) + self.start_offset_s
        trace = CurrentTrace(local_times, current, self.supply_v)
        if self._capture_filter is not None:
            trace = self._capture_filter(trace)
        return trace
