"""Result records and aggregation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.mcu.ops import OpTrace


@dataclass(frozen=True)
class RunRecord:
    """One repetition of one benchmark configuration."""

    rep: int
    cycles: float
    latency_s: float
    energy_j: float
    avg_power_w: float
    peak_power_w: float
    trace: OpTrace
    valid: bool

    @property
    def latency_us(self) -> float:
        return self.latency_s * 1e6

    @property
    def energy_uj(self) -> float:
        return self.energy_j * 1e6


@dataclass
class BenchmarkResult:
    """Aggregate of all repetitions of one configuration."""

    kernel: str
    arch: str
    cache: str  # "C" or "NC"
    scalar: str
    dataset: str
    stage: str
    runs: List[RunRecord] = field(default_factory=list)
    fits: bool = True
    skip_reason: Optional[str] = None
    #: Algorithmic units per solve() (filter updates, control steps...).
    work_units: int = 1

    def _values(self, attr: str) -> List[float]:
        return [getattr(r, attr) for r in self.runs]

    @property
    def mean_cycles(self) -> float:
        vals = self._values("cycles")
        return sum(vals) / len(vals) if vals else float("nan")

    @property
    def mean_latency_s(self) -> float:
        vals = self._values("latency_s")
        return sum(vals) / len(vals) if vals else float("nan")

    @property
    def mean_latency_us(self) -> float:
        return self.mean_latency_s * 1e6

    @property
    def mean_energy_j(self) -> float:
        vals = self._values("energy_j")
        return sum(vals) / len(vals) if vals else float("nan")

    @property
    def mean_energy_uj(self) -> float:
        return self.mean_energy_j * 1e6

    @property
    def peak_power_w(self) -> float:
        vals = self._values("peak_power_w")
        return max(vals) if vals else float("nan")

    @property
    def peak_power_mw(self) -> float:
        return self.peak_power_w * 1e3

    @property
    def mean_power_mw(self) -> float:
        vals = self._values("avg_power_w")
        return (sum(vals) / len(vals)) * 1e3 if vals else float("nan")

    # -- per-unit figures (what the paper's tables show for high-rate
    # kernels: latency/energy *per update*, not per full-sequence solve) --

    @property
    def unit_cycles(self) -> float:
        return self.mean_cycles / max(self.work_units, 1)

    @property
    def unit_latency_us(self) -> float:
        return self.mean_latency_us / max(self.work_units, 1)

    @property
    def unit_energy_uj(self) -> float:
        return self.mean_energy_uj / max(self.work_units, 1)

    @property
    def all_valid(self) -> bool:
        return all(r.valid for r in self.runs)

    def summary(self) -> dict:
        return {
            "kernel": self.kernel,
            "arch": self.arch,
            "cache": self.cache,
            "scalar": self.scalar,
            "dataset": self.dataset,
            "stage": self.stage,
            "fits": self.fits,
            "reps": len(self.runs),
            "cycles": self.mean_cycles,
            "latency_us": self.mean_latency_us,
            "energy_uj": self.mean_energy_uj,
            "peak_power_mw": self.peak_power_mw,
            "avg_power_mw": self.mean_power_mw,
            "valid": self.all_valid,
        }


def si_format(value: float, digits: int = 3) -> str:
    """Compact engineering formatting like the paper's tables (26K, 2M...)."""
    if value != value:  # NaN
        return "-"
    a = abs(value)
    if a >= 1e6:
        return f"{value / 1e6:.0f}M"
    if a >= 1e3:
        return f"{value / 1e3:.0f}K"
    if a >= 100:
        return f"{value:.0f}"
    if a >= 10:
        return f"{value:.0f}"
    if a >= 1:
        return f"{value:.0f}"
    return f"{value:.1f}"
