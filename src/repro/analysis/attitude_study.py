"""Case Study 2 analytics: the precision-energy frontier (Table VII, Fig. 4).

* :func:`fixed_point_failure_sweep` — run each attitude filter across the
  full range of Q formats on each maneuver dataset and count failure
  events (overflow, near-zero divisors, quaternion norm drift, attitude
  error beyond 2.5 degrees) — the data behind Figure 4.
* :func:`table7_attitude` — latency/energy/peak-power of each filter in
  f32 and q7.24 on Cortex-M0+, M4 and M33 — Table VII.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.analysis.tables import study_sweep
from repro.core import registry
from repro.core.config import HarnessConfig
from repro.mcu.arch import get_arch
from repro.scalar import F32, ScalarType, parse_scalar

#: Filter variants of Case Study 2: (registry name, label).
FILTER_VARIANTS = [
    ("mahony", "mahony (I)"),
    ("madgwick", "madgwick (I)"),
    ("mahony (marg)", "mahony (M)"),
    ("madgwick (marg)", "madgwick (M)"),
    ("fourati", "fourati (M)"),
]

#: The three motion profiles (Fig. 4's solid/dashed/dotted lines).
DATASETS = ("bee-hover", "strider-straight", "strider-steer")

#: Table VII cores.
TABLE7_ARCHS = ("m0plus", "m4", "m33")


def fixed_point_failure_sweep(
    filters: Optional[Iterable] = None,
    datasets: Iterable[str] = DATASETS,
    int_bits_range: Iterable[int] = range(1, 29),
    n_samples: int = 150,
    seed: int = 0,
) -> List[Dict]:
    """Failure rate of each filter/dataset across the Q-format sweep.

    Returns one row per (filter, dataset, q format): the failure flag, the
    event breakdown, and the mean attitude error.  "The full range of
    possible values" of Fig. 4 maps to ``int_bits_range``.
    """
    rows: List[Dict] = []
    import numpy as np

    for name, label in (filters if filters is not None else FILTER_VARIANTS):
        for dataset in datasets:
            for int_bits in int_bits_range:
                scalar = parse_scalar(f"q{int_bits}.{31 - int_bits}")
                problem = registry.create(
                    name, scalar=scalar, dataset=dataset, n_samples=n_samples,
                    seed=seed,
                )
                problem.ensure_setup()
                from repro.mcu.ops import OpCounter

                problem.solve(OpCounter())
                events = problem.failure_events()
                failed = not problem.validate(None)
                rows.append(
                    {
                        "filter": label,
                        "dataset": dataset,
                        "q_int": int_bits,
                        "q_frac": 31 - int_bits,
                        "failed": failed,
                        "events": events,
                        "mean_error_deg": float(
                            np.mean(problem.last_errors_deg[n_samples // 2 :])
                        ),
                    }
                )
    return rows


def failure_rate_by_format(rows: List[Dict]) -> Dict:
    """Aggregate sweep rows into Fig. 4's series.

    Returns ``{(filter, dataset): [(q_int, failed), ...]}`` sorted by
    integer bits.
    """
    series: Dict = {}
    for row in rows:
        key = (row["filter"], row["dataset"])
        series.setdefault(key, []).append((row["q_int"], row["failed"]))
    for key in series:
        series[key].sort()
    return series


def feasible_window(rows: List[Dict], filter_label: str, dataset: str) -> List[int]:
    """Integer-bit counts where the filter does NOT fail (Fig. 4's dips)."""
    return sorted(
        row["q_int"]
        for row in rows
        if row["filter"] == filter_label
        and row["dataset"] == dataset
        and not row["failed"]
    )


def table7_attitude(
    scalars: Iterable = (F32, parse_scalar("q7.24")),
    dataset: str = "bee-hover",
    n_samples: int = 150,
    config: Optional[HarnessConfig] = None,
) -> List[Dict]:
    """Table VII: per-update latency (us), energy (nJ), peak power (mW)."""
    scalars = [s if isinstance(s, ScalarType) else parse_scalar(s) for s in scalars]
    archs = [get_arch(a) for a in TABLE7_ARCHS]
    filters = [name for name, _ in FILTER_VARIANTS]
    # A sweep gives each kernel name one configuration: one per format.
    sweeps = {
        scalar.name: study_sweep(filters, archs, config, scalar=scalar,
                                 dataset=dataset, n_samples=n_samples)
        for scalar in scalars
    }
    rows: List[Dict] = []
    for name, label in FILTER_VARIANTS:
        for scalar in scalars:
            row = {"filter": label, "format": scalar.name}
            for arch_name in TABLE7_ARCHS:
                result = sweeps[scalar.name].lookup(name, arch_name)
                row[f"latency_{arch_name}_us"] = result.unit_latency_us
                row[f"energy_{arch_name}_nj"] = result.unit_energy_uj * 1e3
                row[f"pmax_{arch_name}_mw"] = result.peak_power_mw
            rows.append(row)
    return rows


def render_table7(rows: List[Dict]) -> str:
    header = (
        f"{'Filter':14s} {'Fmt':6s} "
        + "".join(f"{'lat ' + a:>12s} " for a in TABLE7_ARCHS)
        + "".join(f"{'E(nJ) ' + a:>12s} " for a in TABLE7_ARCHS)
        + "".join(f"{'Pmax ' + a:>10s} " for a in TABLE7_ARCHS)
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        line = f"{r['filter']:14s} {r['format']:6s} "
        for a in TABLE7_ARCHS:
            line += f"{r[f'latency_{a}_us']:11.1f}us "
        for a in TABLE7_ARCHS:
            line += f"{r[f'energy_{a}_nj']:12.0f} "
        for a in TABLE7_ARCHS:
            line += f"{r[f'pmax_{a}_mw']:10.0f} "
        lines.append(line)
    return "\n".join(lines)
