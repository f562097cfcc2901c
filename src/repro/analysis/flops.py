"""Case Study 3 analytics: is FLOP counting a good model? (Table VIII).

Compares, for the sensor-fusion and control kernels:

* the *static FLOP tally* the robotics literature would quote (each
  problem's :meth:`flop_estimate`),
* the FLOP-and-datasheet *estimated energy* (FLOPs x one cycle each x
  nominal energy per cycle), and
* the *measured* cycles and energy from the simulated characterization.

The systematic gap between the two energy columns — and its wild variance
across kernels — is the case study's headline result.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.analysis.tables import study_sweep
from repro.core import registry
from repro.core.config import HarnessConfig
from repro.mcu.arch import ArchSpec, get_arch

#: Table VIII kernels.
TABLE8_KERNELS = (
    "fly-ekf (seq)",
    "fly-ekf (trunc)",
    "bee-ceekf",
    "fly-lqr",
    "fly-tiny-mpc",
)

TABLE8_ARCHS = ("m4", "m33", "m7")


def datasheet_energy_per_flop_j(arch: ArchSpec) -> float:
    """The naive estimate: nominal active power / clock, one FLOP per cycle.

    This is exactly the "FLOPs + datasheet" methodology the paper
    critiques: it assumes ideal single-cycle float throughput and ignores
    memory, control flow, and library overhead entirely.
    """
    return (arch.power.active_mw / 1e3) / arch.clock_hz


def flop_estimated_energy_j(arch: ArchSpec, flops: int) -> float:
    return flops * datasheet_energy_per_flop_j(arch)


def table8_flops(
    kernels: Iterable[str] = TABLE8_KERNELS,
    config: Optional[HarnessConfig] = None,
) -> List[Dict]:
    """Table VIII rows: FLOPs, cycles, estimated vs measured energy."""
    kernels = list(kernels)
    results = study_sweep(kernels, [get_arch(a) for a in TABLE8_ARCHS], config)
    rows: List[Dict] = []
    for kernel in kernels:
        probe = registry.create(kernel)
        probe.ensure_setup()
        flops_total = probe.flop_estimate()
        flops_per_unit = flops_total / max(probe.work_units, 1)
        row = {"kernel": kernel, "flops": int(flops_per_unit)}
        for arch_name in TABLE8_ARCHS:
            result = results.lookup(kernel, arch_name)
            est_j = flop_estimated_energy_j(get_arch(arch_name), int(flops_per_unit))
            row[f"cycles_{arch_name}"] = result.unit_cycles
            row[f"est_energy_{arch_name}_uj"] = est_j * 1e6
            row[f"meas_energy_{arch_name}_uj"] = result.unit_energy_uj
            row[f"gap_{arch_name}"] = (
                result.unit_energy_uj / (est_j * 1e6) if est_j > 0 else float("inf")
            )
        rows.append(row)
    return rows


def render_table8(rows: List[Dict]) -> str:
    header = (
        f"{'Kernel':16s} {'FLOPs':>7s} "
        + "".join(f"{'cyc ' + a:>10s} " for a in TABLE8_ARCHS)
        + "".join(f"{'Eest ' + a:>9s} " for a in TABLE8_ARCHS)
        + "".join(f"{'Emeas ' + a:>9s} " for a in TABLE8_ARCHS)
        + f"{'gap m4':>8s}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        line = f"{r['kernel']:16s} {r['flops']:7d} "
        for a in TABLE8_ARCHS:
            line += f"{r[f'cycles_{a}']:10.0f} "
        for a in TABLE8_ARCHS:
            line += f"{r[f'est_energy_{a}_uj']:9.3f} "
        for a in TABLE8_ARCHS:
            line += f"{r[f'meas_energy_{a}_uj']:9.3f} "
        line += f"{r['gap_m4']:7.1f}x"
        lines.append(line)
    return "\n".join(lines)
