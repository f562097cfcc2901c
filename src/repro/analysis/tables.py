"""Assembly and text rendering of the paper's tables.

Each ``table_*`` function returns structured rows (list of dicts) plus a
``render_*`` companion that prints the same layout the paper uses.  The
benchmark harness (`benchmarks/`) calls these to regenerate Tables III,
IV, V, VI, VII, and VIII.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.api import SweepResults, SweepSpec, characterize, sweep
from repro.core import registry
from repro.core.config import HarnessConfig
from repro.core.results import si_format
from repro.mcu.arch import CHARACTERIZATION_ARCHS, ArchSpec, get_arch
from repro.mcu.cache import CACHE_ON
from repro.mcu.memory import check_fit
from repro.mcu.static import static_profile

#: The 31 suite rows of Tables III/IV, in paper order.
TABLE_KERNELS = [
    "fastbrief", "orb", "sift", "lkof", "iiof", "bbof",
    "mahony", "madgwick", "fourati",
    "fly-ekf (sync)", "fly-ekf (seq)", "fly-ekf (trunc)", "bee-ceekf",
    "p3p", "up2p", "dlt", "absgoldstd",
    "up2pt", "up3pt", "u3pt", "5pt", "8pt", "relgoldstd", "homography",
    "abs-lo-ransac", "rel-lo-ransac",
    "fly-tiny-mpc", "fly-lqr", "bee-mpc", "bee-geom", "bee-smac",
]


def study_sweep(
    kernels: Iterable[str],
    archs: Iterable[ArchSpec],
    config: Optional[HarnessConfig] = None,
    **factory_kwargs,
) -> SweepResults:
    """One case-study grid: ``kernels`` on each of ``archs``, cache on.

    Each kernel configuration solves once and is priced on every core.
    ``factory_kwargs`` go to every kernel factory; ``config`` defaults to
    the case studies' one repetition with no warm-up.
    """
    return sweep(SweepSpec(
        kernels=list(kernels),
        archs=list(archs),
        caches=(CACHE_ON,),
        config=config if config is not None else HarnessConfig(reps=1, warmup_reps=0),
        overrides={"*": factory_kwargs},
    ))


def table3_static(kernels: Optional[Iterable[str]] = None) -> List[Dict]:
    """Table III: flash size and static F/I/M/B mix per kernel per core."""
    rows = []
    for name in (kernels if kernels is not None else TABLE_KERNELS):
        problem = registry.create(name)
        base = problem.static_mix_base()
        fits = {
            arch.name: check_fit(problem.footprint(), arch).fits
            for arch in CHARACTERIZATION_ARCHS
        }
        row = {
            "stage": problem.stage,
            "kernel": name,
            "category": problem.category,
            "dataset": problem.dataset_name,
            "flash": base.flash_bytes,
        }
        for arch in CHARACTERIZATION_ARCHS:
            if not fits[arch.name]:
                row[arch.name] = None
                continue
            mix = static_profile(name, base, arch)
            row[arch.name] = {"F": mix.f, "I": mix.i, "M": mix.m, "B": mix.b}
        rows.append(row)
    return rows


def render_table3(rows: List[Dict]) -> str:
    header = (
        f"{'St':2s} {'Kernel':17s} {'Category':14s} {'Flash':>7s} "
        + "".join(
            f"| {a.name.upper():>5s}:F {'I':>6s} {'M':>6s} {'B':>6s} "
            for a in CHARACTERIZATION_ARCHS
        )
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        line = (
            f"{row['stage']:2s} {row['kernel']:17s} {row['category']:14s} "
            f"{row['flash']:7d} "
        )
        for arch in CHARACTERIZATION_ARCHS:
            mix = row[arch.name]
            if mix is None:
                line += f"| {'-':>7s} {'-':>6s} {'-':>6s} {'-':>6s} "
            else:
                line += (
                    f"| {mix['F']:7d} {mix['I']:6d} {mix['M']:6d} {mix['B']:6d} "
                )
        lines.append(line)
    return "\n".join(lines)


def table4_dynamic(
    kernels: Optional[Iterable[str]] = None,
    config: Optional[HarnessConfig] = None,
    archs: Optional[List[ArchSpec]] = None,
    jobs: int = 1,
    cache_dir=None,
) -> SweepResults:
    """Table IV: latency/energy/peak power, caches on and off, per core.

    :func:`repro.api.characterize` over the table's 31 kernels and the
    Cortex-M cores, one repetition with no warm-up; ``jobs``/``cache_dir``
    size the engine, so the table regenerates from cached traces.
    """
    return characterize(
        list(kernels) if kernels is not None else list(TABLE_KERNELS),
        config if config is not None else HarnessConfig(reps=1, warmup_reps=0),
        archs if archs is not None else list(CHARACTERIZATION_ARCHS),
        jobs=jobs, cache_dir=cache_dir,
    )


def render_table4(results: SweepResults,
                  kernels: Optional[Iterable[str]] = None) -> str:
    archs = [a.name for a in CHARACTERIZATION_ARCHS]
    header = f"{'Kernel':17s} " + "".join(
        f"| lat {a.upper()} C/NC (us) " for a in archs
    ) + "".join(f"| E {a.upper()} C/NC (uJ) " for a in archs) + "| Pmax C/NC (mW) per arch"
    lines = [header, "-" * len(header)]
    for kernel in (kernels if kernels is not None else results.kernels()):
        parts = [f"{kernel:17s} "]
        for metric in ("lat", "energy", "pmax"):
            for arch in archs:
                on = results.get(kernel, arch, "C")
                off = results.get(kernel, arch, "NC")
                if on is None or not on.fits:
                    parts.append("|      -/-      ")
                    continue
                if metric == "lat":
                    a, b = on.unit_latency_us, off.unit_latency_us
                elif metric == "energy":
                    a, b = on.unit_energy_uj, off.unit_energy_uj
                else:
                    a, b = on.peak_power_mw, off.peak_power_mw
                parts.append(f"| {si_format(a):>6s}/{si_format(b):<6s} ")
        lines.append("".join(parts))
    return "\n".join(lines)


def table5_architectures() -> List[Dict]:
    """Table V: the considered Cortex-M architectures."""
    rows = []
    for name in ("m4", "m33", "m7"):
        arch = get_arch(name)
        rows.append(
            {
                "core": arch.core,
                "board": arch.board,
                "isa": arch.isa,
                "pipeline_stages": arch.pipeline_stages,
                "clock_mhz": arch.clock_mhz,
                "fpu": "DP" if arch.fpu.double else ("SP" if arch.fpu.single else "none"),
                "icache_kb": arch.cache.icache_bytes // 1024,
                "dcache_kb": arch.cache.dcache_bytes // 1024,
                "sram_kb": arch.memory.sram_bytes // 1024,
                "flash_kb": arch.memory.flash_bytes // 1024,
                "process_nm": arch.process_node_nm,
            }
        )
    return rows


def render_table5(rows: List[Dict]) -> str:
    lines = [
        f"{'Core':12s} {'ISA':18s} {'Pipe':>4s} {'MHz':>5s} {'FPU':>4s} "
        f"{'I$KB':>5s} {'D$KB':>5s} {'SRAM':>6s} {'Flash':>6s} {'Node':>5s}"
    ]
    lines.append("-" * len(lines[0]))
    for r in rows:
        lines.append(
            f"{r['core']:12s} {r['isa']:18s} {r['pipeline_stages']:4d} "
            f"{r['clock_mhz']:5.0f} {r['fpu']:>4s} {r['icache_kb']:5d} "
            f"{r['dcache_kb']:5d} {r['sram_kb']:6d} {r['flash_kb']:6d} "
            f"{r['process_nm']:4d}nm"
        )
    return "\n".join(lines)


def table6_perception(
    datasets: Iterable[str] = ("midd", "lights", "april"),
    config: Optional[HarnessConfig] = None,
) -> List[Dict]:
    """Table VI: perception energy/Pmax across datasets (Case Study 1).

    Feature detectors sweep all three datasets; flow kernels run on midd,
    with the bbof-vec DSP variant included.  One :func:`study_sweep` per
    dataset group.
    """

    def run_group(kernels: List[str], dataset: str) -> Dict[str, Dict]:
        results = study_sweep(kernels, CHARACTERIZATION_ARCHS, config,
                              dataset=dataset)
        group_rows: Dict[str, Dict] = {}
        for kernel in kernels:
            row = {"kernel": kernel, "data": dataset}
            for arch in CHARACTERIZATION_ARCHS:
                result = results.get(kernel, arch.name, "C")
                fits = result is not None and result.fits
                row[f"energy_{arch.name}_uj"] = result.unit_energy_uj if fits else None
                row[f"pmax_{arch.name}_mw"] = result.peak_power_mw if fits else None
                row[f"cycles_{arch.name}"] = result.unit_cycles if fits else None
            group_rows[kernel] = row
        return group_rows

    rows: List[Dict] = []
    detector_rows = {
        dataset: run_group(["fastbrief", "orb"], dataset) for dataset in datasets
    }
    for kernel in ("fastbrief", "orb"):
        for dataset in datasets:
            rows.append(detector_rows[dataset][kernel])
    flow_rows = run_group(["lkof", "bbof", "bbof-vec", "iiof"], "midd")
    for kernel in ("lkof", "bbof", "bbof-vec", "iiof"):
        rows.append(flow_rows[kernel])
    return rows


def render_table6(rows: List[Dict]) -> str:
    archs = [a.name for a in CHARACTERIZATION_ARCHS]
    header = (
        f"{'Kernel':10s} {'Data':7s} "
        + "".join(f"{'E ' + a.upper() + ' (uJ)':>12s} " for a in archs)
        + "".join(f"{'Pmax ' + a.upper():>9s} " for a in archs)
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        line = f"{r['kernel']:10s} {r['data']:7s} "
        for a in archs:
            v = r[f"energy_{a}_uj"]
            line += f"{si_format(v) if v is not None else '-':>12s} "
        for a in archs:
            v = r[f"pmax_{a}_mw"]
            line += f"{v:9.0f} " if v is not None else f"{'-':>9s} "
        lines.append(line)
    return "\n".join(lines)
