"""Case Study 1 analytics: exteroception under tight budgets (Figure 3).

Cycle counts for the feature detectors across the three datasets and for
the four optical-flow kernels — the data behind Fig. 3(a) and 3(b) — plus
the dataset-ordering check (lights < midd < april) the study highlights.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.analysis.tables import study_sweep
from repro.core import registry
from repro.core.config import HarnessConfig
from repro.mcu.arch import CHARACTERIZATION_ARCHS, M4
from repro.mcu.ops import OpCounter

DETECTORS = ("fastbrief", "orb")
DATASETS = ("midd", "lights", "april")
FLOW_KERNELS = ("lkof", "bbof", "bbof-vec", "iiof")


def fig3a_detection_cycles(
    detectors: Iterable[str] = DETECTORS,
    datasets: Iterable[str] = DATASETS,
    config: Optional[HarnessConfig] = None,
) -> List[Dict]:
    """Fig. 3(a): detector cycle counts per dataset per core.

    ``n_features`` is what the detector finds on the image; it stays 0
    when the detector does not fit the M4.
    """
    detectors, datasets = list(detectors), list(datasets)
    sweeps = {
        dataset: study_sweep(detectors, CHARACTERIZATION_ARCHS, config,
                             dataset=dataset)
        for dataset in datasets
    }
    rows: List[Dict] = []
    for detector in detectors:
        for dataset in datasets:
            row = {"kernel": detector, "dataset": dataset}
            for arch in CHARACTERIZATION_ARCHS:
                result = sweeps[dataset].lookup(detector, arch.name)
                row[f"cycles_{arch.name}"] = (
                    result.unit_cycles if result.fits else None
                )
                if arch is M4:
                    row["n_features"] = (
                        _n_features(detector, dataset) if result.fits else 0
                    )
            rows.append(row)
    return rows


def _n_features(detector: str, dataset: str) -> int:
    """Features one solve finds (a detector's solve reads only its image)."""
    problem = registry.create(detector, dataset=dataset)
    problem.ensure_setup()
    problem.solve(OpCounter())
    return problem.last_n_features


def fig3b_flow_cycles(
    kernels: Iterable[str] = FLOW_KERNELS,
    config: Optional[HarnessConfig] = None,
) -> List[Dict]:
    """Fig. 3(b): optical-flow kernel cycle counts per core."""
    kernels = list(kernels)
    results = study_sweep(kernels, CHARACTERIZATION_ARCHS, config)
    rows: List[Dict] = []
    for kernel in kernels:
        row = {"kernel": kernel}
        for arch in CHARACTERIZATION_ARCHS:
            row[f"cycles_{arch.name}"] = results.lookup(kernel, arch.name).unit_cycles
        rows.append(row)
    return rows


def dataset_cost_ordering(rows: List[Dict], detector: str,
                          arch: str = "m4") -> List[str]:
    """Datasets sorted cheapest-first for one detector (Case Study 1's
    'lights runs fastest' observation)."""
    relevant = [r for r in rows if r["kernel"] == detector]
    relevant.sort(key=lambda r: r[f"cycles_{arch}"])
    return [r["dataset"] for r in relevant]


def vectorization_speedup(rows: List[Dict], arch: str = "m4") -> float:
    """bbof / bbof-vec cycle ratio — the Case Study 1 SIMD headline (~4x)."""
    by_kernel = {r["kernel"]: r for r in rows}
    return by_kernel["bbof"][f"cycles_{arch}"] / by_kernel["bbof-vec"][f"cycles_{arch}"]
