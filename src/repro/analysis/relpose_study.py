"""Case Study 4 analytics: minimal solver & robust estimation trade-offs
(Figure 5).

* :func:`accuracy_vs_noise`   — Fig. 5(a): rotation error of the minimal
  and linear relative solvers as pixel noise grows, float vs double.
* :func:`solver_costs`        — Fig. 5(b, c): cycles and peak power of
  each solver at 0.1 px noise across the three cores.
* :func:`ransac_iterations`   — Fig. 5(d): mean LO-RANSAC iterations to
  convergence by inner minimal solver, 25% outliers / 0.5 px noise.
* :func:`ransac_costs`        — Fig. 5(e, f): LO-RANSAC cycles and peak
  power by minimal solver across cores.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.analysis.tables import study_sweep
from repro.core.config import HarnessConfig
from repro.datasets import pose as posedata
from repro.mcu.arch import CHARACTERIZATION_ARCHS
from repro.mcu.ops import OpCounter
from repro.pose.fivept import five_point
from repro.pose.ransac import RansacConfig, RelativePoseAdapter, lo_ransac
from repro.pose.relative import eight_point
from repro.pose.upright import u3pt, up2pt, up3pt
from repro.scalar import F32, F64, ScalarType

#: The relative solvers of Fig. 5 (8pt excluded from the RANSAC panels,
#: as in the paper: "excluded due to its computational overhead").
SOLVER_KERNELS = ("up2pt", "up3pt", "u3pt", "5pt", "8pt")
RANSAC_MINIMALS = ("up2pt", "u3pt", "5pt")


def _run_solver(counter: OpCounter, name: str, prob) -> Optional[tuple]:
    """One minimal/linear solve on a synthetic problem; best candidate."""
    try:
        if name == "5pt":
            poses = five_point(counter, prob.x1[:5], prob.x2[:5],
                               validate_with=(prob.x1, prob.x2))
        elif name == "u3pt":
            poses = u3pt(counter, prob.x1[:3], prob.x2[:3])
        elif name == "up2pt":
            poses = up2pt(counter, prob.x1[:2], prob.x2[:2])
        elif name == "up3pt":
            poses = up3pt(counter, prob.x1, prob.x2)
        elif name == "8pt":
            poses = eight_point(counter, prob.x1[:8], prob.x2[:8])
        else:
            raise ValueError(f"unknown solver {name!r}")
    except np.linalg.LinAlgError:
        return None
    if not poses:
        return None
    best = min(
        poses,
        key=lambda p: posedata.rotation_angle_deg(p[0], prob.r_true),
    )
    return best


def accuracy_vs_noise(
    solvers: Iterable[str] = SOLVER_KERNELS,
    noise_levels_px: Iterable[float] = (0.0, 0.1, 0.25, 0.5, 1.0),
    scalars: Iterable[ScalarType] = (F32, F64),
    n_problems: int = 50,
    seed: int = 0,
) -> List[Dict]:
    """Fig. 5(a): median rotation error vs pixel noise, float vs double."""
    rows: List[Dict] = []
    for solver in solvers:
        upright = solver in ("u3pt", "up2pt", "up3pt")
        planar = solver in ("up2pt", "up3pt")
        for scalar in scalars:
            for noise in noise_levels_px:
                errors = []
                for i in range(n_problems):
                    prob = posedata.make_relative_problem(
                        n_points=16, noise_px=noise, upright=upright,
                        planar=planar, seed=seed + i,
                    )
                    prob.x1 = prob.x1.astype(scalar.dtype)
                    prob.x2 = prob.x2.astype(scalar.dtype)
                    pose = _run_solver(OpCounter(), solver, prob)
                    if pose is not None:
                        errors.append(
                            posedata.rotation_angle_deg(
                                np.asarray(pose[0], dtype=np.float64),
                                prob.r_true,
                            )
                        )
                rows.append(
                    {
                        "solver": solver,
                        "scalar": scalar.name,
                        "noise_px": noise,
                        "median_rot_err_deg": float(np.median(errors)) if errors else float("inf"),
                        "n_solved": len(errors),
                        "n_problems": n_problems,
                    }
                )
    return rows


def solver_costs(
    solvers: Iterable[str] = SOLVER_KERNELS,
    noise_px: float = 0.1,
    config: Optional[HarnessConfig] = None,
) -> List[Dict]:
    """Fig. 5(b, c): per-solve cycles and peak power, per core."""
    solvers = list(solvers)
    results = study_sweep(solvers, CHARACTERIZATION_ARCHS, config,
                          noise_px=noise_px)
    rows: List[Dict] = []
    for solver in solvers:
        row = {"solver": solver}
        for arch in CHARACTERIZATION_ARCHS:
            result = results.lookup(solver, arch.name)
            row[f"cycles_{arch.name}"] = result.unit_cycles
            row[f"pmax_{arch.name}_mw"] = result.peak_power_mw
        rows.append(row)
    return rows


def ransac_iterations(
    minimals: Iterable[str] = RANSAC_MINIMALS,
    n_problems: int = 20,
    outlier_ratio: float = 0.25,
    noise_px: float = 0.5,
    seed: int = 0,
) -> List[Dict]:
    """Fig. 5(d): mean LO-RANSAC iterations until convergence."""
    rows: List[Dict] = []
    cfg = RansacConfig(threshold_px=2.0, seed=seed)
    for minimal in minimals:
        upright = minimal in ("u3pt", "up2pt")
        planar = minimal == "up2pt"
        iters, successes = [], 0
        for i in range(n_problems):
            prob = posedata.make_relative_problem(
                n_points=24, noise_px=noise_px, outlier_ratio=outlier_ratio,
                upright=upright, planar=planar, seed=seed + i,
            )
            result = lo_ransac(
                OpCounter(),
                RelativePoseAdapter(prob.x1, prob.x2, minimal=minimal),
                cfg,
            )
            iters.append(result.iterations)
            if result.model is not None:
                err = posedata.rotation_angle_deg(result.model[0], prob.r_true)
                if err < 3.0:
                    successes += 1
        rows.append(
            {
                "minimal": minimal,
                "mean_iterations": float(np.mean(iters)),
                "success_rate": successes / n_problems,
            }
        )
    return rows


def ransac_costs(
    minimals: Iterable[str] = RANSAC_MINIMALS,
    config: Optional[HarnessConfig] = None,
) -> List[Dict]:
    """Fig. 5(e, f): LO-RANSAC cycles and peak power by minimal solver."""
    rows: List[Dict] = []
    for minimal in minimals:
        # Each minimal is its own rel-lo-ransac configuration: one sweep each.
        results = study_sweep(["rel-lo-ransac"], CHARACTERIZATION_ARCHS, config,
                              minimal=minimal)
        row = {"minimal": minimal}
        for arch in CHARACTERIZATION_ARCHS:
            result = results.lookup("rel-lo-ransac", arch.name)
            row[f"cycles_{arch.name}"] = result.unit_cycles
            row[f"pmax_{arch.name}_mw"] = result.peak_power_mw
        rows.append(row)
    return rows
