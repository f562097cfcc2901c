"""LO-RANSAC: locally optimized robust estimation [Chum et al.].

A compile-time-configurable wrapper in the C++ framework; here a generic
loop over an *estimator adapter* that supplies the minimal solver, the
residual function, and the local-optimization (nonlinear refinement) step.
Supports optional linear or nonlinear local refinement and an optional
final polish, as the paper describes.

Thresholds are given in pixels and converted through the nominal focal
length of the synthetic camera.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.datasets.pose import NOMINAL_FOCAL_PX
from repro.mcu.ops import OpCounter
from repro.pose import absolute, relative
from repro.pose.fivept import five_point
from repro.pose.geometry import essential_from_pose, reprojection_error, sampson_error
from repro.pose.upright import u3pt, up2pt

Pose = Tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class RansacConfig:
    """LO-RANSAC knobs (Table II's RANSAC Configuration parameters)."""

    max_iterations: int = 200
    min_iterations: int = 5
    confidence: float = 0.99
    threshold_px: float = 1.5
    local_optimization: bool = True
    #: Run local optimization only when the best model improves, at most
    #: this many times (the LO-RANSAC trick that bounds LO cost).
    max_lo_runs: int = 6
    final_refinement: bool = True
    seed: int = 0

    @property
    def threshold_sq_norm(self) -> float:
        return (self.threshold_px / NOMINAL_FOCAL_PX) ** 2


@dataclass
class RansacResult:
    model: Optional[Pose]
    inlier_mask: np.ndarray
    iterations: int
    lo_runs: int
    score: int

    @property
    def inlier_ratio(self) -> float:
        return float(self.inlier_mask.mean()) if len(self.inlier_mask) else 0.0


class EstimatorAdapter:
    """What LO-RANSAC needs to know about one estimation problem."""

    sample_size: int = 0
    n: int = 0

    def solve_minimal(self, counter: OpCounter, idx: np.ndarray) -> List[Pose]:
        raise NotImplementedError

    def residuals_sq(self, counter: OpCounter, model: Pose) -> np.ndarray:
        raise NotImplementedError

    def refine(self, counter: OpCounter, model: Pose, inlier_idx: np.ndarray) -> Optional[Pose]:
        raise NotImplementedError


class AbsolutePoseAdapter(EstimatorAdapter):
    """Absolute pose with a pluggable minimal solver (p3p or up2p)."""

    def __init__(self, points_world: np.ndarray, points_image: np.ndarray,
                 minimal: str = "p3p"):
        self.points_world = points_world
        self.points_image = points_image
        self.n = len(points_world)
        if minimal == "p3p":
            self.sample_size = 3
            self._solver = absolute.p3p
        elif minimal == "up2p":
            self.sample_size = 2
            self._solver = absolute.up2p
        else:
            raise ValueError(f"unknown absolute minimal solver {minimal!r}")

    def solve_minimal(self, counter: OpCounter, idx: np.ndarray) -> List[Pose]:
        try:
            return self._solver(
                counter, self.points_world[idx], self.points_image[idx]
            )
        except np.linalg.LinAlgError:
            return []

    def residuals_sq(self, counter: OpCounter, model: Pose) -> np.ndarray:
        r, t = model
        return reprojection_error(counter, r, t, self.points_world, self.points_image)

    def refine(self, counter: OpCounter, model: Pose, inlier_idx: np.ndarray) -> Optional[Pose]:
        if len(inlier_idx) < 6:
            return None
        try:
            refined = absolute.absolute_gold_standard(
                counter,
                self.points_world[inlier_idx],
                self.points_image[inlier_idx],
                iterations=5,
            )
        except np.linalg.LinAlgError:
            return None
        return refined[0] if refined else None


class RelativePoseAdapter(EstimatorAdapter):
    """Relative pose with a pluggable minimal solver (5pt/u3pt/up2pt/8pt)."""

    _SOLVERS: dict = {}

    def __init__(self, x1: np.ndarray, x2: np.ndarray, minimal: str = "5pt"):
        self.x1 = x1
        self.x2 = x2
        self.n = len(x1)
        self.minimal = minimal
        if minimal == "5pt":
            self.sample_size = 5
        elif minimal == "u3pt":
            self.sample_size = 3
        elif minimal == "up2pt":
            self.sample_size = 2
        elif minimal == "8pt":
            self.sample_size = 8
        else:
            raise ValueError(f"unknown relative minimal solver {minimal!r}")

    def solve_minimal(self, counter: OpCounter, idx: np.ndarray) -> List[Pose]:
        s1, s2 = self.x1[idx], self.x2[idx]
        try:
            if self.minimal == "5pt":
                return five_point(counter, s1, s2)
            if self.minimal == "u3pt":
                return u3pt(counter, s1, s2)
            if self.minimal == "up2pt":
                return up2pt(counter, s1, s2)
            return relative.eight_point(counter, s1, s2)
        except np.linalg.LinAlgError:
            return []

    def residuals_sq(self, counter: OpCounter, model: Pose) -> np.ndarray:
        r, t = model
        e = essential_from_pose(r, t)
        counter.mat_mat(3, 3, 3)
        return sampson_error(counter, e, self.x1, self.x2)

    def refine(self, counter: OpCounter, model: Pose, inlier_idx: np.ndarray) -> Optional[Pose]:
        if len(inlier_idx) < 8:
            return None
        try:
            refined = relative.relative_gold_standard(
                counter, self.x1[inlier_idx], self.x2[inlier_idx], iterations=5
            )
        except np.linalg.LinAlgError:
            return None
        return refined[0] if refined else None


def _required_iterations(inlier_ratio: float, sample_size: int,
                         confidence: float) -> float:
    """Adaptive RANSAC stopping criterion."""
    if inlier_ratio <= 0.0:
        return math.inf
    good = inlier_ratio**sample_size
    if good >= 1.0 - 1e-12:
        return 0.0
    return math.log(max(1.0 - confidence, 1e-12)) / math.log(1.0 - good)


def lo_ransac(
    counter: OpCounter,
    adapter: EstimatorAdapter,
    config: RansacConfig = RansacConfig(),
) -> RansacResult:
    """Locally optimized RANSAC over any estimator adapter."""
    rng = np.random.default_rng(config.seed)
    thr = config.threshold_sq_norm
    n = adapter.n
    best_model: Optional[Pose] = None
    best_mask = np.zeros(n, dtype=bool)
    best_score = 0
    lo_runs = 0
    iterations = 0

    while iterations < config.max_iterations:
        iterations += 1
        counter.loop_overhead(1)
        idx = rng.choice(n, size=adapter.sample_size, replace=False)
        counter.ialu(adapter.sample_size * 6)  # PRNG + Fisher-Yates steps
        models = adapter.solve_minimal(counter, idx)
        improved = False
        for model in models:
            res = adapter.residuals_sq(counter, model)
            mask = res < thr
            counter.fcmp(n)
            score = int(mask.sum())
            counter.ialu(n)
            if score > best_score:
                best_model, best_mask, best_score = model, mask, score
                improved = True

        if improved and config.local_optimization and lo_runs < config.max_lo_runs:
            lo_runs += 1
            refined = adapter.refine(counter, best_model, np.flatnonzero(best_mask))
            if refined is not None:
                res = adapter.residuals_sq(counter, refined)
                mask = res < thr
                counter.fcmp(n)
                score = int(mask.sum())
                if score >= best_score:
                    best_model, best_mask, best_score = refined, mask, score

        if iterations >= config.min_iterations:
            needed = _required_iterations(
                best_score / n, adapter.sample_size, config.confidence
            )
            counter.flop_mix(add=2, mul=3, div=2, func=2)
            if iterations >= needed:
                counter.branch()
                break

    if (
        best_model is not None
        and config.final_refinement
        and best_score > adapter.sample_size
    ):
        refined = adapter.refine(counter, best_model, np.flatnonzero(best_mask))
        if refined is not None:
            res = adapter.residuals_sq(counter, refined)
            mask = res < thr
            score = int(mask.sum())
            if score >= best_score:
                best_model, best_mask, best_score = refined, mask, score

    return RansacResult(
        model=best_model,
        inlier_mask=best_mask,
        iterations=iterations,
        lo_runs=lo_runs,
        score=best_score,
    )
