"""A two-frame perception front end: detect → describe → match → estimate.

Composes the suite's building blocks into the pipeline the paper's
introduction motivates ("building blocks towards visual(-inertial)
odometry"): FAST corners + BRIEF descriptors in both frames, brute-force
Hamming matching with a ratio test, and a robust homography fit over the
matches — the registration step a hovering robot uses to estimate
inter-frame motion over flat ground.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.mcu.ops import OpCounter
from repro.perception import brief
from repro.perception.fast import fast_detect
from repro.perception.gaussian import gaussian_blur
from repro.pose.relative import homography_dlt, homography_transfer_error


@dataclass(frozen=True)
class FrameMatches:
    """Matched keypoint coordinates between two frames (pixels)."""

    points0: np.ndarray  # (N, 2) as (y, x)
    points1: np.ndarray
    distances: np.ndarray  # Hamming distances

    @property
    def n(self) -> int:
        return len(self.points0)


def detect_and_describe(
    counter: OpCounter,
    frame: np.ndarray,
    max_features: int = 60,
    threshold: int = 20,
) -> Tuple[list, np.ndarray]:
    """FAST + BRIEF on one frame (with the standard pre-blur)."""
    blurred = gaussian_blur(counter, frame.astype(np.float64), sigma=1.0)
    corners = fast_detect(counter, blurred.astype(np.uint8),
                          threshold=threshold)[:max_features]
    descriptors = brief.describe(counter, frame, corners)
    keep = descriptors.any(axis=1)
    corners = [c for c, k in zip(corners, keep) if k]
    return corners, descriptors[keep]


def match_frames(
    counter: OpCounter,
    frame0: np.ndarray,
    frame1: np.ndarray,
    max_features: int = 60,
    max_distance: int = 48,
    ratio: float = 0.85,
) -> FrameMatches:
    """Mutually consistent BRIEF matches with a Lowe-style ratio test."""
    c0, d0 = detect_and_describe(counter, frame0, max_features)
    c1, d1 = detect_and_describe(counter, frame1, max_features)
    if not c0 or not c1:
        empty = np.zeros((0, 2))
        return FrameMatches(empty, empty, np.zeros(0))

    pts0, pts1, dists = [], [], []
    for i in range(len(d0)):
        best_j, best_d, second_d = -1, max_distance + 1, max_distance + 1
        for j in range(len(d1)):
            d = brief.hamming_distance(counter, d0[i], d1[j])
            counter.icmp(2)
            if d < best_d:
                second_d = best_d
                best_j, best_d = j, d
            elif d < second_d:
                second_d = d
        counter.loop_overhead(len(d1))
        if best_j < 0 or best_d > max_distance:
            counter.branch(taken=False)
            continue
        if second_d <= max_distance and best_d > ratio * second_d:
            counter.branch(taken=False)
            continue  # ambiguous match
        pts0.append((c0[i].y, c0[i].x))
        pts1.append((c1[best_j].y, c1[best_j].x))
        dists.append(best_d)
        counter.branch()
    return FrameMatches(
        np.array(pts0, dtype=np.float64).reshape(-1, 2),
        np.array(pts1, dtype=np.float64).reshape(-1, 2),
        np.array(dists, dtype=np.float64),
    )


@dataclass(frozen=True)
class RegistrationResult:
    """Robust inter-frame registration from matched features."""

    homography: Optional[np.ndarray]
    translation_px: Optional[np.ndarray]  # (dy, dx) at the frame center
    n_matches: int
    n_inliers: int


def register_frames(
    counter: OpCounter,
    frame0: np.ndarray,
    frame1: np.ndarray,
    inlier_threshold_px: float = 2.0,
    max_iterations: int = 50,
    seed: int = 0,
) -> RegistrationResult:
    """Match features and robustly fit a homography between two frames.

    RANSAC over 4-point minimal homographies, scored by forward transfer
    error, with a final all-inlier refit — the flat-ground registration an
    altitude-holding robot can use for lateral-drift estimates.
    """
    matches = match_frames(counter, frame0, frame1)
    if matches.n < 4:
        return RegistrationResult(None, None, matches.n, 0)

    # Work in (x, y) order for the homography convention.
    x0 = matches.points0[:, ::-1]
    x1 = matches.points1[:, ::-1]

    rng = np.random.default_rng(seed)
    thr_sq = inlier_threshold_px**2
    best_h, best_mask = None, np.zeros(matches.n, dtype=bool)
    for _ in range(max_iterations):
        counter.loop_overhead(1)
        idx = rng.choice(matches.n, size=4, replace=False)
        counter.ialu(24)
        h = homography_dlt(counter, x0[idx], x1[idx])
        if h is None:
            continue
        err = homography_transfer_error(counter, h, x0, x1)
        mask = err < thr_sq
        counter.fcmp(matches.n)
        if mask.sum() > best_mask.sum():
            best_h, best_mask = h, mask
    if best_h is None or best_mask.sum() < 4:
        return RegistrationResult(None, None, matches.n, int(best_mask.sum()))

    if best_mask.sum() > 4:
        refit = homography_dlt(counter, x0[best_mask], x1[best_mask])
        if refit is not None:
            best_h = refit

    h_img, w_img = frame0.shape
    center = np.array([w_img / 2.0, h_img / 2.0, 1.0])
    mapped = best_h @ center
    counter.mat_vec(3, 3)
    counter.fdiv(2)
    mapped = mapped[:2] / mapped[2]
    translation = np.array([mapped[1] - center[1], mapped[0] - center[0]])
    return RegistrationResult(best_h, translation, matches.n, int(best_mask.sum()))
