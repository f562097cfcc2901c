"""Shared multiple-view geometry utilities (counted).

Essential-matrix decomposition, triangulation with cheirality tests,
reprojection and Sampson residuals — the plumbing every pose solver and
the LO-RANSAC wrapper share.  All routines record their operations, since
on an MCU solution disambiguation is a real part of a solver's cost (the
5-point solver's up-to-10 candidate solutions all must be validated).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.mcu import linalg
from repro.mcu.ops import OpCounter


def skew(t: np.ndarray) -> np.ndarray:
    """Cross-product matrix of a 3-vector."""
    return np.array(
        [[0.0, -t[2], t[1]], [t[2], 0.0, -t[0]], [-t[1], t[0], 0.0]]
    )


def homogeneous(x: np.ndarray) -> np.ndarray:
    """Append a unit coordinate: (N, 2) image points -> (N, 3) rays."""
    x = np.atleast_2d(x)
    return np.hstack([x, np.ones((len(x), 1), dtype=x.dtype)])


def project(r: np.ndarray, t: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Project world points through pose (R, t) to normalized image coords."""
    cam = points @ r.T + t
    return cam[:, :2] / cam[:, 2:3]


def essential_from_pose(r: np.ndarray, t: np.ndarray) -> np.ndarray:
    return skew(t) @ r


def triangulate_point(
    counter: OpCounter,
    x1: np.ndarray,
    x2: np.ndarray,
    r: np.ndarray,
    t: np.ndarray,
) -> np.ndarray:
    """Midpoint-free linear triangulation of one correspondence.

    Camera 1 at identity, camera 2 at (R, t); returns the point in camera-1
    coordinates.
    """
    p1 = np.hstack([np.eye(3), np.zeros((3, 1))])
    p2 = np.hstack([r, t.reshape(3, 1)])
    a = np.vstack(
        [
            x1[0] * p1[2] - p1[0],
            x1[1] * p1[2] - p1[1],
            x2[0] * p2[2] - p2[0],
            x2[1] * p2[2] - p2[1],
        ]
    )
    counter.flop_mix(add=8, mul=16)
    xh = linalg.nullspace_vector(counter, a)
    if abs(xh[3]) < 1e-12:
        return np.full(3, np.inf)
    counter.fdiv(3)
    return xh[:3] / xh[3]


def cheirality_count(
    counter: OpCounter,
    x1: np.ndarray,
    x2: np.ndarray,
    r: np.ndarray,
    t: np.ndarray,
    max_points: int = 3,
) -> int:
    """How many correspondences land in front of both cameras.

    Uses the closed-form two-view depth (cross-product elimination of the
    epipolar system) rather than a full triangulation — what embedded
    solver code does for candidate disambiguation.
    """
    n = min(len(x1), max_points)
    ok = 0
    for i in range(n):
        f1 = np.array([x1[i, 0], x1[i, 1], 1.0])
        f2 = np.array([x2[i, 0], x2[i, 1], 1.0])
        rf1 = r @ f1
        counter.mat_vec(3, 3)
        c1 = linalg.cross(counter, rf1, f2)
        c2 = linalg.cross(counter, f2, t)
        denom = float(c1 @ c1)
        counter.vec_dot(3)
        if denom < 1e-18:
            counter.branch(taken=False)
            continue
        z1 = float(c2 @ c1) / denom
        counter.vec_dot(3)
        counter.fdiv()
        z2 = z1 * float(rf1[2]) + float(t[2])
        counter.flop_mix(add=1, mul=1)
        counter.fcmp(2)
        if z1 > 0 and z2 > 0:
            ok += 1
            counter.branch()
        else:
            counter.branch(taken=False)
    return ok


def decompose_essential(
    counter: OpCounter,
    e: np.ndarray,
    x1: np.ndarray,
    x2: np.ndarray,
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """(R, t) from an essential matrix via the four-fold SVD ambiguity,
    resolved with cheirality voting."""
    u, _, vt = linalg.svd(counter, e, full_matrices=True)
    if np.linalg.det(u) < 0:
        u = -u
    if np.linalg.det(vt) < 0:
        vt = -vt
    counter.flop_mix(add=10, mul=24)
    w = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    candidates = []
    for r_cand in (u @ w @ vt, u @ w.T @ vt):
        counter.mat_mat(3, 3, 3)
        counter.mat_mat(3, 3, 3)
        for t_cand in (u[:, 2], -u[:, 2]):
            candidates.append((r_cand, t_cand))
    best, best_votes = None, -1
    for r_cand, t_cand in candidates:
        votes = cheirality_count(counter, x1, x2, r_cand, t_cand)
        if votes > best_votes:
            best, best_votes = (r_cand, t_cand), votes
    if best is None or best_votes == 0:
        return None
    return best


def sampson_error(
    counter: OpCounter,
    e: np.ndarray,
    x1: np.ndarray,
    x2: np.ndarray,
) -> np.ndarray:
    """First-order geometric (Sampson) epipolar errors for all points."""
    n = len(x1)
    x1h = homogeneous(x1)
    x2h = homogeneous(x2)
    ex1 = x1h @ e.T
    etx2 = x2h @ e
    num = np.sum(x2h * ex1, axis=1) ** 2
    den = ex1[:, 0] ** 2 + ex1[:, 1] ** 2 + etx2[:, 0] ** 2 + etx2[:, 1] ** 2
    counter.flop_mix(add=n * 16, mul=n * 24, div=n)
    return num / np.maximum(den, 1e-18)


def reprojection_error(
    counter: OpCounter,
    r: np.ndarray,
    t: np.ndarray,
    points_world: np.ndarray,
    points_image: np.ndarray,
) -> np.ndarray:
    """Squared reprojection residuals for an absolute pose."""
    n = len(points_world)
    cam = points_world @ r.T + t
    counter.mat_mat(n, 3, 3)
    counter.vec_add(3 * n)
    with np.errstate(divide="ignore", invalid="ignore"):
        proj = cam[:, :2] / cam[:, 2:3]
    counter.flop_mix(div=2 * n)
    err = np.sum((proj - points_image) ** 2, axis=1)
    counter.flop_mix(add=3 * n, mul=2 * n)
    err = np.where(cam[:, 2] > 1e-9, err, np.inf)
    counter.fcmp(n)
    return err


def orthonormalize(counter: OpCounter, r: np.ndarray) -> np.ndarray:
    """Project a near-rotation onto SO(3) via SVD."""
    u, _, vt = linalg.svd(counter, r, full_matrices=True)
    out = u @ vt
    counter.mat_mat(3, 3, 3)
    if np.linalg.det(out) < 0:
        u[:, 2] = -u[:, 2]
        out = u @ vt
        counter.mat_mat(3, 3, 3)
    return out


def best_pose_by_reprojection(
    counter: OpCounter,
    candidates: List[Tuple[np.ndarray, np.ndarray]],
    points_world: np.ndarray,
    points_image: np.ndarray,
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Pick the candidate absolute pose with least total reprojection error."""
    best, best_err = None, np.inf
    for r, t in candidates:
        err = float(np.sum(reprojection_error(counter, r, t, points_world, points_image)))
        counter.fcmp()
        if np.isfinite(err) and err < best_err:
            best, best_err = (r, t), err
    return best
