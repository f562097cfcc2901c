"""Linear relative pose solvers: 8-point, homography, gold standard.

* ``8pt``        — the normalized eight-point algorithm: Hartley
  normalization, SVD nullspace of the Nx9 epipolar system, projection onto
  the essential manifold, cheirality disambiguation.  Scales linearly in N
  through the SVD (the Fig. 5 observation).
* ``homography`` — the normalized 4+ point DLT for planar scenes.
* ``relgoldstd`` — 8pt initialization plus Gauss-Newton minimization of
  the Sampson error over (R, t) with t on the unit sphere.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.mcu import linalg
from repro.mcu.ops import OpCounter
from repro.pose.geometry import (
    decompose_essential,
    essential_from_pose,
    homogeneous,
    orthonormalize,
    sampson_error,
    skew,
)

Pose = Tuple[np.ndarray, np.ndarray]


def _normalization_transform(counter: OpCounter, x: np.ndarray) -> np.ndarray:
    """Hartley's isotropic normalization: centroid to origin, RMS sqrt(2)."""
    n = len(x)
    centroid = x.mean(axis=0)
    counter.vec_add(2 * n)
    counter.flop_mix(div=2)
    d = np.sqrt(np.sum((x - centroid) ** 2, axis=1))
    counter.flop_mix(add=3 * n, mul=2 * n, sqrt=n)
    mean_d = float(d.mean()) or 1.0
    scale = np.sqrt(2.0) / mean_d
    counter.flop_mix(add=n, div=2, sqrt=1)
    return np.array(
        [
            [scale, 0.0, -scale * centroid[0]],
            [0.0, scale, -scale * centroid[1]],
            [0.0, 0.0, 1.0],
        ]
    )


def eight_point_essential(
    counter: OpCounter,
    x1: np.ndarray,
    x2: np.ndarray,
) -> Optional[np.ndarray]:
    """Essential matrix from N >= 8 correspondences (normalized 8pt)."""
    n = len(x1)
    if n < 8:
        raise ValueError("8pt needs at least 8 correspondences")
    t1 = _normalization_transform(counter, x1)
    t2 = _normalization_transform(counter, x2)
    x1n = homogeneous(x1) @ t1.T
    x2n = homogeneous(x2) @ t2.T
    counter.mat_mat(n, 3, 3)
    counter.mat_mat(n, 3, 3)

    a = np.zeros((n, 9))
    for i in range(n):
        a[i] = np.kron(x2n[i], x1n[i])
    counter.flop_mix(mul=9 * n)
    counter.store(9 * n)

    e_vec = linalg.nullspace_vector(counter, a)
    e = e_vec.reshape(3, 3)
    # Denormalize, then project onto the essential manifold.
    e = t2.T @ e @ t1
    counter.mat_mat(3, 3, 3)
    counter.mat_mat(3, 3, 3)
    u, _, vt = linalg.svd(counter, e, full_matrices=True)
    e = u @ np.diag([1.0, 1.0, 0.0]) @ vt
    counter.mat_mat(3, 3, 3)
    counter.mat_mat(3, 3, 3)
    return e


def eight_point(
    counter: OpCounter,
    x1: np.ndarray,
    x2: np.ndarray,
) -> List[Pose]:
    """8pt essential + cheirality-resolved decomposition."""
    e = eight_point_essential(counter, x1, x2)
    if e is None:
        return []
    pose = decompose_essential(counter, e, x1, x2)
    return [pose] if pose is not None else []


def homography_dlt(
    counter: OpCounter,
    x1: np.ndarray,
    x2: np.ndarray,
) -> Optional[np.ndarray]:
    """Normalized DLT homography from N >= 4 correspondences."""
    n = len(x1)
    if n < 4:
        raise ValueError("homography needs at least 4 correspondences")
    if n == 4:
        return _homography_minimal(counter, x1, x2)
    t1 = _normalization_transform(counter, x1)
    t2 = _normalization_transform(counter, x2)
    x1n = homogeneous(x1) @ t1.T
    x2n = homogeneous(x2) @ t2.T
    counter.mat_mat(n, 3, 3)
    counter.mat_mat(n, 3, 3)

    a = np.zeros((2 * n, 9))
    for i in range(n):
        xs, ys, ws = x1n[i]
        xd, yd, wd = x2n[i]
        a[2 * i] = [0, 0, 0, -wd * xs, -wd * ys, -wd * ws, yd * xs, yd * ys, yd * ws]
        a[2 * i + 1] = [wd * xs, wd * ys, wd * ws, 0, 0, 0, -xd * xs, -xd * ys, -xd * ws]
    counter.flop_mix(mul=12 * n)
    counter.store(18 * n)

    h_vec = linalg.nullspace_vector(counter, a)
    h = h_vec.reshape(3, 3)
    h = np.linalg.inv(t2) @ h @ t1
    counter.mat_mat(3, 3, 3)
    counter.mat_mat(3, 3, 3)
    counter.flop_mix(add=12, mul=27, div=4)  # closed-form 3x3 inverse
    if abs(h[2, 2]) < 1e-12:
        return None
    counter.flop_mix(div=9)
    return h / h[2, 2]


def _homography_minimal(
    counter: OpCounter,
    x1: np.ndarray,
    x2: np.ndarray,
) -> Optional[np.ndarray]:
    """Exact 4-point homography via an inhomogeneous 8x8 solve (h22 = 1).

    The path embedded implementations take for the minimal configuration —
    an order of magnitude cheaper than the SVD of the overdetermined DLT.
    """
    a = np.zeros((8, 8))
    b = np.zeros(8)
    for i in range(4):
        xs, ys = x1[i]
        xd, yd = x2[i]
        a[2 * i] = [xs, ys, 1, 0, 0, 0, -xd * xs, -xd * ys]
        a[2 * i + 1] = [0, 0, 0, xs, ys, 1, -yd * xs, -yd * ys]
        b[2 * i] = xd
        b[2 * i + 1] = yd
    counter.flop_mix(mul=16)
    counter.store(72)
    try:
        h_vec = linalg.lu_solve(counter, a, b)
    except np.linalg.LinAlgError:
        return None
    return np.append(h_vec, 1.0).reshape(3, 3)


def homography_transfer_error(
    counter: OpCounter,
    h: np.ndarray,
    x1: np.ndarray,
    x2: np.ndarray,
) -> np.ndarray:
    """Squared symmetric-free (forward) transfer errors."""
    n = len(x1)
    mapped = homogeneous(x1) @ h.T
    counter.mat_mat(n, 3, 3)
    with np.errstate(divide="ignore", invalid="ignore"):
        proj = mapped[:, :2] / mapped[:, 2:3]
    counter.flop_mix(div=2 * n)
    err = np.sum((proj - x2) ** 2, axis=1)
    counter.flop_mix(add=3 * n, mul=2 * n)
    return np.where(np.abs(mapped[:, 2]) > 1e-12, err, np.inf)


def _tangent_basis(t: np.ndarray) -> np.ndarray:
    """Two unit vectors spanning the tangent plane of the unit sphere at t."""
    ref = np.array([1.0, 0.0, 0.0]) if abs(t[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    b1 = linalg.cross3(t, ref)
    b1 /= np.linalg.norm(b1)
    b2 = linalg.cross3(t, b1)
    return np.vstack([b1, b2])


def relative_gold_standard(
    counter: OpCounter,
    x1: np.ndarray,
    x2: np.ndarray,
    iterations: int = 12,
) -> List[Pose]:
    """8pt init + Gauss-Newton on the Sampson error over (R, t-sphere)."""
    init = eight_point(counter, x1, x2)
    if not init:
        return []
    r, t = init[0]
    t = t / np.linalg.norm(t)
    n = len(x1)

    def residuals(r_cur, t_cur):
        e = essential_from_pose(r_cur, t_cur)
        counter.mat_mat(3, 3, 3)
        return np.sqrt(sampson_error(counter, e, x1, x2) + 1e-18)

    eps = 1e-7
    for _ in range(iterations):
        counter.loop_overhead(1)
        res0 = residuals(r, t)
        basis = _tangent_basis(t)
        counter.vec_cross()
        counter.vec_cross()
        counter.vec_normalize(3)
        jac = np.zeros((n, 5))
        # Numeric Jacobian over 3 rotation + 2 translation-sphere dofs —
        # what a compact embedded implementation does to avoid long
        # analytic derivative code.
        for k in range(3):
            omega = np.zeros(3)
            omega[k] = eps
            dr = np.eye(3) + skew(omega)
            jac[:, k] = (residuals(dr @ r, t) - res0) / eps
            counter.mat_mat(3, 3, 3)
            counter.vec_add(n)
            counter.vec_scale(n)
        for k in range(2):
            t_pert = t + eps * basis[k]
            t_pert /= np.linalg.norm(t_pert)
            counter.vec_axpy(3)
            counter.vec_normalize(3)
            jac[:, 3 + k] = (residuals(r, t_pert) - res0) / eps
            counter.vec_add(n)
            counter.vec_scale(n)
        try:
            delta = linalg.gauss_newton_step(counter, jac, res0)
        except np.linalg.LinAlgError:
            break
        omega, dt2 = delta[:3], delta[3:]
        angle = float(np.linalg.norm(omega))
        counter.vec_norm(3)
        if angle > 1e-14:
            axis = omega / angle
            k_mat = skew(axis)
            dr = np.eye(3) + np.sin(angle) * k_mat + (1 - np.cos(angle)) * (k_mat @ k_mat)
            counter.flop_mix(add=18, mul=30, func=2)
            r = orthonormalize(counter, dr @ r)
        t = t + basis.T @ dt2
        t = t / np.linalg.norm(t)
        counter.mat_vec(3, 2)
        counter.vec_normalize(3)
        if float(np.linalg.norm(delta)) < 1e-12:
            counter.branch()
            break
    return [(r, t)]
