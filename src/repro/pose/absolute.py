"""Absolute pose solvers: P3P, UP2P, DLT, and the gold standard.

* ``p3p``        — Grunert's classical minimal solver: a quartic in the
  depth ratio, then 3-point absolute orientation.  Up to 4 solutions.
* ``up2p``       — Kukelova's upright 2-point solver: with gravity known
  (from the IMU) the rotation is a pure yaw; eliminating translation gives
  a quadratic.  Up to 2 solutions.
* ``dlt``        — linear 6+ point Direct Linear Transform; pays for an
  SVD of a 2Nx12 system.
* ``absgoldstd`` — the Hartley-Zisserman gold standard: DLT initialization
  plus Gauss-Newton minimization of reprojection error.

Pose convention matches the dataset: ``x_cam = R @ x_world + t``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.mcu import linalg
from repro.mcu.ops import OpCounter
from repro.pose.geometry import (
    best_pose_by_reprojection,
    homogeneous,
    orthonormalize,
)

Pose = Tuple[np.ndarray, np.ndarray]


def _absolute_orientation(
    counter: OpCounter,
    points_cam: np.ndarray,
    points_world: np.ndarray,
) -> Pose:
    """Rigid transform world->camera from 3+ point pairs (Kabsch)."""
    cw = points_world.mean(axis=0)
    cc = points_cam.mean(axis=0)
    counter.vec_add(6 * len(points_world))
    counter.flop_mix(div=6)
    h = (points_world - cw).T @ (points_cam - cc)
    counter.mat_mat(3, len(points_world), 3)
    u, _, vt = linalg.svd(counter, h, full_matrices=True)
    r = vt.T @ u.T
    counter.mat_mat(3, 3, 3)
    if np.linalg.det(r) < 0:
        vt[2] = -vt[2]
        r = vt.T @ u.T
        counter.mat_mat(3, 3, 3)
    t = cc - r @ cw
    counter.mat_vec(3, 3)
    counter.vec_add(3)
    return r, t


def p3p(
    counter: OpCounter,
    points_world: np.ndarray,
    points_image: np.ndarray,
) -> List[Pose]:
    """Grunert P3P: up to four (R, t) candidates from 3 correspondences."""
    if len(points_world) != 3:
        raise ValueError("p3p needs exactly 3 correspondences")
    rays = homogeneous(points_image)
    f = rays / np.linalg.norm(rays, axis=1, keepdims=True)
    counter.flop_mix(add=6, mul=9, div=9, sqrt=3)

    p1, p2, p3 = points_world
    a = float(np.linalg.norm(p2 - p3))
    b = float(np.linalg.norm(p1 - p3))
    c = float(np.linalg.norm(p1 - p2))
    counter.flop_mix(add=15, mul=9, sqrt=3)
    if min(a, b, c) < 1e-12:
        return []

    cos_alpha = float(f[1] @ f[2])
    cos_beta = float(f[0] @ f[2])
    cos_gamma = float(f[0] @ f[1])
    counter.vec_dot(3)
    counter.vec_dot(3)
    counter.vec_dot(3)

    a2, b2, c2 = a * a, b * b, c * c
    # Haralick et al.'s form of Grunert's quartic in v = s3/s1.
    p = (a2 - c2) / b2
    q = (a2 + c2) / b2
    r = (b2 - c2) / b2
    s = (b2 - a2) / b2
    counter.flop_mix(add=6, mul=3, div=4)

    a4 = (p - 1.0) ** 2 - 4.0 * (c2 / b2) * cos_alpha**2
    a3 = 4.0 * (
        p * (1.0 - p) * cos_beta
        - (1.0 - q) * cos_alpha * cos_gamma
        + 2.0 * (c2 / b2) * cos_alpha**2 * cos_beta
    )
    a2_coef = 2.0 * (
        p**2
        - 1.0
        + 2.0 * p**2 * cos_beta**2
        + 2.0 * r * cos_alpha**2
        - 4.0 * q * cos_alpha * cos_beta * cos_gamma
        + 2.0 * s * cos_gamma**2
    )
    a1 = 4.0 * (
        -p * (1.0 + p) * cos_beta
        + 2.0 * (a2 / b2) * cos_gamma**2 * cos_beta
        - (1.0 - q) * cos_alpha * cos_gamma
    )
    a0 = (1.0 + p) ** 2 - 4.0 * (a2 / b2) * cos_gamma**2
    counter.flop_mix(add=22, mul=46, div=2)

    roots = linalg.quartic_roots(counter, np.array([a4, a3, a2_coef, a1, a0]))
    poses: List[Pose] = []
    for v in roots:
        if v <= 0:
            counter.branch(taken=False)
            continue
        denom = 2.0 * (cos_gamma - v * cos_alpha)
        counter.flop_mix(add=1, mul=2)
        if abs(denom) < 1e-12:
            counter.branch()
            continue
        u = ((p - 1.0) * v * v - 2.0 * p * cos_beta * v + 1.0 + p) / denom
        counter.flop_mix(add=3, mul=4, div=1)
        if u <= 0:
            counter.branch(taken=False)
            continue
        s1_sq = c2 / (1.0 + u * u - 2.0 * u * cos_gamma)
        counter.flop_mix(add=2, mul=3, div=1)
        if s1_sq <= 0:
            counter.branch(taken=False)
            continue
        s1 = float(np.sqrt(s1_sq))
        s2, s3 = u * s1, v * s1
        counter.flop_mix(mul=2, sqrt=1)
        cam_pts = np.vstack([s1 * f[0], s2 * f[1], s3 * f[2]])
        counter.vec_scale(9)
        poses.append(_absolute_orientation(counter, cam_pts, points_world))
    return poses


def up2p(
    counter: OpCounter,
    points_world: np.ndarray,
    points_image: np.ndarray,
) -> List[Pose]:
    """Upright 2-point absolute pose (rotation about the camera y-axis).

    Eliminating the translation from the cross-product projection
    constraints of both points yields a quadratic in the half-angle
    parameter ``q`` (Kukelova et al.).
    """
    if len(points_world) != 2:
        raise ValueError("up2p needs exactly 2 correspondences")
    (u1, v1), (u2, v2) = points_image
    x1, x2 = points_world

    # (1+q^2) * R_y(q) X = [ (1-q^2) X0 + 2q X2, (1+q^2) X1, -2q X0 + (1-q^2) X2 ]
    # Row differences between the two points eliminate t up to t_z; a final
    # combination eliminates t_z, leaving a quadratic in q.
    def rx_terms(x):
        # coefficients (of q^2, q, 1) of each component of (1+q^2) R X
        return (
            np.array([-x[0], 2.0 * x[2], x[0]]),  # X-component
            np.array([x[1], 0.0, x[1]]),  # Y-component
            np.array([-x[2], -2.0 * x[0], x[2]]),  # Z-component
        )

    r1x, r1y, r1z = rx_terms(x1)
    r2x, r2y, r2z = rx_terms(x2)
    counter.flop_mix(mul=8)

    # d_e2 = (RX1)_x - u1 (RX1)_z - (RX2)_x + u2 (RX2)_z  - (u1-u2) tz' = 0
    d_e2 = r1x - u1 * r1z - r2x + u2 * r2z
    # d_e1 = v1 (RX1)_z - (RX1)_y - v2 (RX2)_z + (RX2)_y + (v1-v2) tz' = 0
    d_e1 = v1 * r1z - r1y - v2 * r2z + r2y
    counter.flop_mix(add=18, mul=12)
    # Eliminate tz': (v1-v2) * d_e2 + (u1-u2) * d_e1 = 0.
    poly = (v1 - v2) * d_e2 + (u1 - u2) * d_e1
    counter.flop_mix(add=8, mul=6)

    qs = linalg.quadratic_roots(counter, poly[0], poly[1], poly[2])
    poses: List[Pose] = []
    for qv in qs:
        denom = 1.0 + qv * qv
        cos_t = (1.0 - qv * qv) / denom
        sin_t = 2.0 * qv / denom
        counter.flop_mix(add=2, mul=3, div=2)
        r = np.array(
            [[cos_t, 0.0, sin_t], [0.0, 1.0, 0.0], [-sin_t, 0.0, cos_t]]
        )
        # Solve the 4 linear constraints for t (least squares, 3 unknowns).
        rows, rhs = [], []
        for (uu, vv), xw in (((u1, v1), x1), ((u2, v2), x2)):
            rx = r @ xw
            counter.mat_vec(3, 3)
            rows.append([1.0, 0.0, -uu])
            rhs.append(uu * rx[2] - rx[0])
            rows.append([0.0, 1.0, -vv])
            rhs.append(vv * rx[2] - rx[1])
            counter.flop_mix(add=2, mul=2)
        a_mat = np.array(rows)
        b_vec = np.array(rhs)
        ata = a_mat.T @ a_mat
        atb = a_mat.T @ b_vec
        counter.mat_mat(3, 4, 3)
        counter.mat_vec(3, 4)
        try:
            t = linalg.lu_solve(counter, ata, atb)
        except np.linalg.LinAlgError:
            continue
        poses.append((r, t))
    return poses


def dlt(
    counter: OpCounter,
    points_world: np.ndarray,
    points_image: np.ndarray,
) -> List[Pose]:
    """Linear 6+ point absolute pose via the Direct Linear Transform."""
    n = len(points_world)
    if n < 6:
        raise ValueError("dlt needs at least 6 correspondences")
    a = np.zeros((2 * n, 12))
    for i in range(n):
        x, y, z = points_world[i]
        u, v = points_image[i]
        a[2 * i] = [x, y, z, 1, 0, 0, 0, 0, -u * x, -u * y, -u * z, -u]
        a[2 * i + 1] = [0, 0, 0, 0, x, y, z, 1, -v * x, -v * y, -v * z, -v]
    counter.flop_mix(mul=8 * n)
    counter.store(24 * n)

    p_vec = linalg.nullspace_vector(counter, a)
    p_mat = p_vec.reshape(3, 4)
    m = p_mat[:, :3]
    # Fix scale/sign so that det(R) = +1 and points have positive depth.
    scale = np.cbrt(np.linalg.det(m))
    counter.flop_mix(add=5, mul=12, div=1, func=1)
    if abs(scale) < 1e-12:
        return []
    p_mat = p_mat / scale
    counter.vec_scale(12)
    r = orthonormalize(counter, p_mat[:, :3])
    t = p_mat[:, 3]
    depths = points_world @ r[2] + t[2]
    counter.mat_vec(1, 3 * n)
    if np.median(depths) < 0:
        r = orthonormalize(counter, -p_mat[:, :3])
        t = -t
        counter.vec_scale(12)
    return [(r, t)]


def absolute_gold_standard(
    counter: OpCounter,
    points_world: np.ndarray,
    points_image: np.ndarray,
    iterations: int = 10,
) -> List[Pose]:
    """DLT initialization + Gauss-Newton reprojection refinement."""
    init = dlt(counter, points_world, points_image)
    if not init:
        return []
    r, t = init[0]
    n = len(points_world)
    for _ in range(iterations):
        counter.loop_overhead(1)
        cam = points_world @ r.T + t
        counter.mat_mat(n, 3, 3)
        counter.vec_add(3 * n)
        z = cam[:, 2]
        if np.any(z < 1e-9):
            break
        proj = cam[:, :2] / cam[:, 2:3]
        counter.flop_mix(div=2 * n)
        resid = (proj - points_image).ravel()
        counter.vec_add(2 * n)

        jac = np.zeros((2 * n, 6))
        for i in range(n):
            x_c, y_c, z_c = cam[i]
            inv_z = 1.0 / z_c
            # d(proj)/d(cam): standard pinhole Jacobian.
            dproj = np.array(
                [[inv_z, 0.0, -x_c * inv_z**2], [0.0, inv_z, -y_c * inv_z**2]]
            )
            # cam = R p + t; d(cam)/d(omega) = -[R p]_x, d(cam)/dt = I.
            rp = cam[i] - t
            dcam = np.hstack(
                [
                    np.array(
                        [
                            [0.0, rp[2], -rp[1]],
                            [-rp[2], 0.0, rp[0]],
                            [rp[1], -rp[0], 0.0],
                        ]
                    ),
                    np.eye(3),
                ]
            )
            jac[2 * i : 2 * i + 2] = dproj @ dcam
            counter.flop_mix(add=8, mul=22, div=1)
        delta = linalg.gauss_newton_step(counter, jac, resid)
        omega, dt_vec = delta[:3], delta[3:]
        angle = np.linalg.norm(omega)
        counter.vec_norm(3)
        if angle > 1e-12:
            axis = omega / angle
            k = np.array(
                [
                    [0, -axis[2], axis[1]],
                    [axis[2], 0, -axis[0]],
                    [-axis[1], axis[0], 0],
                ]
            )
            dr = np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)
            counter.flop_mix(add=18, mul=30, func=2)
            r = dr @ r
            counter.mat_mat(3, 3, 3)
        t = t + dt_vec
        counter.vec_add(3)
        if float(np.linalg.norm(delta)) < 1e-10:
            counter.branch()
            break
    return [(orthonormalize(counter, r), t)]


def solve_best_absolute(
    counter: OpCounter,
    solver,
    points_world: np.ndarray,
    points_image: np.ndarray,
    all_world: Optional[np.ndarray] = None,
    all_image: Optional[np.ndarray] = None,
) -> Optional[Pose]:
    """Run a multi-solution solver and disambiguate by reprojection."""
    candidates = solver(counter, points_world, points_image)
    if not candidates:
        return None
    ref_w = all_world if all_world is not None else points_world
    ref_i = all_image if all_image is not None else points_image
    return best_pose_by_reprojection(counter, candidates, ref_w, ref_i)
