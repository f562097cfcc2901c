"""Upright and planar relative pose solvers: u3pt, up2pt, up3pt.

These solvers exploit the structural priors of insect-scale robots:

* ``u3pt``  — gravity known (IMU): rotation reduces to a yaw about the
  vertical, three correspondences, a degree-6 polynomial in the
  half-angle parameter.
* ``up2pt`` — gravity known *and* planar motion (a water strider): two
  correspondences, a quartic.
* ``up3pt`` — same priors, but a *linear* formulation (Choi & Kim): the
  planar-upright essential matrix has only four non-zero parameters, so
  N >= 3 correspondences give an SVD nullspace problem that scales
  linearly in N.

All return candidate poses ``x2 = R @ x1 + t`` with ``t`` up to scale,
disambiguated by cheirality voting.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.mcu import linalg
from repro.mcu.ops import OpCounter
from repro.pose.geometry import cheirality_count, homogeneous

Pose = Tuple[np.ndarray, np.ndarray]


def _rotation_terms(x: np.ndarray) -> np.ndarray:
    """Coefficients (q^2, q, 1) of each component of (1+q^2) R_y(q) x."""
    return np.array(
        [
            [-x[0], 2.0 * x[2], x[0]],
            [x[1], 0.0, x[1]],
            [-x[2], -2.0 * x[0], x[2]],
        ]
    )


def _poly_cross(a_terms: np.ndarray, b: np.ndarray) -> np.ndarray:
    """cross(a(q), b) where a's components are degree-2 polys: (3, 3) array
    of polynomial coefficients (q^2, q, 1) per output component."""
    out = np.zeros((3, 3))
    out[0] = a_terms[1] * b[2] - a_terms[2] * b[1]
    out[1] = a_terms[2] * b[0] - a_terms[0] * b[2]
    out[2] = a_terms[0] * b[1] - a_terms[1] * b[0]
    return out


def _yaw_rotation_from_q(qv: float) -> np.ndarray:
    denom = 1.0 + qv * qv
    c = (1.0 - qv * qv) / denom
    s = 2.0 * qv / denom
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def _poly_mul_1d(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Multiply two polynomials given as high-to-low coefficient arrays."""
    return np.convolve(a, b)


def u3pt(
    counter: OpCounter,
    x1: np.ndarray,
    x2: np.ndarray,
) -> List[Pose]:
    """Upright 3-point relative pose (gravity prior only).

    The translation must be orthogonal to ``c_i(q) = R(q) f1_i x f2_i`` for
    all three correspondences; a non-trivial ``t`` exists iff
    ``det([c1 c2 c3])(q) = 0`` — a degree-6 polynomial in ``q``.
    """
    if len(x1) != 3:
        raise ValueError("u3pt needs exactly 3 correspondences")
    f1 = homogeneous(x1)
    f2 = homogeneous(x2)
    c_polys = []
    for i in range(3):
        terms = _rotation_terms(f1[i])
        c_polys.append(_poly_cross(terms, f2[i]))
        counter.flop_mix(add=9, mul=24)

    # det over polynomial entries: expand along the first row.
    def minor(ci, cj, k, l):  # noqa: E741 - matrix index names
        return _poly_mul_1d(c_polys[1][k], c_polys[2][l]) - _poly_mul_1d(
            c_polys[1][l], c_polys[2][k]
        )

    det = (
        _poly_mul_1d(c_polys[0][0], minor(1, 2, 1, 2))
        - _poly_mul_1d(c_polys[0][1], minor(0, 2, 0, 2))
        + _poly_mul_1d(c_polys[0][2], minor(0, 1, 0, 1))
    )
    counter.flop_mix(add=80, mul=120)

    roots = linalg.poly_roots(counter, det)
    poses: List[Pose] = []
    for root in roots:
        if abs(root.imag) > 1e-8:
            counter.branch(taken=False)
            continue
        qv = float(root.real)
        r = _yaw_rotation_from_q(qv)
        counter.flop_mix(add=2, mul=4, div=2)
        qs = np.array([qv * qv, qv, 1.0])
        c1 = c_polys[0] @ qs
        c2 = c_polys[1] @ qs
        counter.mat_vec(3, 3)
        counter.mat_vec(3, 3)
        t = linalg.cross(counter, c1, c2)
        norm = np.linalg.norm(t)
        counter.vec_norm(3)
        if norm < 1e-12:
            continue
        t = t / norm
        counter.vec_scale(3)
        for t_cand in (t, -t):
            if cheirality_count(counter, x1, x2, r, t_cand) == 3:
                poses.append((r, t_cand))
                break
    return poses


def up2pt(
    counter: OpCounter,
    x1: np.ndarray,
    x2: np.ndarray,
) -> List[Pose]:
    """Upright planar 2-point relative pose (gravity + planar priors).

    With ``t = (tx, 0, tz)`` the orthogonality constraints only involve the
    x/z components of ``c_i(q)``; a non-trivial solution exists iff the 2x2
    determinant vanishes — a quartic in ``q``.
    """
    if len(x1) != 2:
        raise ValueError("up2pt needs exactly 2 correspondences")
    f1 = homogeneous(x1)
    f2 = homogeneous(x2)
    c0 = _poly_cross(_rotation_terms(f1[0]), f2[0])
    c1 = _poly_cross(_rotation_terms(f1[1]), f2[1])
    counter.flop_mix(add=18, mul=48)

    det = _poly_mul_1d(c0[0], c1[2]) - _poly_mul_1d(c0[2], c1[0])
    counter.flop_mix(add=15, mul=18)

    roots = linalg.poly_roots(counter, det)
    poses: List[Pose] = []
    for root in roots:
        if abs(root.imag) > 1e-8:
            counter.branch(taken=False)
            continue
        qv = float(root.real)
        r = _yaw_rotation_from_q(qv)
        counter.flop_mix(add=2, mul=4, div=2)
        qs = np.array([qv * qv, qv, 1.0])
        cx = float(c0[0] @ qs)
        cz = float(c0[2] @ qs)
        counter.vec_dot(3)
        counter.vec_dot(3)
        t = np.array([cz, 0.0, -cx])
        norm = np.linalg.norm(t)
        counter.vec_norm(3)
        if norm < 1e-12:
            # Degenerate first constraint; fall back to the second point.
            cx = float(c1[0] @ qs)
            cz = float(c1[2] @ qs)
            counter.vec_dot(3)
            counter.vec_dot(3)
            t = np.array([cz, 0.0, -cx])
            norm = np.linalg.norm(t)
            if norm < 1e-12:
                continue
        t = t / norm
        counter.vec_scale(3)
        for t_cand in (t, -t):
            if cheirality_count(counter, x1, x2, r, t_cand) == 2:
                poses.append((r, t_cand))
                break
    return poses


def up3pt(
    counter: OpCounter,
    x1: np.ndarray,
    x2: np.ndarray,
) -> List[Pose]:
    """Linear upright-planar solver (Choi & Kim): N >= 3 correspondences.

    The planar-upright essential matrix is ``[[0, e01, 0], [e10, 0, e12],
    [0, e21, 0]]``; each correspondence gives one linear equation in the
    four parameters, solved by SVD nullspace.
    """
    n = len(x1)
    if n < 3:
        raise ValueError("up3pt needs at least 3 correspondences")
    a = np.zeros((n, 4))
    for i in range(n):
        u1, v1 = x1[i]
        u2, v2 = x2[i]
        a[i] = [u2 * v1, v2 * u1, v2, v1]
    counter.flop_mix(mul=2 * n)
    counter.store(4 * n)

    e_params = linalg.nullspace_vector(counter, a)
    e01, e10, e12, e21 = e_params
    # tz = -e01, tx = e21; then [e10; e12] = [[tz, tx], [-tx, tz]] [c; s].
    tz, tx = -e01, e21
    denom = tz * tz + tx * tx
    counter.flop_mix(add=1, mul=2)
    if denom < 1e-18:
        return []
    c = (tz * e10 - tx * e12) / denom
    s = (tx * e10 + tz * e12) / denom
    counter.flop_mix(add=2, mul=4, div=2)
    cs_norm = np.hypot(c, s)
    counter.flop_mix(add=1, mul=2, sqrt=1)
    if cs_norm < 1e-12:
        return []
    c, s = c / cs_norm, s / cs_norm
    counter.flop_mix(div=2)
    r = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    t = np.array([tx, 0.0, tz])
    norm = np.linalg.norm(t)
    counter.vec_norm(3)
    if norm < 1e-12:
        return []
    t = t / norm
    counter.vec_scale(3)

    best, best_votes = None, -1
    for t_cand in (t, -t):
        votes = cheirality_count(counter, x1, x2, r, t_cand, max_points=n)
        if votes > best_votes:
            best, best_votes = (r, t_cand), votes
    return [best] if best is not None and best_votes > 0 else []
