"""AXLE-style chain factor-graph trajectory smoothing [50].

The paper's "planned near-term expansions" list opens with "lightweight
factor graph optimization [50]" — Olson's AXLE: computationally efficient
trajectory smoothing over *chain-structured* factor graphs.  A robot's
trajectory with odometry factors between consecutive poses and sparse
absolute fixes yields a block-tridiagonal normal-equation system, which a
block Thomas solver factors in O(N) — the property that makes smoothing
feasible on a microcontroller at all (a dense solve is O(N^3)).

Poses are planar (x, y, theta).  The solver is a Gauss-Newton loop:
linearize all factors, assemble the block-tridiagonal system, solve by
block elimination, update, repeat.  All real math, all operation-counted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.mcu import linalg
from repro.mcu.ops import OpCounter

POSE_DIM = 3


def wrap_angle(a):
    """Wrap angles to (-pi, pi]."""
    return (a + np.pi) % (2.0 * np.pi) - np.pi


def _rot2(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def relative_pose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pose b expressed in frame a (the odometry measurement model)."""
    dp = _rot2(a[2]).T @ (b[:2] - a[:2])
    return np.array([dp[0], dp[1], wrap_angle(b[2] - a[2])])


@dataclass(frozen=True)
class OdometryFactor:
    """Relative-motion constraint between poses i and i+1."""

    index: int  # connects pose index -> index + 1
    measurement: np.ndarray  # (dx, dy, dtheta) in frame i
    information: np.ndarray  # (3, 3)


@dataclass(frozen=True)
class PriorFactor:
    """Absolute pose fix (anchor, intermittent GPS/mocap/loop anchor)."""

    index: int
    measurement: np.ndarray
    information: np.ndarray


@dataclass
class ChainFactorGraph:
    """A chain of planar poses with odometry and sparse prior factors."""

    n_poses: int
    odometry: List[OdometryFactor] = field(default_factory=list)
    priors: List[PriorFactor] = field(default_factory=list)

    def add_odometry(self, index: int, measurement, information=None) -> None:
        if not 0 <= index < self.n_poses - 1:
            raise ValueError(f"odometry index {index} out of range")
        info = (np.asarray(information, dtype=np.float64)
                if information is not None else np.diag([100.0, 100.0, 400.0]))
        self.odometry.append(
            OdometryFactor(index, np.asarray(measurement, dtype=np.float64), info)
        )

    def add_prior(self, index: int, measurement, information=None) -> None:
        if not 0 <= index < self.n_poses:
            raise ValueError(f"prior index {index} out of range")
        info = (np.asarray(information, dtype=np.float64)
                if information is not None else np.diag([400.0, 400.0, 40.0]))
        self.priors.append(
            PriorFactor(index, np.asarray(measurement, dtype=np.float64), info)
        )


@dataclass
class SmoothingResult:
    poses: np.ndarray  # (N, 3)
    iterations: int
    initial_cost: float
    final_cost: float
    converged: bool


def _odometry_residual_and_jacobians(
    counter: OpCounter, xi: np.ndarray, xj: np.ndarray, z: np.ndarray
):
    """Residual r = rel(xi, xj) - z, with Jacobians wrt xi and xj."""
    c, s = np.cos(xi[2]), np.sin(xi[2])
    counter.ffunc(2)
    r_t = np.array([[c, s], [-s, c]])  # R(theta_i)^T
    dp = xj[:2] - xi[:2]
    local = r_t @ dp
    counter.flop_mix(add=4, mul=6)
    residual = np.array(
        [local[0] - z[0], local[1] - z[1], wrap_angle(xj[2] - xi[2] - z[2])]
    )
    counter.flop_mix(add=4)

    # d(local)/d(theta_i) = dR^T/dtheta @ dp
    dr_t = np.array([[-s, c], [-c, -s]])
    dlocal_dtheta = dr_t @ dp
    counter.flop_mix(add=2, mul=4)
    ji = np.zeros((3, 3))
    ji[:2, :2] = -r_t
    ji[:2, 2] = dlocal_dtheta
    ji[2, 2] = -1.0
    jj = np.zeros((3, 3))
    jj[:2, :2] = r_t
    jj[2, 2] = 1.0
    counter.store(18)
    return residual, ji, jj


def smooth(
    counter: OpCounter,
    graph: ChainFactorGraph,
    initial: np.ndarray,
    max_iterations: int = 10,
    tol: float = 1e-8,
) -> SmoothingResult:
    """Gauss-Newton smoothing with a block-tridiagonal (Thomas) solve."""
    n = graph.n_poses
    x = np.asarray(initial, dtype=np.float64).copy()
    if x.shape != (n, POSE_DIM):
        raise ValueError(f"initial must be ({n}, {POSE_DIM})")

    initial_cost = _total_cost(counter, graph, x)
    cost = initial_cost
    converged = False
    iterations = 0
    for _ in range(max_iterations):
        iterations += 1
        counter.loop_overhead(1)
        diag, off, rhs = _assemble(counter, graph, x)
        delta = _solve_block_tridiagonal(counter, diag, off, rhs)
        x = x + delta.reshape(n, POSE_DIM)
        x[:, 2] = wrap_angle(x[:, 2])
        counter.vec_add(3 * n)
        new_cost = _total_cost(counter, graph, x)
        counter.fcmp()
        if abs(cost - new_cost) < tol * max(cost, 1.0):
            cost = new_cost
            converged = True
            counter.branch()
            break
        cost = new_cost
    return SmoothingResult(x, iterations, initial_cost, cost, converged)


def _total_cost(counter: OpCounter, graph: ChainFactorGraph, x: np.ndarray) -> float:
    cost = 0.0
    for f in graph.odometry:
        r, _, _ = _odometry_residual_and_jacobians(
            counter, x[f.index], x[f.index + 1], f.measurement
        )
        cost += float(r @ f.information @ r)
        counter.mat_vec(3, 3)
        counter.vec_dot(3)
    for f in graph.priors:
        r = x[f.index] - f.measurement
        r[2] = wrap_angle(r[2])
        counter.vec_add(3)
        cost += float(r @ f.information @ r)
        counter.mat_vec(3, 3)
        counter.vec_dot(3)
    return cost


def _assemble(counter: OpCounter, graph: ChainFactorGraph, x: np.ndarray):
    """Normal equations in block-tridiagonal form: (diag, off, rhs).

    ``off[i]`` couples pose i to pose i+1 (upper blocks; the lower are the
    transposes).
    """
    n = graph.n_poses
    diag = np.zeros((n, POSE_DIM, POSE_DIM))
    off = np.zeros((n - 1, POSE_DIM, POSE_DIM))
    rhs = np.zeros((n, POSE_DIM))

    for f in graph.odometry:
        r, ji, jj = _odometry_residual_and_jacobians(
            counter, x[f.index], x[f.index + 1], f.measurement
        )
        w = f.information
        diag[f.index] += ji.T @ w @ ji
        diag[f.index + 1] += jj.T @ w @ jj
        off[f.index] += ji.T @ w @ jj
        rhs[f.index] -= ji.T @ (w @ r)
        rhs[f.index + 1] -= jj.T @ (w @ r)
        counter.mat_mat(3, 3, 3)
        counter.mat_mat(3, 3, 3)
        counter.mat_mat(3, 3, 3)
        counter.mat_mat(3, 3, 3)
        counter.mat_mat(3, 3, 3)
        counter.mat_mat(3, 3, 3)
        counter.mat_vec(3, 3)
        counter.mat_vec(3, 3)
        counter.mat_vec(3, 3)
        counter.mat_add(3, 3)
        counter.mat_add(3, 3)
        counter.mat_add(3, 3)
    for f in graph.priors:
        r = x[f.index] - f.measurement
        r[2] = wrap_angle(r[2])
        diag[f.index] += f.information
        rhs[f.index] -= f.information @ r
        counter.mat_add(3, 3)
        counter.mat_vec(3, 3)
        counter.vec_add(3)
    return diag, off, rhs


def _solve_block_tridiagonal(
    counter: OpCounter,
    diag: np.ndarray,
    off: np.ndarray,
    rhs: np.ndarray,
) -> np.ndarray:
    """Block Thomas algorithm: O(N) forward elimination + back substitution.

    This is AXLE's efficiency argument — the chain structure keeps the
    factorization linear in trajectory length.
    """
    n = len(diag)
    d = diag.copy()
    r = rhs.copy()
    # Forward elimination.
    for i in range(n - 1):
        counter.loop_overhead(1)
        # gain = off[i]^T @ inv(d[i])
        inv_d = linalg.inverse(counter, d[i])
        gain = off[i].T @ inv_d
        counter.mat_mat(3, 3, 3)
        d[i + 1] = d[i + 1] - gain @ off[i]
        counter.mat_mat(3, 3, 3)
        counter.mat_add(3, 3)
        r[i + 1] = r[i + 1] - gain @ r[i]
        counter.mat_vec(3, 3)
        counter.vec_add(3)
    # Back substitution.
    out = np.zeros_like(r)
    out[n - 1] = linalg.lu_solve(counter, d[n - 1], r[n - 1])
    for i in range(n - 2, -1, -1):
        counter.loop_overhead(1)
        out[i] = linalg.lu_solve(counter, d[i], r[i] - off[i] @ out[i + 1])
        counter.mat_vec(3, 3)
        counter.vec_add(3)
    return out.reshape(-1)


def solve_dense_for_reference(
    counter: OpCounter,
    graph: ChainFactorGraph,
    x: np.ndarray,
) -> np.ndarray:
    """One dense Gauss-Newton step (the O(N^3) baseline AXLE avoids)."""
    n = graph.n_poses
    diag, off, rhs = _assemble(counter, graph, x)
    big = np.zeros((n * POSE_DIM, n * POSE_DIM))
    for i in range(n):
        big[3 * i : 3 * i + 3, 3 * i : 3 * i + 3] = diag[i]
    for i in range(n - 1):
        big[3 * i : 3 * i + 3, 3 * i + 3 : 3 * i + 6] = off[i]
        big[3 * i + 3 : 3 * i + 6, 3 * i : 3 * i + 3] = off[i].T
    counter.store(9 * (3 * n - 2))
    return linalg.lu_solve(counter, big, rhs.reshape(-1))
