"""OSQP-style ADMM MPC (the ``bee-mpc`` kernel) [17].

A general-purpose operator-splitting QP solver applied to a condensed MPC
problem: unlike TinyMPC it factors a full KKT system and iterates ADMM
over the stacked decision vector — the only control kernel in the suite
with general iterative optimization, and by far the most expensive
(Table IV's bee-mpc row).

QP form::

    min 0.5 w' P w + q' w    s.t.  l <= A w <= u

with ``w`` the stacked inputs over the horizon and box input constraints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.control.dynamics import LinearModel
from repro.mcu import linalg
from repro.mcu.ops import OpCounter


def condense_mpc(
    model: LinearModel, horizon: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Condense the MPC into (P, S, c-map): w = stacked inputs.

    ``x_k = A^k x0 + sum_j S_{kj} u_j``; the quadratic cost over the
    horizon condenses to ``P = 2 (S' Qbar S + Rbar)`` and the linear term
    depends on x0 and the reference (computed per solve).
    """
    nx, nu = model.nx, model.nu
    n = horizon
    # Prediction matrix S: (n*nx, n*nu), and free-response powers of A.
    s = np.zeros((n * nx, n * nu))
    a_pow = [np.eye(nx)]
    for k in range(1, n + 1):
        a_pow.append(a_pow[-1] @ model.a)
    for k in range(1, n + 1):
        for j in range(k):
            s[(k - 1) * nx : k * nx, j * nu : (j + 1) * nu] = (
                a_pow[k - 1 - j] @ model.b
            )
    # Terminal cost = the DARE solution, so the receding-horizon MPC
    # inherits infinite-horizon behaviour despite the short horizon.
    q_blocks = [model.q] * (n - 1) + [model.dare]
    q_bar = np.zeros((n * nx, n * nx))
    for k, blk in enumerate(q_blocks):
        q_bar[k * nx : (k + 1) * nx, k * nx : (k + 1) * nx] = blk
    r_bar = np.kron(np.eye(n), model.r)
    p = 2.0 * (s.T @ q_bar @ s + r_bar)
    return p, s, np.vstack(a_pow[1:]), q_bar


@dataclass
class OsqpResult:
    u0: np.ndarray
    iterations: int
    primal_residual: float
    dual_residual: float
    converged: bool


class OsqpMpc:
    """Condensed MPC solved by an OSQP-style ADMM loop."""

    def __init__(self, model: LinearModel, horizon: int = 8,
                 rho: Optional[float] = None, sigma: float = 1e-6):
        self.model = model
        self.n = horizon
        self.sigma = sigma
        self.p_mat, self.s_mat, self.a_powers, self.q_bar = condense_mpc(model, horizon)
        nu = model.nu
        self.n_var = horizon * nu
        # OSQP scales the penalty to the problem; without its full
        # adaptive-rho machinery, a fraction of the mean curvature works.
        self.rho = rho if rho is not None else 0.1 * float(
            np.mean(np.diag(self.p_mat))
        )
        # Constraint matrix: box bounds on every input (A = I).
        self.l_vec = np.tile(model.u_min, horizon)
        self.u_vec = np.tile(model.u_max, horizon)
        self._kkt_factor: Optional[np.ndarray] = None
        # Warm starts carried between receding-horizon solves.
        self._w = np.zeros(self.n_var)
        self._y = np.zeros(self.n_var)

    def _linear_term(self, counter: OpCounter, x0: np.ndarray,
                     x_ref: np.ndarray) -> np.ndarray:
        """q = 2 S' Qbar (free_response - ref)."""
        n, nx = self.n, self.model.nx
        free = self.a_powers @ x0
        counter.mat_vec(n * nx, nx)
        err = free - x_ref[:n].reshape(-1)
        counter.vec_add(n * nx)
        q_bar_err = self.q_bar @ err
        counter.mat_vec(n * nx, nx)  # block-diagonal product
        q = 2.0 * (self.s_mat.T @ q_bar_err)
        counter.mat_vec(self.n_var, n * nx)
        counter.vec_scale(self.n_var)
        return q

    def _factor_kkt(self, counter: OpCounter) -> np.ndarray:
        """Cholesky factor of P + sigma I + rho A'A (A = I here).

        OSQP refactors whenever rho adapts; this solver factors once per
        solve, which is what the embedded port does.
        """
        m = self.p_mat + (self.sigma + self.rho) * np.eye(self.n_var)
        counter.mat_add(self.n_var, self.n_var)
        return linalg.cholesky(counter, m)

    def solve(
        self,
        counter: OpCounter,
        x0: np.ndarray,
        x_ref: np.ndarray,
        max_iters: int = 50,
        tol: float = 1e-4,
        check_every: int = 10,
    ) -> OsqpResult:
        nv = self.n_var
        q = self._linear_term(counter, x0, x_ref)
        chol = self._factor_kkt(counter)

        w = self._w.copy()
        y = self._y.copy()
        z = np.clip(w, self.l_vec, self.u_vec)
        iterations = 0
        primal = dual = np.inf
        for it in range(max_iters):
            iterations = it + 1
            counter.loop_overhead(1)
            rhs = self.sigma * w - q + self.rho * z - y
            counter.vec_add(3 * nv)
            counter.vec_scale(2 * nv)
            w = linalg.cholesky_solve(counter, chol, rhs)
            z_prev = z
            z = np.clip(w + y / self.rho, self.l_vec, self.u_vec)
            counter.vec_add(nv)
            counter.vec_scale(nv)
            counter.fcmp(2 * nv)
            y = y + self.rho * (w - z)
            counter.vec_axpy(nv)
            counter.vec_add(nv)
            # OSQP only evaluates termination every check_every iterations
            # (residual computation is itself costly on an MCU).
            if iterations % check_every == 0:
                primal = float(np.abs(w - z).max())
                dual = float(self.rho * np.abs(z - z_prev).max())
                counter.vec_add(2 * nv)
                counter.fcmp(2 * nv)
                if primal < tol and dual < tol:
                    counter.branch()
                    break
        # Shift the solution one step for the next receding-horizon solve.
        nu = self.model.nu
        self._w = np.concatenate([w[nu:], w[-nu:]])
        self._y = np.concatenate([y[nu:], y[-nu:]])
        u0 = z[:nu].copy()
        return OsqpResult(u0, iterations, primal, dual,
                          primal < tol and dual < tol)

    def flops_per_solve(self, assumed_iters: int = 10) -> int:
        """Idealized FLOP estimate: factorization + a few triangular
        solves, no projections or residual bookkeeping counted."""
        nv = self.n_var
        return nv**3 // 3 + assumed_iters * 2 * nv * nv
