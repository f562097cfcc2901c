"""TinyMPC (the ``fly-tiny-mpc`` kernel) [48].

ADMM-based MPC specialized for microcontrollers: the expensive Riccati
quantities (the infinite-horizon gain K, cost-to-go P, and the cached
back-substitution matrices C1, C2) are computed once at start-up, so every
ADMM iteration is only a backward pass over linear terms, a forward
rollout, a box projection, and a dual update.

The paper notes the start-up computation "involves dense and iterative
matrix-vector products" that "can exceed available stack space on the M4
if the horizon length is too long" — the start-up pass here is operation-
counted separately so that cost is visible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.control.dynamics import LinearModel
from repro.mcu import linalg
from repro.mcu.ops import OpCounter, OpTrace


@dataclass
class TinyMpcResult:
    u0: np.ndarray
    iterations: int
    primal_residual: float
    dual_residual: float
    converged: bool


class TinyMpc:
    """Cache-based ADMM MPC over a box input constraint."""

    def __init__(self, model: LinearModel, horizon: int = 10,
                 rho: Optional[float] = None):
        self.model = model
        self.n = horizon
        # The penalty must sit at the scale of the input cost, or the
        # cached rho-augmented gain is far from the true LQR gain and
        # truncated ADMM under-actuates.
        self.rho = rho if rho is not None else 0.1 * float(np.mean(np.diag(model.r)))
        self._cache_ready = False
        # Warm starts carried between receding-horizon solves.
        self._z: Optional[np.ndarray] = None
        self._y: Optional[np.ndarray] = None
        # Filled by setup_cache():
        self.k_inf: Optional[np.ndarray] = None
        self.p_inf: Optional[np.ndarray] = None
        self.c1: Optional[np.ndarray] = None  # (R + rho I + B'PB)^-1
        self.c2: Optional[np.ndarray] = None  # (A - BK)'
        self._iteration_ops = self._tally_iteration()

    def reset(self) -> None:
        """Discard the carried warm start; the next solve starts cold."""
        self._z = self._y = None

    def _tally_iteration(self) -> OpTrace:
        """The ops of one ADMM iteration, recorded step by step.

        They depend only on the horizon and the model's dimensions, so
        :meth:`solve` absorbs this one tally per iteration instead of
        re-recording it.
        """
        n, nx, nu = self.n, self.model.nx, self.model.nu
        counter = OpCounter()
        counter.loop_overhead(1)
        # Backward pass over linear terms.
        counter.store(nx)
        for _ in range(n):
            counter.loop_overhead(1)
            counter.vec_add(nu)
            counter.vec_scale(nu)
            counter.mat_vec(nu, nx)
            counter.mat_vec(nu, nu)
            counter.vec_add(nu)
            counter.mat_vec(nx, nx)
            counter.mat_vec(nx, nu)
            counter.vec_add(2 * nx)
        # Forward rollout.
        for _ in range(n):
            counter.loop_overhead(1)
            counter.mat_vec(nu, nx)
            counter.vec_add(nu)
            counter.mat_vec(nx, nx)
            counter.mat_vec(nx, nu)
            counter.vec_add(nx)
        # Projection, dual update and residuals.
        counter.vec_add(n * nu)
        counter.fcmp(2 * n * nu)
        counter.vec_add(2 * n * nu)
        counter.vec_add(2 * n * nu)
        counter.fcmp(2 * n * nu)
        return counter.trace

    def setup_cache(self, counter: OpCounter, riccati_iters: int = 500) -> None:
        """The on-device start-up pass: iterate Riccati to (near) fixpoint.

        Dense and iterative — exactly the start-up cost the paper says
        could be moved offline.
        """
        m = self.model
        nx, nu = m.nx, m.nu
        r_tilde = m.r + self.rho * np.eye(nu)
        counter.mat_add(nu, nu)
        p = m.q.copy()
        k = np.zeros((nu, nx))
        for _ in range(riccati_iters):
            counter.loop_overhead(1)
            btp = linalg.matmul(counter, m.b.T, p)
            lhs = linalg.add(counter, r_tilde, linalg.matmul(counter, btp, m.b))
            k = linalg.lu_solve(counter, lhs, linalg.matmul(counter, btp, m.a))
            a_bk = linalg.add(counter, m.a, -linalg.matmul(counter, m.b, k))
            p_next = linalg.add(
                counter,
                m.q + linalg.matmul(counter, k.T, linalg.matmul(counter, m.r, k)),
                linalg.matmul(counter, a_bk.T, linalg.matmul(counter, p, a_bk)),
            )
            counter.mat_add(nx, nx)
            if np.max(np.abs(p_next - p)) < 1e-10:
                p = p_next
                counter.branch()
                break
            p = p_next
        self.k_inf, self.p_inf = k, p
        btp = linalg.matmul(counter, self.model.b.T, p)
        self.c1 = linalg.inverse(
            counter, r_tilde + linalg.matmul(counter, btp, self.model.b)
        )
        self.c2 = linalg.transpose(
            counter, self.model.a - self.model.b @ self.k_inf
        )
        counter.mat_mat(nx, nu, nx)
        self._cache_ready = True

    def solve(
        self,
        counter: OpCounter,
        x0: np.ndarray,
        x_ref: np.ndarray,
        max_iters: int = 12,
        tol: float = 1e-4,
        fixed_iterations: bool = False,
    ) -> TinyMpcResult:
        """One MPC solve (returns the first input of the plan).

        ``fixed_iterations=True`` disables early termination — the
        deterministic-latency mode real-time TinyMPC deployments run in
        (a control loop must budget worst-case time anyway).
        """
        if not self._cache_ready:
            self.setup_cache(counter)
        m = self.model
        n, nx, nu = self.n, m.nx, m.nu
        a, b, bt = m.a, m.b, m.b.T
        rho, c1, c2 = self.rho, self.c1, self.c2
        k_inf, k_inf_t = self.k_inf, self.k_inf.T

        x = np.tile(x0, (n + 1, 1))
        u = np.zeros((n, nu))
        if self._z is not None:  # shift-warm-start slack and duals
            z = np.vstack([self._z[1:], self._z[-1:]])
            y = np.vstack([self._y[1:], self._y[-1:]])
        else:
            z = np.zeros((n, nu))
            y = np.zeros((n, nu))
        q_lin = -(x_ref @ m.q)  # linear state cost terms
        counter.mat_mat(n + 1, nx, nx)

        iterations = 0
        primal = dual = np.inf
        for it in range(max_iters):
            iterations = it + 1
            counter.absorb(self._iteration_ops)
            # Backward pass over linear terms (gains are cached).
            d = np.zeros((n, nu))
            p_vec = q_lin[n].copy()
            for t in range(n - 1, -1, -1):
                r_lin = rho * (y[t] - z[t])
                d[t] = c1 @ (bt @ p_vec + r_lin)
                p_vec = q_lin[t] + c2 @ p_vec - k_inf_t @ r_lin
            # Forward rollout.
            x[0] = x0
            for t in range(n):
                u[t] = -(k_inf @ x[t]) - d[t]
                x[t + 1] = a @ x[t] + b @ u[t]
            # Projection (box constraints) and dual update.
            z_prev = z
            z = np.clip(u + y, m.u_min, m.u_max)
            y = y + u - z
            primal = float(np.abs(u - z).max())
            dual = float(rho * np.abs(z - z_prev).max())
            if not fixed_iterations and primal < tol and dual < tol:
                counter.branch()
                break
        self._z, self._y = z.copy(), y.copy()
        return TinyMpcResult(
            u0=z[0].copy(),
            iterations=iterations,
            primal_residual=primal,
            dual_residual=dual,
            converged=primal < tol and dual < tol,
        )

    @staticmethod
    def flops_per_solve(nx: int = 4, nu: int = 1, horizon: int = 10) -> int:
        """Idealized FLOP tally for one solve (as [19]'s supplement would
        estimate the TinyMPC upgrade): one backward + forward sweep."""
        per_step = 2 * nx * nx + 4 * nx * nu + 6 * nu
        return horizon * per_step + 10 * nx
