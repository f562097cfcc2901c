"""Generic Extended Kalman Filter framework.

Mirrors the paper's "generic EKF wrapper" that "supports synchronous or
asynchronous updates, implementing the sequential update and truncated
update logic presented in [65]".  It is deliberately *generic*: dense
matrices sized at run time, no exploitation of sparsity or constant
Jacobians — which is exactly why measured cost exceeds static FLOP tallies
(Case Study 3).  The overhead a dynamic-dimension C++ framework pays
(dispatch, bounds checks, copies) is recorded per matrix operation.

Update strategies:

* **sync**       — stack all pending measurements; one m x m innovation
  inverse.
* **sequential** — process each scalar measurement independently: no
  matrix inverse (scalar divide) but a full covariance update per scalar.
* **truncated**  — sequential, but each scalar update only touches the
  ``truncate_to`` most strongly coupled states, cutting the covariance
  update cost (the logic of [65]).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.mcu import linalg
from repro.mcu.ops import OpCounter

SYNC = "sync"
SEQUENTIAL = "seq"
TRUNCATED = "trunc"
STRATEGIES = (SYNC, SEQUENTIAL, TRUNCATED)


def _framework_overhead(counter: OpCounter, n_ops: int, dim: int) -> None:
    """Per-matrix-op cost of a dynamic-dimension framework.

    Size checks, stride arithmetic, and (for Eigen with dynamic sizes)
    heap bookkeeping, all integer/branch work proportional to the number of
    library calls and weakly to the dimension.
    """
    counter.ialu(n_ops * (14 + 2 * dim))
    counter.icmp(n_ops * 6)
    counter.branch(n_ops * 4)
    counter.branch(n_ops * 2, taken=False)
    counter.call(n_ops * 3)
    counter.load(n_ops * 8)
    counter.store(n_ops * 4)


class ExtendedKalmanFilter:
    """Dense EKF with pluggable dynamics/measurement models."""

    def __init__(
        self,
        x0: np.ndarray,
        p0: np.ndarray,
        dynamics: Callable[[np.ndarray, Optional[np.ndarray], float], np.ndarray],
        dynamics_jacobian: Optional[Callable[[np.ndarray, Optional[np.ndarray], float], np.ndarray]] = None,
        process_noise: Optional[np.ndarray] = None,
        numeric_jacobian_eps: float = 1e-6,
        central_differences: bool = False,
        eval_cost: Optional[Callable[[OpCounter, int], None]] = None,
        joseph_form: bool = False,
    ):
        self.x = np.asarray(x0, dtype=np.float64).copy()
        self.p = np.asarray(p0, dtype=np.float64).copy()
        self.dynamics = dynamics
        self.dynamics_jacobian = dynamics_jacobian
        self.q = (
            np.asarray(process_noise, dtype=np.float64)
            if process_noise is not None
            else np.eye(len(self.x)) * 1e-4
        )
        self.eps = numeric_jacobian_eps
        self.central = central_differences
        self.joseph_form = joseph_form
        self._eval_cost = eval_cost if eval_cost is not None else self._default_eval_cost

    def _default_eval_cost(self, counter: OpCounter, n_evals: int) -> None:
        """Operation cost of ``n_evals`` dynamics-model evaluations."""
        n = self.dim
        counter.flop_mix(add=n_evals * 3 * n, mul=n_evals * 4 * n, func=n_evals)

    @property
    def dim(self) -> int:
        return len(self.x)

    # -- jacobians ---------------------------------------------------------

    def _numeric_jacobian_f(self, u: Optional[np.ndarray], dt: float,
                            counter: OpCounter) -> np.ndarray:
        """Finite-difference dynamics Jacobian — n+1 dynamics evaluations.

        This is what a generic framework does when no analytic Jacobian is
        supplied, and a large part of the FLOP-count gap for bee-ceekf.
        """
        n = self.dim
        jac = np.zeros((n, n))
        if self.central:
            # Central differences: 2n evaluations, better accuracy, twice
            # the cost — the conservative generic-framework default.
            for j in range(n):
                xp, xm = self.x.copy(), self.x.copy()
                xp[j] += self.eps
                xm[j] -= self.eps
                fp = self.dynamics(xp, u, dt)
                fm = self.dynamics(xm, u, dt)
                jac[:, j] = (fp - fm) / (2 * self.eps)
                counter.vec_add(n)
                counter.vec_scale(n)
            n_evals = 2 * n
        else:
            f0 = self.dynamics(self.x, u, dt)
            for j in range(n):
                xp = self.x.copy()
                xp[j] += self.eps
                fj = self.dynamics(xp, u, dt)
                jac[:, j] = (fj - f0) / self.eps
                counter.vec_add(n)
                counter.vec_scale(n)
            n_evals = n + 1
        self._eval_cost(counter, n_evals)
        _framework_overhead(counter, n_ops=n_evals, dim=n)
        return jac

    # -- predict ------------------------------------------------------------

    def predict(self, u: Optional[np.ndarray], dt: float, counter: OpCounter) -> None:
        n = self.dim
        if self.dynamics_jacobian is not None:
            f_jac = self.dynamics_jacobian(self.x, u, dt)
            counter.flop_mix(add=2 * n, mul=3 * n)  # analytic jacobian fill
        else:
            f_jac = self._numeric_jacobian_f(u, dt, counter)
        self.x = self.dynamics(self.x, u, dt)
        counter.flop_mix(add=3 * n, mul=4 * n)
        # P = F P F^T + Q  (two dense products + add)
        fp = linalg.matmul(counter, f_jac, self.p)
        self.p = linalg.matmul(counter, fp, f_jac.T)
        self.p = linalg.add(counter, self.p, self.q)
        _framework_overhead(counter, n_ops=4, dim=n)

    # -- updates --------------------------------------------------------------

    def update_sync(
        self,
        z: np.ndarray,
        h_fn: Callable[[np.ndarray], np.ndarray],
        h_jac: np.ndarray,
        r: np.ndarray,
        counter: OpCounter,
    ) -> None:
        """Stacked (synchronous) measurement update."""
        n, m = self.dim, len(z)
        y = z - h_fn(self.x)
        counter.flop_mix(add=m * (n + 2), mul=m * n)
        ph_t = linalg.matmul(counter, self.p, h_jac.T)
        s = linalg.add(counter, linalg.matmul(counter, h_jac, ph_t), r)
        k = linalg.matmul(counter, ph_t, linalg.inverse(counter, s))
        self.x = self.x + k @ y
        counter.mat_vec(n, m)
        counter.vec_add(n)
        ikh = np.eye(n) - k @ h_jac
        counter.mat_mat(n, m, n)
        counter.vec_add(n * n)
        if self.joseph_form:
            # P = (I-KH) P (I-KH)^T + K R K^T — numerically safe, 3x cost.
            p1 = linalg.matmul(counter, ikh, self.p)
            p2 = linalg.matmul(counter, p1, ikh.T)
            krk = linalg.matmul(counter, linalg.matmul(counter, k, r), k.T)
            self.p = linalg.add(counter, p2, krk)
        else:
            self.p = linalg.matmul(counter, ikh, self.p)
        _framework_overhead(counter, n_ops=7, dim=n)

    def update_sequential(
        self,
        z: np.ndarray,
        h_fn: Callable[[np.ndarray], np.ndarray],
        h_jac: np.ndarray,
        r_diag: np.ndarray,
        counter: OpCounter,
        truncate_to: Optional[int] = None,
    ) -> None:
        """Scalar-at-a-time update; optionally truncated to ``truncate_to``
        most strongly coupled states per measurement."""
        n = self.dim
        m = len(z)
        for i in range(m):
            h_row = h_jac[i]
            resid = float(z[i] - h_fn(self.x)[i])
            if truncate_to is None:
                # The generic sequential path re-evaluates the full stacked
                # measurement model and re-enters the framework for every
                # scalar — the reason sequential updates measure *slower*
                # than synchronous ones despite fewer arithmetic ops
                # (Table IV's fly-ekf rows).
                counter.flop_mix(add=m * (n + 2), mul=m * n, func=m)
                _framework_overhead(counter, n_ops=18, dim=n)
            else:
                # The truncated logic of [65] evaluates only its own row
                # and keeps the bookkeeping minimal.
                counter.flop_mix(add=n + 2, mul=n, func=1)
                _framework_overhead(counter, n_ops=6, dim=truncate_to)
            ph = self.p @ h_row
            counter.mat_vec(n, n)
            s = float(h_row @ ph) + float(r_diag[i])
            counter.vec_dot(n)
            counter.fadd()
            if abs(s) < 1e-12:
                counter.branch()
                continue
            k = ph / s
            counter.vec_scale(n)
            counter.fdiv()
            if truncate_to is not None and truncate_to < n:
                # Keep only the most strongly corrected states.
                keep = np.argsort(np.abs(k))[::-1][:truncate_to]
                mask = np.zeros(n, dtype=bool)
                mask[keep] = True
                k = np.where(mask, k, 0.0)
                counter.icmp(n)
                counter.branch(n)
                active = truncate_to
            else:
                active = n
            self.x = self.x + k * resid
            counter.vec_axpy(n)
            # Rank-1 covariance update restricted to the active states:
            # P -= k (h P) with k sparse when truncated.
            self.p = self.p - np.outer(k, ph)
            counter.flop_mix(add=active * n, mul=active * n)
            _framework_overhead(counter, n_ops=4, dim=active)

    # -- diagnostics -------------------------------------------------------------

    def is_covariance_psd(self, tol: float = -1e-6) -> bool:
        eigs = np.linalg.eigvalsh((self.p + self.p.T) / 2.0)
        return bool(eigs.min() >= tol)
