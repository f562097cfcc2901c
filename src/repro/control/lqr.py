"""Infinite-horizon discrete LQR (the ``fly-lqr`` kernel).

The gain is computed offline (a Riccati iteration at construction, exactly
like the precomputed gains flashed onto the robot); the on-device kernel is
the per-step dense gain application ``u = -K (x - x_ref)``.  The 4x4 gain
of the fly model is sparse, but — as the paper observes — the generic
dense implementation cannot exploit that, so the dense mat-vec cost is what
gets recorded.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.control.dynamics import LinearModel
from repro.mcu.ops import OpCounter


def solve_dare(a: np.ndarray, b: np.ndarray, q: np.ndarray, r: np.ndarray,
               iterations: int = 4000, tol: float = 1e-10) -> np.ndarray:
    """Discrete algebraic Riccati equation by fixed-point iteration."""
    p = q.copy()
    for _ in range(iterations):
        btp = b.T @ p
        k = np.linalg.solve(r + btp @ b, btp @ a)
        p_next = q + a.T @ p @ (a - b @ k)
        if np.max(np.abs(p_next - p)) < tol:
            return p_next
        p = p_next
    return p


def lqr_gain(model: LinearModel) -> np.ndarray:
    """Infinite-horizon LQR gain K such that u = -K x stabilizes."""
    btp = model.b.T @ model.dare
    return np.linalg.solve(model.r + btp @ model.b, btp @ model.a)


class LqrController:
    """Per-step dense gain application, operation-counted."""

    def __init__(self, model: LinearModel):
        self.model = model
        self.k = lqr_gain(model)

    def compute(self, counter: OpCounter, x: np.ndarray,
                x_ref: Optional[np.ndarray] = None) -> np.ndarray:
        """u = -K (x - x_ref), saturated at the model's input limits."""
        nx, nu = self.model.nx, self.model.nu
        err = x - (x_ref if x_ref is not None else 0.0)
        counter.vec_add(nx)
        u = -(self.k @ err)
        counter.mat_vec(nu, nx)
        counter.vec_scale(nu)
        u = self.model.clip_input(u)
        counter.fcmp(2 * nu)
        return u
