"""Linearized flapping-wing vehicle models for the control kernels.

* ``fly_longitudinal`` — the 4-state planar model of [19] used by
  ``fly-lqr`` and ``fly-tiny-mpc``: horizontal position, velocity, pitch,
  pitch rate, driven by a single torque input.  The dynamics and gain
  matrices are sparse — which a generic dense implementation cannot
  exploit (the paper's Case Study 3 observation).
* ``bee_hover`` — a 6-state, 3-input hover model (position + velocity,
  force inputs) for the OSQP-style ``bee-mpc``.

All matrices are discrete-time (zero-order hold at the control rate).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

GRAVITY = 9.81


@dataclass(frozen=True)
class LinearModel:
    """Discrete-time LTI model with quadratic stage cost."""

    name: str
    a: np.ndarray
    b: np.ndarray
    q: np.ndarray
    r: np.ndarray
    dt: float
    #: Element-wise input bounds (lo, hi), broadcastable to the input dim.
    u_min: np.ndarray
    u_max: np.ndarray

    @property
    def nx(self) -> int:
        return self.a.shape[0]

    @property
    def nu(self) -> int:
        return self.b.shape[1]

    @cached_property
    def dare(self) -> np.ndarray:
        """The infinite-horizon cost-to-go P, solved once per model.

        The model's gain, terminal cost and validity checks all read this
        one solution; the memo lives exactly as long as the model.
        """
        from repro.control.lqr import solve_dare

        p = solve_dare(self.a, self.b, self.q, self.r)
        p.flags.writeable = False  # one array, shared by every reader
        return p

    def step(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        return self.a @ x + self.b @ u

    def clip_input(self, u: np.ndarray) -> np.ndarray:
        return np.clip(u, self.u_min, self.u_max)


def fly_longitudinal(dt: float = 0.002, inertia: float = 1.5e-9,
                     torque_limit: float = 2e-7) -> LinearModel:
    """4-state planar flapping-wing model: x = [x, vx, theta, theta_dot].

    Pitch tilts the thrust vector, accelerating the body horizontally; the
    single input is a pitch torque (scaled to units of rad/s^2 here so the
    conditioning matches an embedded fixed-scale implementation).
    """
    a = np.array(
        [
            [1.0, dt, 0.0, 0.0],
            [0.0, 1.0, -GRAVITY * dt, 0.0],
            [0.0, 0.0, 1.0, dt],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    b = np.array([[0.0], [0.0], [0.0], [dt]])
    q = np.diag([40.0, 4.0, 2.0, 0.1])
    r = np.array([[1e-4]])
    limit = torque_limit / inertia  # rad/s^2
    return LinearModel(
        "fly-longitudinal", a, b, q, r, dt,
        u_min=np.array([-limit]), u_max=np.array([limit]),
    )


def bee_hover(dt: float = 0.02, accel_limit: float = 6.0) -> LinearModel:
    """6-state hover model: x = [p(3), v(3)], u = mass-normalized forces.

    Position-level MPC runs at a slower rate (50 Hz) than the inner
    attitude loop, so the horizon covers a meaningful motion window.
    """
    a = np.eye(6)
    a[0:3, 3:6] = np.eye(3) * dt
    b = np.vstack([np.eye(3) * (0.5 * dt * dt), np.eye(3) * dt])
    q = np.diag([60.0, 60.0, 80.0, 6.0, 6.0, 8.0])
    r = np.eye(3) * 1e-3
    return LinearModel(
        "bee-hover", a, b, q, r, dt,
        u_min=np.full(3, -accel_limit), u_max=np.full(3, accel_limit),
    )


def simulate_closed_loop(
    model: LinearModel,
    controller,
    x0: np.ndarray,
    n_steps: int,
    disturbance: float = 0.0,
    seed: int = 0,
) -> np.ndarray:
    """Roll the model forward under a ``controller(x, k) -> u`` policy.

    Returns the (n_steps+1, nx) state history.  Inputs are saturated at the
    model limits, as the real drive electronics would.
    """
    rng = np.random.default_rng(seed)
    xs = np.zeros((n_steps + 1, model.nx))
    xs[0] = x0
    for k in range(n_steps):
        u = model.clip_input(np.atleast_1d(controller(xs[k], k)))
        x_next = model.step(xs[k], u)
        if disturbance > 0:
            x_next = x_next + rng.normal(0.0, disturbance, size=model.nx)
        xs[k + 1] = x_next
    return xs
