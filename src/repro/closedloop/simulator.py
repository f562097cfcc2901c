"""Lightweight insect-scale dynamics simulators.

The paper's long-term roadmap (Section VI.E): "extend EntoBench with an
open insect-scale simulator that plugs into the current evaluation
harness", so controllers run end-to-end while the framework logs both
compute cost and task-level metrics.  This module provides that simulator
for two representative platforms:

* :class:`FlappingWingBody` — a RoboBee-class 3D rigid body: thrust along
  the body z-axis, three body moments, stroke-synchronous disturbance
  forces, and rigid-body rotational dynamics.
* :class:`WaterStrider`    — a GammaBot-class planar surface vehicle:
  surge force and yaw torque against quadratic drag on the water surface.

Simulators are *environment*, not kernel: their integration cost is never
recorded on the operation counters.  They expose noisy onboard-style
sensor readouts so estimation kernels see realistic inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.mcu.linalg import cross3

GRAVITY = 9.81


def _hat(v: np.ndarray) -> np.ndarray:
    return np.array(
        [[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]]
    )


def _expm_so3(w: np.ndarray) -> np.ndarray:
    angle = float(np.linalg.norm(w))
    if angle < 1e-12:
        return np.eye(3)
    axis = w / angle
    k = _hat(axis)
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


@dataclass
class RigidBodyState:
    """Full state of the flapping-wing body."""

    pos: np.ndarray = field(default_factory=lambda: np.zeros(3))
    vel: np.ndarray = field(default_factory=lambda: np.zeros(3))
    rot: np.ndarray = field(default_factory=lambda: np.eye(3))  # body->world
    omega: np.ndarray = field(default_factory=lambda: np.zeros(3))  # body rates

    def copy(self) -> "RigidBodyState":
        return RigidBodyState(self.pos.copy(), self.vel.copy(),
                              self.rot.copy(), self.omega.copy())

    @property
    def tilt_rad(self) -> float:
        return float(np.arccos(np.clip(self.rot[2, 2], -1.0, 1.0)))


class FlappingWingBody:
    """RoboBee-class rigid body with stroke-coupled disturbances."""

    def __init__(
        self,
        mass: float = 8.0e-5,
        inertia_diag: tuple = (1.4e-9, 1.4e-9, 0.5e-9),
        stroke_freq_hz: float = 120.0,
        disturbance_force: float = 2.0e-5,
        drag_lin: float = 2.0e-4,
        drag_rot: float = 2.0e-9,
        seed: int = 0,
    ):
        self.mass = mass
        self.j = np.diag(inertia_diag)
        self.j_inv = np.linalg.inv(self.j)
        self.stroke_freq = stroke_freq_hz
        self.disturbance_force = disturbance_force
        self.drag_lin = drag_lin
        self.drag_rot = drag_rot
        self._rng = np.random.default_rng(seed)
        self.state = RigidBodyState()
        self.t = 0.0

    def reset(self, tilt_rad: float = 0.0, tilt_axis: Optional[np.ndarray] = None,
              pos: Optional[np.ndarray] = None) -> RigidBodyState:
        self.state = RigidBodyState()
        self.t = 0.0
        if pos is not None:
            self.state.pos = np.asarray(pos, dtype=np.float64).copy()
        if tilt_rad:
            axis = tilt_axis if tilt_axis is not None else np.array([1.0, 0.0, 0.0])
            axis = axis / np.linalg.norm(axis)
            self.state.rot = _expm_so3(axis * tilt_rad)
        return self.state.copy()

    def step(self, thrust: float, moment: np.ndarray, dt: float) -> None:
        """Advance the body by one physics step ``dt`` under (thrust, moment)."""
        s = self.state
        # Stroke-synchronous lateral disturbance plus broadband buffeting.
        phase = 2 * np.pi * self.stroke_freq * self.t
        disturbance = self.disturbance_force * np.array(
            [np.sin(phase), np.cos(phase), 0.15 * np.sin(2 * phase)]
        )
        disturbance += self._rng.normal(0.0, 0.2 * self.disturbance_force, 3)

        force_world = (
            thrust * s.rot[:, 2]
            - np.array([0.0, 0.0, self.mass * GRAVITY])
            + disturbance
            - self.drag_lin * s.vel
        )
        acc = force_world / self.mass
        s.vel = s.vel + acc * dt
        s.pos = s.pos + s.vel * dt

        torque = (
            np.asarray(moment, dtype=np.float64)
            - cross3(s.omega, self.j @ s.omega)
            - self.drag_rot * s.omega
        )
        s.omega = s.omega + (self.j_inv @ torque) * dt
        s.rot = s.rot @ _expm_so3(s.omega * dt)
        self.t += dt

    # -- onboard-style sensor readouts ------------------------------------

    def read_imu(self, gyro_noise: float = 0.02, accel_noise: float = 0.02):
        """(gyro rad/s, specific force in g) with sensor noise."""
        s = self.state
        gyro = s.omega + self._rng.normal(0.0, gyro_noise, 3)
        # Specific force in the body frame (normalized to g units).
        f_world = np.array([0.0, 0.0, 1.0])  # hover-dominated approximation
        accel = s.rot.T @ f_world + self._rng.normal(0.0, accel_noise, 3)
        return gyro, accel

    def read_tof(self, noise: float = 0.003) -> float:
        """Downward range along the body axis."""
        s = self.state
        cos_tilt = max(float(s.rot[2, 2]), 0.2)
        return max(s.pos[2], 0.0) / cos_tilt + self._rng.normal(0.0, noise)


@dataclass
class StriderState:
    """Planar surface-vehicle state: position, heading, surge, yaw rate."""

    x: float = 0.0
    y: float = 0.0
    heading: float = 0.0
    surge: float = 0.0
    yaw_rate: float = 0.0

    def copy(self) -> "StriderState":
        return StriderState(self.x, self.y, self.heading, self.surge, self.yaw_rate)

    @property
    def pos(self) -> np.ndarray:
        return np.array([self.x, self.y])


class WaterStrider:
    """GammaBot-class planar vehicle on the water surface."""

    def __init__(
        self,
        mass: float = 0.55e-3,
        inertia: float = 3.0e-8,
        drag_surge: float = 2.5e-3,
        drag_yaw: float = 6.0e-8,
        seed: int = 0,
    ):
        self.mass = mass
        self.inertia = inertia
        self.drag_surge = drag_surge
        self.drag_yaw = drag_yaw
        self._rng = np.random.default_rng(seed)
        self.state = StriderState()
        self.t = 0.0

    def reset(self, x: float = 0.0, y: float = 0.0, heading: float = 0.0) -> StriderState:
        self.state = StriderState(x=x, y=y, heading=heading)
        self.t = 0.0
        return self.state.copy()

    def step(self, surge_force: float, yaw_torque: float, dt: float) -> None:
        s = self.state
        # Surface ripple disturbance.
        ripple = self._rng.normal(0.0, 0.05e-3)
        surge_acc = (surge_force + ripple - self.drag_surge * s.surge) / self.mass
        yaw_acc = (yaw_torque - self.drag_yaw * s.yaw_rate) / self.inertia
        s.surge += surge_acc * dt
        s.yaw_rate += yaw_acc * dt
        s.heading += s.yaw_rate * dt
        s.x += s.surge * np.cos(s.heading) * dt
        s.y += s.surge * np.sin(s.heading) * dt
        self.t += dt

    def read_compass(self, noise: float = 0.02) -> float:
        return float(self.state.heading + self._rng.normal(0.0, noise))

    def read_gyro_z(self, noise: float = 0.03) -> float:
        return float(self.state.yaw_rate + self._rng.normal(0.0, noise))
