"""SE(3) geometric tracking controller (the ``bee-geom`` kernel) [42, 46].

Lee-Leok-McClamroch geometric control on the rotation manifold: from the
position/velocity errors build the desired thrust direction, construct the
desired rotation frame, compute the rotation error by the vee-map of the
skew-symmetric part of ``R_d' R``, and assemble the moment command with
the gyroscopic feedforward ``omega x J omega``.  Float-heavy (matrix
products, normalizations, cross products) with almost no branching —
visible in its Table III instruction mix (F-dominated).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mcu import linalg
from repro.mcu.ops import OpCounter

GRAVITY = 9.81


def _vee(m: np.ndarray) -> np.ndarray:
    return np.array([m[2, 1], m[0, 2], m[1, 0]])


def _hat(v: np.ndarray) -> np.ndarray:
    return np.array(
        [[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]]
    )


@dataclass
class GeometricCommand:
    thrust: float
    moment: np.ndarray
    r_desired: np.ndarray
    #: Harmonic wing-drive parameters (per-wing amplitude/bias/split-cycle
    #: phase samples), from the harmonic-sinusoid composition of [46].
    wing_waveform: np.ndarray = None


class GeometricController:
    """SE(3) controller with RoboBee-scale gains and inertia."""

    def __init__(
        self,
        mass: float = 8.0e-5,  # 80 mg
        inertia_diag: tuple = (1.4e-9, 1.4e-9, 0.5e-9),
        kx: float = 0.018,
        kv: float = 1.7e-3,
        kr: float = 1.3e-4,
        kw: float = 5.9e-7,
    ):
        self.mass = mass
        self.j = np.diag(inertia_diag)
        self.kx, self.kv, self.kr, self.kw = kx, kv, kr, kw

    def compute(
        self,
        counter: OpCounter,
        pos: np.ndarray,
        vel: np.ndarray,
        r: np.ndarray,
        omega: np.ndarray,
        pos_ref: np.ndarray,
        vel_ref: np.ndarray,
        acc_ref: np.ndarray,
        yaw_ref: float = 0.0,
    ) -> GeometricCommand:
        """One control step: thrust magnitude + body moment."""
        ex = pos - pos_ref
        ev = vel - vel_ref
        counter.vec_add(6)

        # Desired force vector (world frame).
        f_des = (
            -self.kx * ex
            - self.kv * ev
            + self.mass * (acc_ref + np.array([0.0, 0.0, GRAVITY]))
        )
        counter.flop_mix(add=9, mul=9)

        # Thrust is the projection of f_des on the current body z-axis.
        b3 = r[:, 2]
        thrust = float(f_des @ b3)
        counter.vec_dot(3)

        # Desired attitude: b3_d along f_des, yaw from the reference.
        norm_f = float(np.linalg.norm(f_des))
        counter.vec_norm(3)
        if norm_f < 1e-12:
            b3_d = np.array([0.0, 0.0, 1.0])
        else:
            b3_d = f_des / norm_f
            counter.vec_scale(3)
        b1_ref = np.array([np.cos(yaw_ref), np.sin(yaw_ref), 0.0])
        counter.ffunc(2)
        b2_d = linalg.cross(counter, b3_d, b1_ref)
        norm_b2 = float(np.linalg.norm(b2_d))
        counter.vec_norm(3)
        if norm_b2 < 1e-9:
            b2_d = np.array([0.0, 1.0, 0.0])
        else:
            b2_d = b2_d / norm_b2
            counter.vec_scale(3)
        b1_d = linalg.cross(counter, b2_d, b3_d)
        r_d = np.column_stack([b1_d, b2_d, b3_d])

        # Rotation and angular-velocity errors.
        er_mat = r_d.T @ r - r.T @ r_d
        counter.mat_mat(3, 3, 3)
        counter.mat_mat(3, 3, 3)
        counter.mat_add(3, 3)
        er = 0.5 * _vee(er_mat)
        counter.vec_scale(3)
        ew = omega  # tracking a hover: omega_d = 0
        # Moment with gyroscopic feedforward.
        j_omega = self.j @ omega
        counter.mat_vec(3, 3)
        gyro = linalg.cross(counter, omega, j_omega)
        moment = -self.kr * er - self.kw * ew + gyro
        counter.flop_mix(add=6, mul=6)
        waveform = self._harmonic_waveform(counter, thrust, moment)
        return GeometricCommand(thrust=thrust, moment=moment, r_desired=r_d,
                                wing_waveform=waveform)

    #: Wing-drive synthesis resolution: phase samples per stroke period.
    N_PHASE_SAMPLES = 16

    def _harmonic_waveform(self, counter: OpCounter, thrust: float,
                           moment: np.ndarray) -> np.ndarray:
        """Compose the per-wing harmonic drive signal [46].

        Thrust maps to stroke amplitude, roll moment to a left/right
        amplitude split, pitch to a stroke-plane bias, and yaw to a
        split-cycle phase skew; the result is sampled over one stroke
        period for the (off-kernel) pulse generator.  The trigonometric
        synthesis here is a real share of the deployed controller's cost.
        """
        amp = np.sqrt(max(thrust, 0.0) / (self.mass * GRAVITY) + 1e-9)
        counter.flop_mix(add=1, mul=2, div=1, sqrt=1)
        roll_split = np.clip(moment[0] / (self.kr + 1e-12), -0.3, 0.3)
        pitch_bias = np.clip(moment[1] / (self.kr + 1e-12), -0.3, 0.3)
        yaw_skew = np.clip(moment[2] / (self.kr + 1e-12), -0.2, 0.2)
        counter.flop_mix(div=3)
        counter.fcmp(6)

        phases = np.linspace(0.0, 2.0 * np.pi, self.N_PHASE_SAMPLES,
                             endpoint=False)
        waveform = np.zeros((2, self.N_PHASE_SAMPLES))
        for wing, sign in ((0, 1.0), (1, -1.0)):
            wing_amp = amp * (1.0 + sign * roll_split)
            # Fundamental + split-cycle second harmonic + plane bias.
            waveform[wing] = (
                wing_amp * np.sin(phases + sign * yaw_skew)
                + 0.15 * wing_amp * np.sin(2.0 * phases)
                + pitch_bias
            )
            n = self.N_PHASE_SAMPLES
            counter.ffunc(2 * n)
            counter.flop_mix(add=3 * n, mul=4 * n)
            counter.store(n)
            counter.loop_overhead(n)
        return waveform
