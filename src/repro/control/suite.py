"""Benchmark problems for the control kernels.

Registers the Table III Opt./Geom./Adapt. Ctrl. rows: ``fly-lqr``,
``fly-tiny-mpc``, ``bee-mpc``, ``bee-geom``, and ``bee-smac``.  Each
problem runs its controller in closed loop against a (non-counted)
environment simulation and validates task-level behaviour: convergence,
bounded tracking error, and respected input constraints.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.control.dynamics import bee_hover, fly_longitudinal
from repro.control.geometric import GeometricController, _hat
from repro.control.lqr import LqrController
from repro.control.osqp_mpc import OsqpMpc
from repro.control.smac import SlidingModeAdaptiveController
from repro.core.problem import EntoProblem
from repro.core.registry import register
from repro.control.tinympc import TinyMpc
from repro.datasets import trajectories
from repro.mcu.linalg import cross3
from repro.mcu.memory import Footprint
from repro.mcu.ops import OpCounter
from repro.mcu.static import StaticMix, compose
from repro.scalar import F32, ScalarType


class FlyLqrProblem(EntoProblem):
    """Sparse 4x4 LQR regulating the fly model to hover."""

    name = "fly-lqr"
    stage = "C"
    category = "Opt. Ctrl."
    dataset_name = "fly-traj"

    def __init__(self, scalar: ScalarType = F32, seed: int = 0, n_steps: int = 600):
        super().__init__(scalar, seed)
        self.n_steps = n_steps
        self.history: Optional[np.ndarray] = None

    def setup(self, rng: np.random.Generator) -> None:
        self.model = fly_longitudinal()
        self.controller = LqrController(self.model)
        self.x0 = trajectories.perturbed_initial_state(
            self.model.nx, scale=0.03, seed=self.seed
        )
        self.work_units = self.n_steps

    def solve(self, counter: OpCounter):
        x = self.x0.copy()
        history = np.zeros((self.n_steps + 1, self.model.nx))
        history[0] = x
        for k in range(self.n_steps):
            u = self.controller.compute(counter, x)
            x = self.model.step(x, self.model.clip_input(u))
            history[k + 1] = x
        self.history = history
        return history[-1]

    def validate(self, result) -> bool:
        # Unconstrained LQR guarantees a monotonically decreasing Riccati
        # cost-to-go; check that plus strict overall decrease (both hold
        # regardless of the episode length).
        p = self.model.dare
        values = np.einsum("ki,ij,kj->k", self.history, p, self.history)
        monotone = bool(np.all(np.diff(values) <= values[:-1] * 1e-9 + 1e-15))
        return monotone and values[-1] < 0.9 * values[0]

    def static_mix_base(self) -> StaticMix:
        return compose(("lqr_gain_apply", "small_matmul", "harness_runtime"))

    def footprint(self) -> Footprint:
        return Footprint(flash_bytes=self.static_mix_base().flash_bytes, data_bytes=512)

    def flop_estimate(self) -> int:
        # The supplement-style count: the sparse gain has ~6 non-zeros.
        return 30 * self.work_units


class FlyTinyMpcProblem(EntoProblem):
    """TinyMPC with a 10-step horizon on the fly model."""

    name = "fly-tiny-mpc"
    stage = "C"
    category = "Opt. Ctrl."
    dataset_name = "fly-traj"

    def __init__(self, scalar: ScalarType = F32, seed: int = 0,
                 n_steps: int = 100, horizon: int = 10):
        super().__init__(scalar, seed)
        self.n_steps = n_steps
        self.horizon = horizon
        self.history: Optional[np.ndarray] = None
        self.inputs: Optional[np.ndarray] = None

    def setup(self, rng: np.random.Generator) -> None:
        self.model = fly_longitudinal()
        self.x0 = trajectories.perturbed_initial_state(
            self.model.nx, scale=0.03, seed=self.seed
        )
        self.reference = trajectories.hover(
            self.model.nx, self.model.nu, n=self.n_steps + self.horizon + 1
        )
        # The start-up Riccati pass runs once, outside the measured ROI,
        # like the paper (which notes it "could be moved completely
        # offline"); the start-up ablation bench counts its cost.
        self.mpc = TinyMpc(self.model, horizon=self.horizon)
        self.mpc.setup_cache(OpCounter())
        self.work_units = self.n_steps

    def solve(self, counter: OpCounter):
        mpc = self.mpc
        mpc.reset()
        x = self.x0.copy()
        history = np.zeros((self.n_steps + 1, self.model.nx))
        inputs = np.zeros((self.n_steps, self.model.nu))
        history[0] = x
        for k in range(self.n_steps):
            ref = self.reference.window(k, self.horizon + 1)
            result = mpc.solve(counter, x, ref, max_iters=8, fixed_iterations=True)
            inputs[k] = result.u0
            x = self.model.step(x, result.u0)
            history[k + 1] = x
        self.history = history
        self.inputs = inputs
        return history[-1]

    def validate(self, result) -> bool:
        p = self.model.dare
        v0 = float(self.history[0] @ p @ self.history[0])
        vf = float(self.history[-1] @ p @ self.history[-1])
        within_limits = bool(
            np.all(self.inputs >= self.model.u_min - 1e-9)
            and np.all(self.inputs <= self.model.u_max + 1e-9)
        )
        return vf < 0.5 * v0 and within_limits

    def static_mix_base(self) -> StaticMix:
        return compose(("tinympc_backward_pass", "tinympc_forward_pass",
                        "dense_matmul", "lu_solver", "reference_trajectory",
                        "harness_runtime"))

    def footprint(self) -> Footprint:
        # Horizon-length state/input/slack/dual buffers + cached matrices.
        nx, nu = 4, 1
        per_step = (nx + 3 * nu) * 4
        data = (self.horizon + 1) * per_step + (nx * nx + nx * nu) * 4 * 4 + 2048
        return Footprint(flash_bytes=self.static_mix_base().flash_bytes,
                         data_bytes=data)

    def flop_estimate(self) -> int:
        return TinyMpc.flops_per_solve(horizon=self.horizon) * self.work_units


class BeeMpcProblem(EntoProblem):
    """OSQP-style ADMM MPC hovering the bee model."""

    name = "bee-mpc"
    stage = "C"
    category = "Opt. Ctrl."
    dataset_name = "bee-synth"

    def __init__(self, scalar: ScalarType = F32, seed: int = 0,
                 n_steps: int = 12, horizon: int = 8):
        super().__init__(scalar, seed)
        self.n_steps = n_steps
        self.horizon = horizon
        self.history: Optional[np.ndarray] = None
        self.inputs: Optional[np.ndarray] = None

    def setup(self, rng: np.random.Generator) -> None:
        self.model = bee_hover()
        self.x0 = trajectories.perturbed_initial_state(
            self.model.nx, scale=0.05, seed=self.seed
        )
        # Aggressive figure-eight: accelerations approach the input limits,
        # so the box constraints are genuinely active (the regime where the
        # ADMM loop earns its cost).
        traj = trajectories.figure_eight(
            self.model.nx, self.model.nu,
            n=self.n_steps + self.horizon + 1,
            dt=self.model.dt, amplitude=0.18, period_s=1.2,
            velocity_offset=3,
        )
        self.reference = traj.states
        self.work_units = self.n_steps

    def solve(self, counter: OpCounter):
        mpc = OsqpMpc(self.model, horizon=self.horizon)
        x = self.x0.copy()
        history = np.zeros((self.n_steps + 1, self.model.nx))
        inputs = np.zeros((self.n_steps, self.model.nu))
        history[0] = x
        for k in range(self.n_steps):
            result = mpc.solve(counter, x, self.reference[k + 1 : k + 1 + self.horizon])
            inputs[k] = result.u0
            x = self.model.step(x, self.model.clip_input(result.u0))
            history[k + 1] = x
        self.history = history
        self.inputs = inputs
        return history[-1]

    def validate(self, result) -> bool:
        # Tracking: mean position error over the run stays a small
        # fraction of the figure-eight amplitude.
        ref = self.reference[1 : self.n_steps + 1, :3]
        err = np.linalg.norm(self.history[1:, :3] - ref, axis=1)
        within_limits = bool(
            np.all(self.inputs >= self.model.u_min - 1e-6)
            and np.all(self.inputs <= self.model.u_max + 1e-6)
        )
        return float(err.mean()) < 0.08 and within_limits

    def static_mix_base(self) -> StaticMix:
        return compose(("osqp_core", "kkt_factorization", "admm_iteration",
                        "dense_matmul", "cholesky", "reference_trajectory",
                        "harness_runtime"))

    def footprint(self) -> Footprint:
        nv = self.horizon * 3
        data = (self.horizon * 6) * nv * 4 + nv * nv * 4 * 2 + 4096
        return Footprint(flash_bytes=self.static_mix_base().flash_bytes,
                         data_bytes=data)

    def flop_estimate(self) -> int:
        return OsqpMpc(self.model if hasattr(self, "model") else bee_hover(),
                       horizon=self.horizon).flops_per_solve() * max(self.work_units, 1)


class BeeGeomProblem(EntoProblem):
    """SE(3) geometric controller stabilizing a tilted hover."""

    name = "bee-geom"
    stage = "C"
    category = "Geom. Ctrl."
    dataset_name = "bee-synth"

    MASS = 8.0e-5
    J_DIAG = (1.4e-9, 1.4e-9, 0.5e-9)

    def __init__(self, scalar: ScalarType = F32, seed: int = 0,
                 n_steps: int = 200, dt: float = 2e-4):
        super().__init__(scalar, seed)
        self.n_steps = n_steps
        self.dt = dt
        self.tilt_history: Optional[np.ndarray] = None

    def setup(self, rng: np.random.Generator) -> None:
        self.controller = GeometricController(mass=self.MASS,
                                              inertia_diag=self.J_DIAG)
        # Initial tilt: a modest roll/pitch offset to recover from.
        angle = 0.25 + 0.1 * rng.random()
        axis = rng.normal(size=3)
        axis[2] = 0.0
        axis /= np.linalg.norm(axis)
        self.r0 = _rodrigues(axis, angle)
        self.work_units = self.n_steps

    def solve(self, counter: OpCounter):
        j = np.diag(self.J_DIAG)
        j_inv = np.linalg.inv(j)
        pos = np.zeros(3)
        vel = np.zeros(3)
        r = self.r0.copy()
        omega = np.zeros(3)
        zero3 = np.zeros(3)
        tilts = np.zeros(self.n_steps + 1)
        tilts[0] = _tilt_angle(r)
        for k in range(self.n_steps):
            cmd = self.controller.compute(
                counter, pos, vel, r, omega, zero3, zero3, zero3
            )
            # Environment simulation (not counted): rigid-body integration.
            thrust_acc = (cmd.thrust / self.MASS) * r[:, 2] - np.array(
                [0.0, 0.0, 9.81]
            )
            vel = vel + thrust_acc * self.dt
            pos = pos + vel * self.dt
            omega_dot = j_inv @ (cmd.moment - cross3(omega, j @ omega))
            omega = omega + omega_dot * self.dt
            r = r @ _expm_so3(omega * self.dt)
            tilts[k + 1] = _tilt_angle(r)
        self.tilt_history = tilts
        return tilts[-1]

    def validate(self, result) -> bool:
        # The controller must recover the tilt to a small residual.
        return float(self.tilt_history[-1]) < 0.25 * float(self.tilt_history[0])

    def static_mix_base(self) -> StaticMix:
        return compose(("se3_controller", "rotation_log_map", "small_matmul",
                        "harness_runtime"))

    def footprint(self) -> Footprint:
        return Footprint(flash_bytes=self.static_mix_base().flash_bytes, data_bytes=768)


class BeeSmacProblem(EntoProblem):
    """Sliding-mode adaptive control under periodic wing-stroke disturbance."""

    name = "bee-smac"
    stage = "C"
    category = "Adapt. Ctrl."
    dataset_name = "bee-traj"

    def __init__(self, scalar: ScalarType = F32, seed: int = 0,
                 n_steps: int = 300, dt: float = 0.001):
        super().__init__(scalar, seed)
        self.n_steps = n_steps
        self.dt = dt
        self.error_history: Optional[np.ndarray] = None

    def setup(self, rng: np.random.Generator) -> None:
        self.controller = SlidingModeAdaptiveController()
        self.disturbance_amp = 1.5 + rng.random()
        self.work_units = self.n_steps

    def solve(self, counter: OpCounter):
        ctrl = self.controller
        ctrl.reset()
        freq = ctrl.stroke_freq
        pos = np.array([0.08, -0.05, 0.06])  # initial per-axis errors
        vel = np.zeros(3)
        errors = np.zeros((self.n_steps + 1, 3))
        errors[0] = pos
        for k in range(self.n_steps):
            t = k * self.dt
            cmd = ctrl.compute(counter, t, self.dt, pos.copy(), vel.copy())
            # Environment (not counted): decoupled double integrators with
            # a periodic stroke-coupled disturbance.
            disturbance = self.disturbance_amp * np.sin(
                2 * np.pi * freq * t + np.array([0.0, 1.1, 2.3])
            )
            acc = cmd.u + disturbance
            vel = vel + acc * self.dt
            pos = pos + vel * self.dt
            errors[k + 1] = pos
        self.error_history = errors
        return errors[-1]

    def validate(self, result) -> bool:
        start = float(np.abs(self.error_history[:20]).mean())
        tail = float(np.abs(self.error_history[-50:]).mean())
        return tail < 0.5 * start

    def static_mix_base(self) -> StaticMix:
        return compose(("sliding_mode_law", "adaptation_law",
                        "reference_trajectory", "harness_runtime"))

    def footprint(self) -> Footprint:
        n_params = 1 + 2 * self.controller.n_h if hasattr(self, "controller") else 25
        return Footprint(flash_bytes=self.static_mix_base().flash_bytes,
                         data_bytes=3 * n_params * 4 + 512)


def _rodrigues(axis: np.ndarray, angle: float) -> np.ndarray:
    k = _hat(axis)
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


def _expm_so3(w: np.ndarray) -> np.ndarray:
    angle = float(np.linalg.norm(w))
    if angle < 1e-12:
        return np.eye(3)
    return _rodrigues(w / angle, angle)


def _tilt_angle(r: np.ndarray) -> float:
    """Angle between the body z-axis and vertical."""
    return float(np.arccos(np.clip(r[2, 2], -1.0, 1.0)))


register("fly-lqr")(FlyLqrProblem)
register("fly-tiny-mpc")(FlyTinyMpcProblem)
register("bee-mpc")(BeeMpcProblem)
register("bee-geom")(BeeGeomProblem)
register("bee-smac")(BeeSmacProblem)
