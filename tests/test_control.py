"""Tests for the control kernels (LQR, TinyMPC, OSQP-MPC, geom, SMAC)."""

import numpy as np
import pytest

from repro.control.dynamics import bee_hover, fly_longitudinal, simulate_closed_loop
from repro.control.geometric import GeometricController
from repro.control.lqr import LqrController, lqr_gain, solve_dare
from repro.control.osqp_mpc import OsqpMpc, condense_mpc
from repro.control.smac import SlidingModeAdaptiveController
from repro.control.tinympc import TinyMpc
from repro.engine.profile import solve_profile
from repro.mcu.ops import OpCounter, OpTrace


class TestDynamics:
    def test_fly_model_dimensions(self):
        m = fly_longitudinal()
        assert m.nx == 4 and m.nu == 1

    def test_bee_model_dimensions(self):
        m = bee_hover()
        assert m.nx == 6 and m.nu == 3

    def test_clip_input(self):
        m = bee_hover(accel_limit=2.0)
        u = m.clip_input(np.array([5.0, -5.0, 1.0]))
        assert u.tolist() == [2.0, -2.0, 1.0]

    def test_step_linear(self):
        m = fly_longitudinal()
        x = np.array([0.0, 1.0, 0.0, 0.0])
        x2 = m.step(x, np.zeros(1))
        assert x2[0] == pytest.approx(m.dt)  # position integrates velocity

    def test_simulate_closed_loop_shape(self):
        m = fly_longitudinal()
        xs = simulate_closed_loop(m, lambda x, k: np.zeros(1), np.zeros(4), 10)
        assert xs.shape == (11, 4)


class TestDareLqr:
    def test_dare_fixed_point(self):
        m = fly_longitudinal()
        p = solve_dare(m.a, m.b, m.q, m.r)
        btp = m.b.T @ p
        k = np.linalg.solve(m.r + btp @ m.b, btp @ m.a)
        p_again = m.q + m.a.T @ p @ (m.a - m.b @ k)
        assert np.allclose(p, p_again, atol=1e-6)

    def test_gain_stabilizes(self):
        m = fly_longitudinal()
        k = lqr_gain(m)
        eigs = np.abs(np.linalg.eigvals(m.a - m.b @ k))
        assert eigs.max() < 1.0

    def test_controller_regulates(self):
        m = fly_longitudinal()
        ctrl = LqrController(m)
        c = OpCounter()
        x = np.array([0.02, -0.01, 0.01, 0.0])
        p = solve_dare(m.a, m.b, m.q, m.r)
        v0 = x @ p @ x
        for _ in range(500):
            x = m.step(x, m.clip_input(ctrl.compute(c, x)))
        assert x @ p @ x < 0.1 * v0

    def test_lyapunov_decrease_every_step(self):
        m = fly_longitudinal()
        ctrl = LqrController(m)
        c = OpCounter()
        p = solve_dare(m.a, m.b, m.q, m.r)
        x = np.array([0.02, -0.01, 0.01, 0.0])
        for _ in range(50):
            x_next = m.step(x, ctrl.compute(c, x))
            assert x_next @ p @ x_next <= x @ p @ x + 1e-12
            x = x_next

    def test_per_step_cost_tiny(self):
        """fly-lqr is the cheapest kernel in the suite (Table IV: ~1 us)."""
        m = fly_longitudinal()
        ctrl = LqrController(m)
        c = OpCounter()
        ctrl.compute(c, np.zeros(4))
        assert c.trace.total < 200

    def test_reference_tracking(self):
        m = fly_longitudinal()
        ctrl = LqrController(m)
        c = OpCounter()
        ref = np.array([0.05, 0.0, 0.0, 0.0])
        x = np.zeros(4)
        for _ in range(800):
            x = m.step(x, m.clip_input(ctrl.compute(c, x, x_ref=ref)))
        assert x[0] == pytest.approx(0.05, abs=0.02)


class TestTinyMpc:
    def test_cache_matches_true_lqr(self):
        m = fly_longitudinal()
        mpc = TinyMpc(m, horizon=10)
        mpc.setup_cache(OpCounter())
        k_true = lqr_gain(m)
        # rho is small relative to R, so gains should be close.
        assert np.allclose(mpc.k_inf, k_true, rtol=0.1)

    def test_unconstrained_solution_matches_lqr(self):
        m = fly_longitudinal()
        mpc = TinyMpc(m, horizon=10)
        c = OpCounter()
        x0 = np.array([0.001, 0.0, 0.0, 0.0])  # small: no saturation
        res = mpc.solve(c, x0, np.zeros((11, 4)))
        u_lqr = -(lqr_gain(m) @ x0)
        assert res.u0 == pytest.approx(u_lqr, rel=0.15)

    def test_constraints_respected(self):
        m = fly_longitudinal()
        mpc = TinyMpc(m, horizon=10)
        c = OpCounter()
        x0 = np.array([0.5, 0.5, 0.3, 0.0])  # big: saturates
        res = mpc.solve(c, x0, np.zeros((11, 4)), max_iters=20)
        assert np.all(res.u0 >= m.u_min - 1e-9)
        assert np.all(res.u0 <= m.u_max + 1e-9)

    def test_fixed_iterations_mode(self):
        m = fly_longitudinal()
        mpc = TinyMpc(m, horizon=10)
        c = OpCounter()
        res = mpc.solve(c, np.zeros(4), np.zeros((11, 4)), max_iters=7,
                        fixed_iterations=True)
        assert res.iterations == 7

    def test_startup_is_expensive(self):
        """The paper's observation: start-up Riccati work is substantial."""
        m = fly_longitudinal()
        mpc = TinyMpc(m, horizon=10)
        c_setup = OpCounter()
        mpc.setup_cache(c_setup)
        c_solve = OpCounter()
        mpc.solve(c_solve, np.zeros(4), np.zeros((11, 4)))
        assert c_setup.trace.total > c_solve.trace.total

    def test_closed_loop_stabilizes(self):
        m = fly_longitudinal()
        mpc = TinyMpc(m, horizon=10)
        c = OpCounter()
        mpc.setup_cache(c)
        x = np.array([0.02, 0.02, -0.01, 0.0])
        p = solve_dare(m.a, m.b, m.q, m.r)
        v0 = x @ p @ x
        for _ in range(150):
            res = mpc.solve(c, x, np.zeros((11, 4)), max_iters=8)
            x = m.step(x, res.u0)
        assert x @ p @ x < 0.5 * v0


#: The start-up ablation bench's initial state.
ABLATION_X0 = np.array([0.02, 0.01, -0.01, 0.0])

#: case: (x0 scale, solves, warm start kept, solve kwargs, iterations per
#: solve, summed op trace, end state). Recorded while every recipe call
#: still ran inside the solve loops, so they pin the once-built iteration
#: tally to the step-by-step one, field by field.
TINYMPC_PINS = {
    "fixed-iterations": (
        1, 30, True, dict(max_iters=8, fixed_iterations=True), [8] * 30,
        dict(fadd=48000, fmul=2400, ffma=122880, fcmp=9600, ialu=225240,
             icmp=80760, load=344160, store=98280, br_taken=46920,
             br_not=51960),
        [0.02071427660309354, 0.012194481269863007, 0.006247371170854932,
         0.33819602990306574],
    ),
    "early-exit-warm": (
        1, 30, True, dict(max_iters=12), [2] + [1] * 29,
        dict(fadd=6200, fmul=310, ffma=20470, fcmp=1240, ialu=34841,
             icmp=11581, load=53650, store=13844, br_taken=7240, br_not=7861),
        [0.020714303526219547, 0.012195814262126146, 0.0062437008366632435,
         0.3381903825002343],
    ),
    "early-exit-cold": (
        1, 30, False, dict(max_iters=12), [2] * 7 + [1] * 23,
        dict(fadd=7400, fmul=370, ffma=23410, fcmp=1480, ialu=40307,
             icmp=13567, load=61990, store=16268, br_taken=8380, br_not=9127),
        [0.02071475992946709, 0.012230401195555646, 0.006088359247344464,
         0.33705756332481973],
    ),
    "iteration-cap": (
        10, 1, True, dict(max_iters=20), [20],
        dict(fadd=4000, fmul=200, ffma=9976, fcmp=800, ialu=18440,
             icmp=6664, load=28152, store=8124, br_taken=3844, br_not=4264),
        [0.20020000000000002, 0.10196200000000001, -0.1, 0.2666666666666666],
    ),
}


class TestTinyMpcPinnedTraces:
    @pytest.mark.parametrize("case", sorted(TINYMPC_PINS))
    def test_receding_horizon_traces_are_pinned(self, case):
        scale, n_solves, warm, kwargs, iterations, trace, end = TINYMPC_PINS[case]
        m = fly_longitudinal()
        mpc = TinyMpc(m, horizon=10)
        mpc.setup_cache(OpCounter())
        c = OpCounter()
        x = scale * ABLATION_X0
        ran = []
        for _ in range(n_solves):
            if not warm:
                mpc.reset()
            res = mpc.solve(c, x, np.zeros((11, 4)), **kwargs)
            ran.append(res.iterations)
            x = m.step(x, res.u0)
        assert ran == iterations
        assert c.trace.as_dict() == OpTrace(**trace).as_dict()
        assert x.tolist() == end


#: Smallest episodes that still run every repetition and validation.
DARE_KERNELS = {"fly-lqr": {"n_steps": 40}, "fly-tiny-mpc": {"n_steps": 10},
                "bee-mpc": {"n_steps": 3}}


class TestDarePerModel:
    @pytest.fixture
    def dare_calls(self, monkeypatch):
        import repro.control.lqr as lqr

        calls = []
        original = lqr.solve_dare

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return original(*args, **kwargs)

        monkeypatch.setattr(lqr, "solve_dare", counting)
        return calls

    @pytest.mark.parametrize("kernel", sorted(DARE_KERNELS))
    def test_one_dare_per_solve_profile(self, kernel, dare_calls):
        solve_profile(kernel, DARE_KERNELS[kernel], reps=3, warmup_reps=1)
        assert len(dare_calls) == 1
        # A second profile builds its own model: nothing crosses solves.
        solve_profile(kernel, DARE_KERNELS[kernel], reps=3, warmup_reps=1)
        assert len(dare_calls) == 2

    def test_memo_is_the_dare_solution(self):
        m = bee_hover()
        p = solve_dare(m.a, m.b, m.q, m.r)
        assert m.dare.tobytes() == p.tobytes()
        assert m.dare is m.dare
        btp = m.b.T @ p
        k = np.linalg.solve(m.r + btp @ m.b, btp @ m.a)
        assert lqr_gain(m).tobytes() == k.tobytes()


class TestOsqpMpc:
    def test_condensed_cost_is_spd(self):
        p_mat, _, _, _ = condense_mpc(bee_hover(), 6)
        eigs = np.linalg.eigvalsh(p_mat)
        assert eigs.min() > 0

    def test_unconstrained_matches_direct_qp(self):
        m = bee_hover()
        mpc = OsqpMpc(m, horizon=6)
        c = OpCounter()
        x0 = np.array([0.01, 0.0, 0.01, 0, 0, 0])
        q = mpc._linear_term(c, x0, np.zeros((6, 6)))
        direct = np.linalg.solve(mpc.p_mat, -q)
        res = mpc.solve(c, x0, np.zeros((6, 6)), max_iters=400, tol=1e-8)
        assert res.u0 == pytest.approx(direct[:3], abs=1e-3)

    def test_constraints_active_and_respected(self):
        m = bee_hover(accel_limit=0.5)
        mpc = OsqpMpc(m, horizon=6)
        c = OpCounter()
        x0 = np.array([0.4, -0.4, 0.4, 0, 0, 0])
        res = mpc.solve(c, x0, np.zeros((6, 6)), max_iters=100)
        assert np.all(np.abs(res.u0) <= 0.5 + 1e-6)
        assert np.abs(res.u0).max() == pytest.approx(0.5, abs=1e-3)

    def test_termination_checked_every_n(self):
        m = bee_hover()
        mpc = OsqpMpc(m, horizon=4)
        c = OpCounter()
        res = mpc.solve(c, np.zeros(6), np.zeros((4, 6)), check_every=10)
        assert res.iterations % 10 == 0 or res.iterations == 50

    def test_warm_start_reduces_iterations(self):
        m = bee_hover()
        mpc = OsqpMpc(m, horizon=6)
        c = OpCounter()
        x0 = np.array([0.05, -0.04, 0.06, 0, 0, 0])
        first = mpc.solve(c, x0, np.zeros((6, 6)))
        second = mpc.solve(c, m.step(x0, first.u0), np.zeros((6, 6)))
        assert second.iterations <= first.iterations

    def test_flops_per_solve_positive(self):
        assert OsqpMpc(bee_hover(), horizon=6).flops_per_solve() > 0


class TestGeometricController:
    def test_hover_equilibrium_commands_weight(self):
        ctrl = GeometricController()
        c = OpCounter()
        zero = np.zeros(3)
        cmd = ctrl.compute(c, zero, zero, np.eye(3), zero, zero, zero, zero)
        assert cmd.thrust == pytest.approx(ctrl.mass * 9.81, rel=1e-6)
        assert np.allclose(cmd.moment, 0.0, atol=1e-9)

    def test_tilt_produces_correcting_moment(self):
        from repro.control.suite import _rodrigues

        ctrl = GeometricController()
        c = OpCounter()
        zero = np.zeros(3)
        r = _rodrigues(np.array([1.0, 0.0, 0.0]), 0.3)  # roll tilt
        cmd = ctrl.compute(c, zero, zero, r, zero, zero, zero, zero)
        assert abs(cmd.moment[0]) > 0  # roll moment commanded

    def test_desired_rotation_is_valid(self):
        ctrl = GeometricController()
        c = OpCounter()
        zero = np.zeros(3)
        cmd = ctrl.compute(c, np.array([0.1, 0, 0]), zero, np.eye(3), zero,
                           zero, zero, zero)
        rd = cmd.r_desired
        assert np.allclose(rd @ rd.T, np.eye(3), atol=1e-9)

    def test_waveform_synthesized(self):
        ctrl = GeometricController()
        c = OpCounter()
        zero = np.zeros(3)
        cmd = ctrl.compute(c, zero, zero, np.eye(3), zero, zero, zero, zero)
        assert cmd.wing_waveform.shape == (2, ctrl.N_PHASE_SAMPLES)

    def test_float_dominated_instruction_mix(self):
        """Table III: bee-geom is an F-heavy kernel."""
        ctrl = GeometricController()
        c = OpCounter()
        zero = np.zeros(3)
        ctrl.compute(c, zero, zero, np.eye(3), zero, zero, zero, zero)
        assert c.trace.n_float > c.trace.n_branch


class TestSmac:
    def test_rejects_periodic_disturbance(self):
        ctrl = SlidingModeAdaptiveController()
        c = OpCounter()
        dt = 0.001
        pos = np.array([0.08, -0.05, 0.06])
        vel = np.zeros(3)
        errs = [np.abs(pos).mean()]
        rng = np.random.default_rng(0)
        for k in range(400):
            t = k * dt
            cmd = ctrl.compute(c, t, dt, pos.copy(), vel.copy())
            dist = 1.8 * np.sin(2 * np.pi * ctrl.stroke_freq * t + np.array([0, 1.1, 2.3]))
            acc = cmd.u + dist
            vel = vel + acc * dt
            pos = pos + vel * dt
            errs.append(np.abs(pos).mean())
        assert np.mean(errs[-50:]) < 0.5 * np.mean(errs[:20])

    def test_adaptation_parameters_bounded(self):
        ctrl = SlidingModeAdaptiveController()
        c = OpCounter()
        for k in range(200):
            ctrl.compute(c, k * 0.001, 0.001, np.full(3, 0.5), np.full(3, 0.1))
        assert np.abs(ctrl.theta).max() <= 5.0

    def test_reset_clears_state(self):
        ctrl = SlidingModeAdaptiveController()
        c = OpCounter()
        ctrl.compute(c, 0.0, 0.001, np.ones(3), np.ones(3))
        ctrl.reset()
        assert not ctrl.theta.any()

    def test_inside_boundary_layer_freezes_adaptation(self):
        ctrl = SlidingModeAdaptiveController()
        c = OpCounter()
        ctrl.compute(c, 0.0, 0.001, np.full(3, 1e-4), np.full(3, 1e-4))
        assert not ctrl.theta.any()

    def test_rls_matrix_cost_dominates(self):
        """The composite RLS adaptation is the expensive path (bee-smac's
        Table IV position above bee-geom)."""
        ctrl = SlidingModeAdaptiveController()
        c_active, c_frozen = OpCounter(), OpCounter()
        ctrl.compute(c_active, 0.0, 0.001, np.full(3, 0.5), np.full(3, 0.5))
        ctrl.reset()
        ctrl.compute(c_frozen, 0.0, 0.001, np.full(3, 1e-4), np.full(3, 1e-4))
        assert c_active.trace.total > 3 * c_frozen.trace.total
