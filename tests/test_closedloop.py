"""Tests for the closed-loop extension (simulators, missions, runners)."""

import numpy as np
import pytest

from repro.closedloop.missions import (
    HoverMission,
    SteeringCourse,
    WaypointMission,
    score_trajectory,
)
from repro.closedloop.runner import FlappingWingRunner, StriderRunner
from repro.closedloop.simulator import FlappingWingBody, WaterStrider
from repro.mcu.arch import M0PLUS, M4, M33


class TestFlappingWingBody:
    def test_hover_thrust_balances_gravity(self):
        body = FlappingWingBody(disturbance_force=0.0, seed=0)
        body.reset(pos=np.array([0.0, 0.0, 0.3]))
        w = body.mass * 9.81
        for _ in range(200):
            body.step(w, np.zeros(3), 1e-4)
        assert abs(body.state.pos[2] - 0.3) < 0.01
        assert np.linalg.norm(body.state.vel) < 0.1

    def test_no_thrust_falls(self):
        body = FlappingWingBody(disturbance_force=0.0)
        body.reset(pos=np.array([0.0, 0.0, 0.5]))
        for _ in range(2000):
            body.step(0.0, np.zeros(3), 1e-4)
        assert body.state.pos[2] < 0.4

    def test_moment_produces_rotation(self):
        body = FlappingWingBody(disturbance_force=0.0)
        body.reset()
        for _ in range(100):
            body.step(body.mass * 9.81, np.array([1e-6, 0.0, 0.0]), 1e-4)
        assert body.state.tilt_rad > 0.01

    def test_reset_with_tilt(self):
        body = FlappingWingBody()
        state = body.reset(tilt_rad=0.2)
        assert state.tilt_rad == pytest.approx(0.2, abs=1e-9)

    def test_rotation_stays_orthonormal(self):
        body = FlappingWingBody(seed=3)
        body.reset(tilt_rad=0.1)
        for _ in range(500):
            body.step(body.mass * 9.81, np.array([2e-7, -1e-7, 5e-8]), 1e-4)
        r = body.state.rot
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-9)

    def test_imu_readout_shapes_and_noise(self):
        body = FlappingWingBody(seed=1)
        body.reset()
        g1, a1 = body.read_imu()
        g2, a2 = body.read_imu()
        assert g1.shape == (3,) and a1.shape == (3,)
        assert not np.array_equal(g1, g2)  # noise differs per read

    def test_tof_reads_altitude(self):
        body = FlappingWingBody(seed=2)
        body.reset(pos=np.array([0.0, 0.0, 0.42]))
        readings = [body.read_tof() for _ in range(50)]
        assert np.mean(readings) == pytest.approx(0.42, abs=0.01)


class TestWaterStrider:
    def test_surge_force_accelerates(self):
        strider = WaterStrider(seed=0)
        strider.reset()
        for _ in range(200):
            strider.step(1e-3, 0.0, 1e-3)
        assert strider.state.surge > 0.05
        assert strider.state.x > 0.0

    def test_drag_limits_speed(self):
        strider = WaterStrider(seed=0)
        strider.reset()
        speeds = []
        for _ in range(3000):
            strider.step(1e-3, 0.0, 1e-3)
            speeds.append(strider.state.surge)
        # Terminal velocity: the last speeds stop growing.
        assert speeds[-1] - speeds[-500] < 0.01

    def test_yaw_torque_turns(self):
        strider = WaterStrider(seed=0)
        strider.reset()
        for _ in range(200):
            strider.step(0.0, 1e-7, 1e-3)
        assert strider.state.heading > 0.01

    def test_sensors(self):
        strider = WaterStrider(seed=1)
        strider.reset(heading=0.5)
        assert np.mean([strider.read_compass() for _ in range(50)]) == pytest.approx(0.5, abs=0.02)


class TestMissionScoring:
    def test_good_trajectory_completes(self):
        score = score_trajectory(np.full(100, 0.01), abort_threshold=0.5,
                                 success_rms=0.05)
        assert score["completed"]

    def test_abort_on_excursion(self):
        errors = np.full(100, 0.01)
        errors[50] = 0.9
        score = score_trajectory(errors, abort_threshold=0.5, success_rms=0.05)
        assert not score["completed"]

    def test_rms_failure(self):
        score = score_trajectory(np.full(100, 0.2), abort_threshold=0.5,
                                 success_rms=0.05)
        assert not score["completed"]

    def test_waypoint_schedule(self):
        mission = WaypointMission()
        first = mission.reference(0.0)
        last = mission.reference(mission.duration_s)
        assert not np.array_equal(first, last)

    def test_steering_reference_profile(self):
        course = SteeringCourse()
        assert course.reference(0.2) == 0.0
        assert course.reference(1.5) > 0.5


class TestClosedLoopRunners:
    def test_hover_succeeds_on_m33(self):
        result = FlappingWingRunner(arch=M33).run(HoverMission())
        assert result.completed
        assert result.deadline_hit_rate == 1.0
        assert result.compute_energy_j > 0

    def test_same_flight_less_energy_on_m33_than_m4(self):
        """Task metrics identical, compute energy ~3x apart — the
        co-design signal kernel tables alone already hint at."""
        r33 = FlappingWingRunner(arch=M33).run(HoverMission())
        r4 = FlappingWingRunner(arch=M4).run(HoverMission())
        assert r33.completed and r4.completed
        assert r33.path_error_rms_m == pytest.approx(r4.path_error_rms_m, rel=0.2)
        assert r4.compute_energy_j > 2 * r33.compute_energy_j

    def test_m0plus_cannot_hold_the_rate(self):
        """Soft-float compute latency exceeds the loop period: the runner
        degrades the control rate and the task suffers — compute autonomy
        limiting flight, end to end."""
        result = FlappingWingRunner(arch=M0PLUS).run(HoverMission())
        assert result.deadline_hit_rate < 0.5
        assert result.effective_rate_hz < 1200  # nominal is 2000 Hz
        capable = FlappingWingRunner(arch=M33).run(HoverMission())
        assert result.path_error_rms_m > capable.path_error_rms_m

    def test_waypoint_mission(self):
        result = FlappingWingRunner(arch=M33).run(WaypointMission())
        assert result.completed
        assert result.path_error_max_m < 0.6

    def test_strider_steering_course(self):
        result = StriderRunner(arch=M33).run(SteeringCourse())
        assert result.completed
        assert result.path_error_rms_m < 0.25

    def test_mission_result_fields(self):
        result = StriderRunner(arch=M4).run(SteeringCourse(duration_s=0.5))
        assert result.duration_s > 0
        assert 0 <= result.deadline_hit_rate <= 1
        assert result.compute_energy_mj == pytest.approx(result.compute_energy_j * 1e3)


class TestMissionRegistry:
    def test_builtins_are_registered(self):
        from repro.closedloop import MISSION_NAMES, mission_names

        assert set(MISSION_NAMES) <= set(mission_names())
        assert {"hover", "waypoints", "steer"} <= set(mission_names())

    def test_unknown_mission_raises_typed_error_with_suggestion(self):
        from repro.closedloop import MissionKeyError
        from repro.closedloop.missions import mission_entry

        with pytest.raises(MissionKeyError) as excinfo:
            mission_entry("hoover")
        err = excinfo.value
        assert isinstance(err, KeyError)
        assert err.requested == "hoover"
        assert err.suggestion == "hover"
        assert "did you mean 'hover'?" in str(err)

    def test_spec_validation_surfaces_the_typed_error(self):
        from repro.closedloop import MissionKeyError, MissionSpec

        with pytest.raises(MissionKeyError, match="did you mean"):
            MissionSpec(mission="waypointss").validated()

    def test_register_custom_mission_end_to_end(self):
        from repro.closedloop import register_mission
        from repro.closedloop.missions import (
            mission_names,
            unregister_mission,
        )
        from repro.faults.campaign import mission_cell

        register_mission(
            "blink-hover", lambda: HoverMission(duration_s=0.05),
            control_rate_hz=500.0, runner="flapping",
        )
        try:
            assert "blink-hover" in mission_names()
            with pytest.raises(ValueError, match="already registered"):
                register_mission("blink-hover", HoverMission)
            job = mission_cell(None, "blink-hover", "m33", 0.0, 0)
            assert job.runner == "flapping"
            assert job.control_rate_hz == 500.0
        finally:
            unregister_mission("blink-hover")
        assert "blink-hover" not in mission_names()

    def test_register_rejects_bad_arguments(self):
        from repro.closedloop import register_mission

        with pytest.raises(ValueError, match="non-empty"):
            register_mission("", HoverMission)
        with pytest.raises(ValueError, match="runner kind"):
            register_mission("x-run", HoverMission, runner="rover")
        with pytest.raises(ValueError, match="control_rate_hz"):
            register_mission("x-rate", HoverMission, control_rate_hz=0)
