"""Closed-loop evaluation runner.

Wires a full autonomy stack — estimation kernel + control kernel — against
an insect-scale dynamics simulator, while pricing every control step's
operation trace on a simulated core.  This answers the questions the paper
says kernel timing alone cannot (Section VI.E):

* **Task-level metrics**: path error, completion rate, energy per mission.
* **Compute-task coupling**: if a control step's compute latency exceeds
  the loop period on the chosen core, the next update is simply late — the
  runner degrades the effective control rate accordingly, so an
  underpowered MCU shows up as *worse flight*, not just a bigger number in
  a table.

The physics integrates at a fine fixed step; the autonomy stack runs at
its own (possibly compute-limited) rate, with zero-order-hold commands in
between — exactly how a bare-metal control loop behaves when it overruns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.attitude.filters import Mahony
from repro.closedloop.missions import (
    HoverMission,
    MissionResult,
    SteeringCourse,
    score_trajectory,
)
from repro.closedloop.simulator import FlappingWingBody, WaterStrider
from repro.control.geometric import GeometricController
from repro.control.smac import SlidingModeAdaptiveController
from repro.mcu.arch import ArchSpec, M33
from repro.mcu.cache import CACHE_ON, CacheConfig, CacheModel
from repro.mcu.energy import EnergyModel
from repro.mcu.ops import ALL_KINDS, OpCounter, OpTrace
from repro.mcu.pipeline import PipelineModel
from repro.obs import get_metrics, get_tracer
from repro.scalar import F32, ScalarType

#: Flash/working-set footprints used to price the closed-loop stack.
STACK_CODE_BYTES = 40_000
STACK_DATA_BYTES = 6_000


@dataclass
class ComputeLog:
    """Accumulated compute cost over a mission."""

    energy_j: float = 0.0
    latency_sum_s: float = 0.0
    steps: int = 0
    deadline_hits: int = 0
    #: Control steps whose compute exceeded the loop period, and the worst
    #: single-step latency seen — the overrun attribution a mission result
    #: carries and the ``mission.overruns`` counter records.
    overruns: int = 0
    worst_latency_s: float = 0.0

    def record(self, latency_s: float, energy_j: float, period_s: float) -> None:
        self.energy_j += energy_j
        self.latency_sum_s += latency_s
        self.steps += 1
        if latency_s <= period_s:
            self.deadline_hits += 1
        else:
            self.overruns += 1
        self.worst_latency_s = max(self.worst_latency_s, latency_s)

    @property
    def mean_latency_s(self) -> float:
        return self.latency_sum_s / max(self.steps, 1)

    @property
    def deadline_hit_rate(self) -> float:
        return self.deadline_hits / max(self.steps, 1)


class MissionFaultHook:
    """Per-step fault-injection interface the mission runners accept.

    The runners stay ignorant of fault semantics: a hook (usually built by
    ``repro.faults``) transforms sensor readings, adjusts the priced
    (latency, energy) of a control step, and may declare the platform dead
    (a brownout reset).  This no-op base doubles as the protocol
    definition; with ``fault_hook=None`` the runners' arithmetic is
    bit-identical to the fault-free original.
    """

    #: Injection event dicts appended by subclasses (step, kind, ...).
    events: List[dict]

    def __init__(self) -> None:
        self.events = []

    def log(self, kind: str, step: int, t: float, **detail) -> dict:
        event = {"kind": kind, "step": step, "t_s": round(t, 9), **detail}
        self.events.append(event)
        return event

    def on_imu(self, step: int, t: float, gyro, accel):
        """Transform one IMU sample (flapping-wing stack)."""
        return gyro, accel

    def on_heading(self, step: int, t: float, heading: float, rate: float):
        """Transform one compass/gyro-z sample (strider stack)."""
        return heading, rate

    def on_price(self, step: int, t: float, latency_s: float, energy_j: float):
        """Adjust the priced cost of one control step (throttle, sag...)."""
        return latency_s, energy_j

    def abort_reason(self, step: int, t: float) -> Optional[str]:
        """Non-None kills the platform at this instant (brownout reset)."""
        return None


def _mission_track(tracer, mission_name: str) -> str:
    """Timeline lane for one mission run's sim-time spans.

    A campaign driver may pre-select a distinct lane per cell by setting
    ``tracer.track`` (e.g. ``mission:hover/m33 s=0.5``); a standalone run
    defaults to ``mission:<name>``.
    """
    return tracer.track if tracer.track != "main" else f"mission:{mission_name}"


def _emit_step_obs(tracer, track: str, step_idx: int, t: float,
                   latency_s: float, est_frac: float, energy_j: float,
                   period_s: float) -> None:
    """Sim-time spans for one control step: step + estimate/control split.

    All times are mission (simulated) seconds, so the emitted spans are
    byte-identical across runs.  ``est_frac`` is the estimation phase's
    share of the step's priced latency (0 when the stack has no separate
    estimator); the step span carries zero self time so phase reports
    attribute cost to the estimate/control children.
    """
    end = t + latency_s
    split = t + latency_s * est_frac
    tracer.add_span("mission.step", t, end, cat="mission", track=track,
                    self_s=0.0, step=step_idx,
                    energy_uj=round(energy_j * 1e6, 6))
    if est_frac > 0.0:
        tracer.add_span("mission.estimate", t, split, cat="mission",
                        track=track, depth=1, step=step_idx)
    tracer.add_span("mission.control", split, end, cat="mission",
                    track=track, depth=1, step=step_idx)
    if latency_s > period_s:
        tracer.instant("mission.overrun", t_s=t, cat="mission", track=track,
                       step=step_idx, latency_us=round(latency_s * 1e6, 3))


def _emit_fault_instants(tracer, track: str, events: List[dict]) -> None:
    """``fault.<kind>`` instants for hook events, in-process or pooled."""
    for event in events:
        detail = {k: v for k, v in event.items() if k not in ("kind", "t_s")}
        tracer.instant(f"fault.{event['kind']}", t_s=event["t_s"],
                       cat="faults", track=track, **detail)


def _emit_mission_obs(tracer, metrics, track: str, mission_name: str,
                      arch_name: str, duration_s: float, completed: bool,
                      log: ComputeLog, fault_hook) -> None:
    """Mission-level span, fault-injection instants, and metrics."""
    if tracer.enabled:
        tracer.add_span(
            "mission.run", 0.0, duration_s, cat="mission", track=track,
            self_s=0.0, mission=mission_name, arch=arch_name,
            completed=completed, overruns=log.overruns, steps=log.steps,
            compute_energy_uj=round(log.energy_j * 1e6, 6),
        )
        if fault_hook is not None:
            _emit_fault_instants(tracer, track, fault_hook.events)
    if metrics.enabled:
        metrics.inc("mission.runs")
        metrics.inc("mission.completed" if completed else "mission.failed")
        metrics.inc(f"mission.compute_energy_uj.{arch_name}",
                    log.energy_j * 1e6)
        metrics.inc("mission.overruns", log.overruns)
        if fault_hook is not None:
            metrics.inc("faults.injections", len(fault_hook.events))


class _StepPricer:
    """Prices one control step's trace on the target core.

    Steady-state missions execute the same op mix on almost every
    control step, so pricing is memoized on the trace's op-count tuple:
    the pipeline/energy models run once per *distinct* trace instead of
    once per step (the ROADMAP's "batch the mission-job price calls"
    follow-on).  Pricing is a pure function of the trace, so the memo
    is byte-identical to re-pricing — the runner's latency feedback
    loop (step latency gates the next control deadline) is untouched.
    """

    def __init__(self, arch: ArchSpec, cache: CacheConfig, scalar: ScalarType):
        self.arch = arch
        self.cache = cache
        self.scalar = scalar
        self.pipeline = PipelineModel(arch)
        self.energy = EnergyModel(arch)
        self.cache_activity = CacheModel(arch, cache).activity(
            STACK_CODE_BYTES, STACK_DATA_BYTES
        )
        self._memo: dict = {}

    def price_trace(self, trace: OpTrace):
        """Price one op-trace; returns (latency_s, energy_j)."""
        key = tuple(getattr(trace, kind) for kind in ALL_KINDS)
        priced = self._memo.get(key)
        if priced is None:
            breakdown = self.pipeline.cycles(
                trace, self.scalar, self.cache,
                STACK_CODE_BYTES, STACK_DATA_BYTES,
            )
            report = self.energy.report(trace, breakdown, self.cache_activity)
            priced = self._memo[key] = (report.latency_s, report.energy_j)
        return priced


class _Runner:
    """The one compute-gated mission loop both platform runners fly.

    A platform's ``run`` builds its plant, estimator and controller, then
    hands :meth:`_fly` its control step and its physics step.
    """

    def __init__(self, arch: ArchSpec, cache: CacheConfig, scalar: ScalarType,
                 control_rate_hz: float, physics_dt: float, seed: int,
                 fault_hook: Optional[MissionFaultHook]):
        self.pricer = _StepPricer(arch, cache, scalar)
        self.arch = arch
        self.control_period = 1.0 / control_rate_hz
        self.physics_dt = physics_dt
        self.seed = seed
        self.fault_hook = fault_hook

    def _fly(self, mission, command, control: Callable, advance: Callable,
             abort_error: float, success_rms: float,
             settled: Optional[Callable[[], bool]] = None) -> MissionResult:
        """Fly ``mission``, holding ``command`` between control steps.

        ``control(counter, step, t, traced)`` returns ``(command,
        estimate_trace or None)``; ``advance(command, t)`` steps the
        physics to ``t`` and returns the tracking error; ``settled()``,
        when given, is one more completion condition.
        """
        tracer = get_tracer()
        metrics = get_metrics()
        traced = tracer.enabled
        track = _mission_track(tracer, mission.name)
        log = ComputeLog()
        hook = self.fault_hook
        errors = []
        next_control_t = 0.0
        step_idx = 0
        aborted_by: Optional[str] = None

        t = 0.0
        while t < mission.duration_s:
            if t >= next_control_t:
                counter = OpCounter()
                command, est_trace = control(counter, step_idx, t, traced)
                latency_s, energy_j = self.pricer.price_trace(counter.snapshot())
                raw_latency_s = latency_s
                if hook is not None:
                    latency_s, energy_j = hook.on_price(
                        step_idx, t, latency_s, energy_j
                    )
                log.record(latency_s, energy_j, self.control_period)
                if traced:
                    est_frac = 0.0
                    if est_trace is not None:
                        est_latency_s, _ = self.pricer.price_trace(est_trace)
                        est_frac = (min(est_latency_s / raw_latency_s, 1.0)
                                    if raw_latency_s > 0 else 0.0)
                    _emit_step_obs(tracer, track, step_idx, t, latency_s,
                                   est_frac, energy_j, self.control_period)
                if metrics.enabled:
                    metrics.inc("mission.steps")
                    metrics.observe("mission.step_latency_us", latency_s * 1e6)
                    metrics.observe("mission.step_energy_uj", energy_j * 1e6)
                # Compute-limited rate: the next update can't start before
                # this one's computation has finished.
                next_control_t = t + max(self.control_period, latency_s)
                if hook is not None:
                    aborted_by = hook.abort_reason(step_idx, t)
                step_idx += 1
            if aborted_by is not None:
                break
            t += self.physics_dt
            err = advance(command, t)
            errors.append(err)
            if err > abort_error:
                break

        score = score_trajectory(np.array(errors), abort_error, success_rms)
        is_settled = settled is None or settled()
        completed = score["completed"] and is_settled and aborted_by is None
        _emit_mission_obs(tracer, metrics, track, mission.name,
                          self.arch.name, t, completed, log, hook)
        return MissionResult(
            name=mission.name,
            completed=completed,
            duration_s=t,
            path_error_rms_m=score["rms"],
            path_error_max_m=score["max"],
            compute_energy_j=log.energy_j,
            compute_latency_s=log.mean_latency_s,
            deadline_hit_rate=log.deadline_hit_rate,
            effective_rate_hz=log.steps / max(t, 1e-9),
            overruns=log.overruns,
            worst_latency_s=log.worst_latency_s,
            aborted_by=aborted_by,
            fault_events=len(hook.events) if hook is not None else 0,
        )


class FlappingWingRunner(_Runner):
    """Hover / waypoint missions: Mahony attitude + SE(3) geometric control.

    Position and velocity come from external tracking (the lab's motion
    capture, as on real RoboBee flights); attitude is estimated onboard
    from the simulated IMU — the configuration most published flights use.
    """

    def __init__(
        self,
        arch: ArchSpec = M33,
        cache: CacheConfig = CACHE_ON,
        scalar: ScalarType = F32,
        control_rate_hz: float = 2000.0,
        physics_dt: float = 1.25e-4,
        kx: float = 0.045,
        kv: float = 0.009,
        kr: float = 3.2e-5,
        kw: float = 2.9e-7,
        seed: int = 0,
        fault_hook: Optional[MissionFaultHook] = None,
    ):
        super().__init__(arch, cache, scalar, control_rate_hz, physics_dt,
                         seed, fault_hook)
        self.kx = kx
        self.kv = kv
        self.kr = kr
        self.kw = kw
        self.scalar = scalar

    def run(self, mission: HoverMission) -> MissionResult:
        """Fly one hover/waypoint mission; returns its :class:`MissionResult`.

        When the process-wide tracer is enabled, every control step emits
        sim-time spans (``mission.step`` with ``mission.estimate`` /
        ``mission.control`` children) without perturbing any numeric
        result — the same counter and pricer drive the mission outcome.
        """
        body = FlappingWingBody(seed=self.seed)
        body.reset(tilt_rad=0.15, pos=mission.reference(0.0) + np.array([0.04, -0.03, -0.05]))
        filt = Mahony(scalar=self.scalar)
        ctrl = GeometricController(mass=body.mass, kx=self.kx, kv=self.kv,
                                   kr=self.kr, kw=self.kw)
        hook = self.fault_hook
        tilts = []

        def control(counter, step, t, traced):
            gyro, accel = body.read_imu()
            if hook is not None:
                gyro, accel = hook.on_imu(step, t, gyro, accel)
            filt.update(gyro, accel, None, self.control_period, counter)
            est_trace = counter.snapshot() if traced else None
            r_est = _quat_to_matrix(filt.quaternion())
            ref = mission.reference(t)
            cmd = ctrl.compute(
                counter,
                body.state.pos, body.state.vel, r_est, body.state.omega,
                ref, np.zeros(3), np.zeros(3),
            )
            thrust = float(np.clip(cmd.thrust, 0.0, 2.5 * body.mass * 9.81))
            moment = np.clip(cmd.moment, -6e-6, 6e-6)
            return (thrust, moment), est_trace

        def advance(command, t):
            thrust, moment = command
            body.step(thrust, moment, self.physics_dt)
            err = float(np.linalg.norm(body.state.pos - mission.reference(t)))
            tilts.append(body.state.tilt_rad)
            return err

        def settled():
            # A tumbling body that hovers on average is not a success: the
            # steady-state attitude must settle.
            steady_tilt = (float(np.mean(tilts[len(tilts) // 2 :]))
                           if tilts else np.inf)
            return steady_tilt <= mission.max_steady_tilt_rad

        return self._fly(mission, (body.mass * 9.81, np.zeros(3)), control,
                         advance, mission.abort_error_m, mission.success_rms_m,
                         settled)


class StriderRunner(_Runner):
    """Heading-course missions: SMAC yaw control on the water strider."""

    def __init__(
        self,
        arch: ArchSpec = M33,
        cache: CacheConfig = CACHE_ON,
        scalar: ScalarType = F32,
        control_rate_hz: float = 200.0,
        physics_dt: float = 5e-4,
        surge_force: float = 1.2e-3,
        torque_scale: float = 4.0e-8,
        seed: int = 0,
        fault_hook: Optional[MissionFaultHook] = None,
    ):
        super().__init__(arch, cache, scalar, control_rate_hz, physics_dt,
                         seed, fault_hook)
        self.surge_force = surge_force
        self.torque_scale = torque_scale

    def run(self, mission: SteeringCourse) -> MissionResult:
        """Steer one heading course; returns its :class:`MissionResult`.

        Tracing mirrors :meth:`FlappingWingRunner.run`, except the strider
        stack has no separate estimator, so each ``mission.step`` span
        carries a single ``mission.control`` child.
        """
        strider = WaterStrider(seed=self.seed)
        strider.reset()
        ctrl = SlidingModeAdaptiveController(lam=10.0, eta=1.5, gamma=0.2)
        hook = self.fault_hook

        def control(counter, step, t, traced):
            heading = strider.read_compass()
            rate = strider.read_gyro_z()
            if hook is not None:
                heading, rate = hook.on_heading(step, t, heading, rate)
            ref = mission.reference(t)
            ref_rate = (mission.reference(t + 1e-3) - ref) / 1e-3
            err = np.array([heading - ref, 0.0, 0.0])
            derr = np.array([rate - ref_rate, 0.0, 0.0])
            cmd = ctrl.compute(counter, t, self.control_period, err, derr)
            return float(np.clip(cmd.u[0] * self.torque_scale,
                                 -3e-7, 3e-7)), None

        def advance(yaw_torque, t):
            strider.step(self.surge_force, yaw_torque, self.physics_dt)
            return abs(strider.state.heading - mission.reference(t))

        return self._fly(mission, 0.0, control, advance,
                         mission.abort_error_rad, mission.success_rms_rad)


#: Runner-kind name -> runner class (see ``MissionEntry.runner``).
RUNNER_CLASSES = {
    "flapping": FlappingWingRunner,
    "strider": StriderRunner,
}


def _quat_to_matrix(q) -> np.ndarray:
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )
