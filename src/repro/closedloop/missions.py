"""Mission definitions and task-level metrics for closed-loop evaluation.

The roadmap's question: kernel timing tells only part of the story — what
matters when closing the loop is *task-level* performance: disturbance
rejection, path error, completion rate, and energy per mission.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np


class MissionKeyError(KeyError):
    """An unregistered mission name, with a nearest-match suggestion.

    The closed-loop counterpart of
    :class:`~repro.core.experiment.ResultKeyError`: raised instead of a
    bare ``KeyError`` so callers (the CLI, fault campaigns, the query
    service) can catch the lookup failure specifically, and so the
    message names the closest registered mission rather than echoing an
    opaque string.
    """

    def __init__(self, requested: str, suggestion: Optional[str] = None):
        self.requested = requested
        self.suggestion = suggestion
        message = (
            f"unknown mission {requested!r}; available: {mission_names()}"
        )
        if suggestion is not None:
            message += f" (did you mean {suggestion!r}?)"
        super().__init__(message)

    def __str__(self) -> str:  # KeyError quotes its arg; keep the prose.
        return self.args[0]


@dataclass(frozen=True)
class MissionEntry:
    """One registered mission: how to build it and how to fly it."""

    #: Registry name, e.g. ``"hover"``.
    name: str
    #: Zero-argument factory returning a fresh mission object.
    factory: Callable[[], object]
    #: Control-loop rate the mission's runner steps at (Hz).
    control_rate_hz: float = 2000.0
    #: Which runner flies it: ``"flapping"`` or ``"strider"``.
    runner: str = "flapping"


#: The mission registry, in registration order.  Built-ins register at
#: import below; Tier-B generated missions (``repro.scenarios``) and
#: custom studies register through :func:`register_mission`.
_MISSIONS: Dict[str, MissionEntry] = {}

#: Runner kinds :func:`register_mission` accepts.
_RUNNER_KINDS = ("flapping", "strider")


def register_mission(
    name: str,
    factory: Callable[[], object],
    *,
    control_rate_hz: float = 2000.0,
    runner: str = "flapping",
    replace: bool = False,
) -> MissionEntry:
    """Register a mission so every layer can enumerate and fly it.

    The single source of truth the CLI choices, fault campaigns, and the
    query service all read: registering here is the only step a new
    mission type needs to become sweepable everywhere.

    Args:
        name: Registry key (also the ``MissionSpec.mission`` value).
        factory: Zero-argument callable building a fresh mission object.
        control_rate_hz: The runner's control-loop rate for this mission.
        runner: ``"flapping"`` or ``"strider"``.
        replace: Allow overwriting an existing registration.

    Returns:
        The stored :class:`MissionEntry`.
    """
    if not name:
        raise ValueError("mission name must be non-empty")
    if runner not in _RUNNER_KINDS:
        raise ValueError(
            f"unknown runner kind {runner!r}; available: {_RUNNER_KINDS}"
        )
    if control_rate_hz <= 0:
        raise ValueError(f"control_rate_hz must be positive, got {control_rate_hz!r}")
    if name in _MISSIONS and not replace:
        raise ValueError(
            f"mission {name!r} is already registered (pass replace=True)"
        )
    entry = MissionEntry(
        name=name, factory=factory,
        control_rate_hz=float(control_rate_hz), runner=runner,
    )
    _MISSIONS[name] = entry
    return entry


def unregister_mission(name: str) -> None:
    """Remove a registered mission (built-ins included; use with care)."""
    _MISSIONS.pop(name, None)


def mission_names() -> Tuple[str, ...]:
    """Every registered mission name, in registration order."""
    return tuple(_MISSIONS)


def mission_entry(name: str) -> MissionEntry:
    """The registry entry for ``name``; raises :class:`MissionKeyError`."""
    entry = _MISSIONS.get(name)
    if entry is None:
        near = difflib.get_close_matches(name, mission_names(), n=1, cutoff=0.0)
        raise MissionKeyError(name, near[0] if near else None)
    return entry


@dataclass(frozen=True)
class MissionSpec:
    """What to fly: a registered mission on one core.

    The closed-loop counterpart of :class:`~repro.core.experiment.SweepSpec`
    and the fault layer's campaign spec — the canonical, hashable
    description of one mission run that ``repro.api.run_mission`` and the
    query service accept.
    """

    mission: str = "hover"
    arch: str = "m33"

    def validated(self) -> "MissionSpec":
        """Return self after checking the mission name is registered.

        Raises:
            MissionKeyError: Unregistered name, carrying the requested
                name and the nearest registered match.
        """
        mission_entry(self.mission)
        return self


def make_mission(name: str):
    """Instantiate a registered mission by name (see :func:`mission_names`)."""
    return mission_entry(name).factory()


@dataclass(frozen=True)
class MissionResult:
    """Task-level outcome plus the compute cost of achieving it."""

    name: str
    completed: bool
    duration_s: float
    #: RMS distance to the reference path/setpoint over the mission (m).
    path_error_rms_m: float
    #: Worst-case excursion from the reference (m).
    path_error_max_m: float
    #: Compute energy spent by the autonomy stack over the mission (J).
    compute_energy_j: float
    #: Average compute latency per control period (s).
    compute_latency_s: float
    #: Fraction of control periods whose compute met the deadline.
    deadline_hit_rate: float
    #: Effective control rate actually achieved (Hz).
    effective_rate_hz: float
    #: Control steps whose compute overran the loop period.
    overruns: int = 0
    #: Worst single-step compute latency observed (s).
    worst_latency_s: float = 0.0
    #: Fault that terminated the mission early (e.g. "brownout_reset"),
    #: None when the mission ran to its natural end or aborted on error.
    aborted_by: Optional[str] = None
    #: Fault injections that occurred during the mission.
    fault_events: int = 0

    @property
    def compute_energy_mj(self) -> float:
        return self.compute_energy_j * 1e3

    @property
    def time_to_failure_s(self) -> Optional[float]:
        """Mission time at which flight was lost (None if completed)."""
        return None if self.completed else self.duration_s

    @property
    def energy_to_abort_j(self) -> Optional[float]:
        """Compute energy burned before losing flight (None if completed)."""
        return None if self.completed else self.compute_energy_j


#: Every column :func:`mission_record` can emit, in record order.
RECORD_COLUMNS = (
    "completed", "duration_s", "path_error_rms", "path_error_max",
    "compute_energy_j", "compute_latency_s", "deadline_hit_rate",
    "effective_rate_hz", "overruns", "worst_latency_s", "aborted_by",
    "fault_events", "time_to_failure_s", "energy_to_abort_j",
)

#: The columns of a fault-free mission answer (no fault forensics).
OUTCOME_COLUMNS = RECORD_COLUMNS[:11]


def mission_record(result: MissionResult,
                   columns: Tuple[str, ...] = OUTCOME_COLUMNS) -> dict:
    """JSON-ready record of one :class:`MissionResult`: its ``columns``.

    Mission answers, fault-campaign cells and scenario mission jobs all
    pick their columns from this one mapping.
    """
    ttf, eta = result.time_to_failure_s, result.energy_to_abort_j
    full = {
        "completed": bool(result.completed),
        "duration_s": float(result.duration_s),
        "path_error_rms": float(result.path_error_rms_m),
        "path_error_max": float(result.path_error_max_m),
        "compute_energy_j": float(result.compute_energy_j),
        "compute_latency_s": float(result.compute_latency_s),
        "deadline_hit_rate": float(result.deadline_hit_rate),
        "effective_rate_hz": float(result.effective_rate_hz),
        "overruns": int(result.overruns),
        "worst_latency_s": float(result.worst_latency_s),
        "aborted_by": result.aborted_by,
        "fault_events": int(result.fault_events),
        "time_to_failure_s": None if ttf is None else float(ttf),
        "energy_to_abort_j": None if eta is None else float(eta),
    }
    return {name: full[name] for name in columns}


@dataclass
class HoverMission:
    """Hold position at a setpoint under stroke disturbance."""

    name: str = "hover-hold"
    duration_s: float = 0.5
    setpoint: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 0.3]))
    #: Mission succeeds when the RMS position error stays below this.
    success_rms_m: float = 0.05
    #: And no excursion beyond this (a crash / flyaway bound).
    abort_error_m: float = 0.5
    #: Steady-state attitude must settle below this (a tumbling body that
    #: happens to hover on average is not a success).
    max_steady_tilt_rad: float = 0.26

    def reference(self, t: float) -> np.ndarray:
        return self.setpoint


@dataclass
class WaypointMission:
    """Traverse a short sequence of waypoints (flapping-wing)."""

    name: str = "waypoints"
    duration_s: float = 1.2
    waypoints: tuple = (
        (0.0, 0.0, 0.3),
        (0.15, 0.0, 0.35),
        (0.15, 0.15, 0.3),
    )
    success_rms_m: float = 0.09
    abort_error_m: float = 0.6
    max_steady_tilt_rad: float = 0.35

    def reference(self, t: float) -> np.ndarray:
        """Piecewise-constant waypoint schedule."""
        idx = min(int(t / (self.duration_s / len(self.waypoints))),
                  len(self.waypoints) - 1)
        return np.asarray(self.waypoints[idx], dtype=np.float64)


@dataclass
class SteeringCourse:
    """Water-strider heading course: follow a heading profile."""

    name: str = "steering-course"
    duration_s: float = 2.0
    turn_rate_rad_s: float = 1.2
    success_rms_rad: float = 0.25
    abort_error_rad: float = 1.5

    def reference(self, t: float) -> float:
        """Heading reference: straight, then a constant-rate turn."""
        if t < 0.5:
            return 0.0
        return self.turn_rate_rad_s * (t - 0.5)


# The paper's built-in missions.  Registration order is canonical:
# every enumeration (CLI choices, campaign grids, docs) lists them so.
register_mission("hover", HoverMission, control_rate_hz=2000.0,
                 runner="flapping")
register_mission("waypoints", WaypointMission, control_rate_hz=2000.0,
                 runner="flapping")
register_mission("steer", SteeringCourse, control_rate_hz=200.0,
                 runner="strider")

#: The built-in mission names, frozen at import in registration order.
#: Dynamic enumeration — which also sees missions registered later via
#: :func:`register_mission` — is :func:`mission_names`.
MISSION_NAMES = mission_names()


def score_trajectory(
    errors: np.ndarray,
    abort_threshold: float,
    success_rms: float,
) -> dict:
    """Common task scoring: completion + RMS/max error."""
    max_err = float(np.max(errors)) if len(errors) else float("inf")
    rms = float(np.sqrt(np.mean(errors**2))) if len(errors) else float("inf")
    aborted = max_err > abort_threshold
    return {
        "completed": (not aborted) and rms <= success_rms,
        "rms": rms,
        "max": max_err,
    }
