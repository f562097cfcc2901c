"""Closed-loop evaluation: insect-scale simulators + mission scoring.

The paper's Section VI.E roadmap, implemented: controllers run end-to-end
against lightweight dynamics simulators while the framework logs both the
compute cost (via the MCU models) and task-level metrics (path error,
completion rate, energy per mission).
"""

from repro.closedloop.missions import (
    MISSION_NAMES,
    HoverMission,
    MissionEntry,
    MissionKeyError,
    MissionResult,
    MissionSpec,
    SteeringCourse,
    WaypointMission,
    make_mission,
    mission_entry,
    mission_names,
    mission_record,
    register_mission,
    unregister_mission,
)
from repro.closedloop.runner import (
    FlappingWingRunner,
    MissionFaultHook,
    StriderRunner,
)
from repro.closedloop.simulator import FlappingWingBody, WaterStrider

__all__ = [
    "MISSION_NAMES",
    "HoverMission",
    "MissionEntry",
    "MissionKeyError",
    "MissionResult",
    "MissionSpec",
    "SteeringCourse",
    "WaypointMission",
    "make_mission",
    "mission_entry",
    "mission_names",
    "mission_record",
    "register_mission",
    "unregister_mission",
    "FlappingWingRunner",
    "MissionFaultHook",
    "StriderRunner",
    "FlappingWingBody",
    "WaterStrider",
]
