"""Tests for the ``repro.api`` facade.

The first test is the public-API snapshot: ``repro.api.__all__`` is
compared against a pinned list, so any addition, removal, or rename of
the supported surface fails here until this file is updated — an
explicit, reviewed act.  The rest covers the verb wrappers and the
typed ``ResultKeyError`` lookup contract.
"""

import pytest

import repro.api as api
from repro.core.config import HarnessConfig

#: The pinned public surface.  Changing ``repro.api.__all__`` without
#: updating this list is unreviewed API drift and must fail.
PUBLIC_API = [
    "CampaignQuery",
    "CampaignResult",
    "CampaignSpec",
    "CharacterizeQuery",
    "DEFAULT_PORT",
    "EngineOptions",
    "FlappingWingRunner",
    "HarnessConfig",
    "HoverMission",
    "MISSION_NAMES",
    "MissionKeyError",
    "MissionQuery",
    "MissionResult",
    "MissionSpec",
    "QueryOptions",
    "QueryValidationError",
    "ResultKeyError",
    "ScenarioGenerator",
    "ScenarioSet",
    "ScenarioSpec",
    "ServiceBroker",
    "ServiceClient",
    "ServiceError",
    "ServiceOverloaded",
    "ServiceServer",
    "ServiceTimeout",
    "ShardPool",
    "ShardUnavailable",
    "SteeringCourse",
    "StriderRunner",
    "SweepResults",
    "SweepSpec",
    "TraceCache",
    "WaypointMission",
    "build_report",
    "characterize",
    "fault_names",
    "generate_scenarios",
    "get_arch",
    "get_fault",
    "list_backends",
    "mission_names",
    "price_batch",
    "query",
    "register_mission",
    "render_report",
    "run_campaign",
    "run_mission",
    "run_scenarios",
    "save_report",
    "sweep",
    "sweep_summary",
]

CONFIG = HarnessConfig(reps=1, warmup_reps=0)
OVERRIDES = {"*": {"n_samples": 40}}


# ----------------------------------------------------------- the snapshot


def test_public_api_snapshot():
    assert sorted(api.__all__) == PUBLIC_API
    assert len(set(api.__all__)) == len(api.__all__)


def test_every_public_name_resolves():
    for name in api.__all__:
        assert getattr(api, name) is not None


def test_dir_lists_public_and_deprecated_names():
    listed = dir(api)
    for name in PUBLIC_API:
        assert name in listed


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute"):
        api.definitely_not_a_name


# ------------------------------------------------------------- the verbs


def test_run_mission_accepts_spec_or_bare_name():
    by_spec = api.run_mission(api.MissionSpec(mission="hover", arch="m33"))
    by_name = api.run_mission("hover", arch="m33")
    assert by_spec == by_name


def test_run_mission_rejects_arch_alongside_a_spec():
    with pytest.raises(TypeError, match="inside the MissionSpec"):
        api.run_mission(api.MissionSpec(mission="hover"), arch="m4")


def test_sweep_verb_runs_a_spec():
    from repro.mcu.arch import get_arch
    from repro.mcu.cache import CACHE_ON

    results = api.sweep(api.SweepSpec(
        kernels=["mahony"],
        archs=[get_arch("m33")],
        caches=(CACHE_ON,),
        config=CONFIG,
        overrides=OVERRIDES,
    ))
    assert results.lookup("mahony", "m33", "C").kernel == "mahony"


def test_grid_sweeps_bind_the_engine_at_call_time(monkeypatch):
    """Sweeps look ``run_sweep_engine`` up on ``repro.engine`` per call.

    A wrapper installed on the package, as perfbench's traced run
    installs one, must see the facade verbs, Table IV and ``repro
    sweep``; a module-level import in ``repro.api`` would bind the
    unwrapped function and miss every one of them.
    """
    import repro.engine as engine
    from repro.analysis import tables
    from repro.cli import main
    from repro.core import registry
    from repro.mcu.arch import get_arch

    swept = []
    original = engine.run_sweep_engine

    def counting(spec, **kwargs):
        swept.append(list(spec.kernels))
        return original(spec, **kwargs)

    monkeypatch.setattr(engine, "run_sweep_engine", counting)
    m33 = [get_arch("m33")]
    api.sweep(api.SweepSpec(kernels=["mahony"], archs=m33, config=CONFIG,
                            overrides=OVERRIDES))
    api.characterize(["p3p"], CONFIG, m33)
    tables.table4_dynamic(kernels=["fly-lqr"], config=CONFIG, archs=m33)
    # Without --kernels, `repro sweep` runs the registered suite.
    monkeypatch.setattr(registry, "suite", lambda: ["mahony"])
    assert main(["sweep", "--archs", "m33", "--reps", "1", "--warmup", "0"]) == 0
    assert swept == [["mahony"], ["p3p"], ["fly-lqr"], ["mahony"]]


def test_query_verb_answers_a_wire_dict():
    payload = api.query({
        "op": "mission", "mission": "hover", "arch": "m33",
    })
    assert payload["kind"] == "mission"
    assert payload["result"]["completed"] in (True, False)


# ----------------------------------------------------- typed lookup errors


@pytest.fixture(scope="module")
def small_results():
    from repro.mcu.arch import get_arch
    from repro.mcu.cache import CACHE_ON

    return api.sweep(api.SweepSpec(
        kernels=["mahony"],
        archs=[get_arch("m33")],
        caches=(CACHE_ON,),
        config=CONFIG,
        overrides=OVERRIDES,
    ))


def test_lookup_miss_raises_typed_keyerror_with_suggestion(small_results):
    with pytest.raises(api.ResultKeyError) as excinfo:
        small_results.lookup("mahony", "m7", "C")
    err = excinfo.value
    assert isinstance(err, KeyError)
    assert err.requested == ("mahony", "m7", "C")
    assert err.suggestion == ("mahony", "m33", "C")
    assert "nearest indexed cell" in str(err)
    # get() keeps the probing contract: None, never a raise.
    assert small_results.get("mahony", "m7", "C") is None
