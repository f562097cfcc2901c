"""The batch workloads: ``campaign`` and ``characterize``.

Each workload object has the same life cycle, driven by ``worker.py``:

* ``__init__`` is the set-up: it builds the inputs from the seed and
  runs one untimed warm-up operation.
* ``run_round()`` runs one round of the timed phase, the workload at
  its fixed input size, and returns that round's result digest.
* ``gate()`` checks the outputs once the timed phase is over and
  returns ``(attempted, failed, lines)`` for the correctness gate.

Both run in one process with ``jobs=1``; nothing here starts a pool.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter

from repro import api
from repro.backends import characterization_archs
from repro.core import registry
from repro.core.experiment_io import result_to_dict
from repro.scenarios import GENERATOR_ID, flatten_agents


def digest(payload) -> str:
    """sha256 of the canonical JSON of ``payload``."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def result_rows(results) -> list:
    """Canonical JSON text of each ``BenchmarkResult``, in order."""
    return [json.dumps(result_to_dict(r), sort_keys=True) for r in results]


def price_gate(items) -> int:
    """Re-price ``items`` on both price paths; return the mismatches."""
    vector = result_rows(api.price_batch(items, vectorize=True))
    serial = result_rows(api.price_batch(items, vectorize=False))
    return sum(v != s for v, s in zip(vector, serial))


def stratum(spec):
    """The generator's own draws a scenario is stratified on.

    Its mission kind, plus the control rate for hover, tour and steer
    profiles and the agent count for swarms.
    """
    kind = spec.name.split("-", 1)[1]
    if kind in ("hover", "tour", "steer"):
        return kind, spec.mission["control_rate_hz"]
    if kind == "swarm":
        return kind, len(spec.mission["agents"])
    return kind, None


class Campaign:
    """Tier-B scenario campaign, then a brownout fault campaign.

    The seed drives which Tier-B scenarios are drawn and the fault
    campaign's per-cell seeds.  The draw is stratified on the
    generator's own weights, so every seed runs the same mix: it takes
    scenarios from the seed's stream in order and accepts one while its
    kind has quota left and its rate (or swarm size) is under the
    kind's cap.  :attr:`QUOTA` is the generator's kind weights
    (0.3/0.25/0.15/0.15/0.15) x 20, and :attr:`CAP` spreads each kind
    as evenly as whole numbers allow over the generator's equally
    likely rates (500/1000/2000 Hz flapping, 100/200 Hz steering) and
    swarm sizes (2/3/4 agents).  Everything else -- durations, gusts,
    waypoints, swarm agents, kernels, scalars, cores, faults -- is the
    scenario's own draw.
    """

    QUOTA = {"hover": 6, "tour": 5, "steer": 3, "swarm": 3, "kernel-only": 3}
    #: Most scenarios of one kind per rate (or per swarm size).
    CAP = {"hover": 2, "tour": 2, "steer": 2, "swarm": 1, "kernel-only": 3}
    #: The warm-up: one short clean hover with one kernel, the same for
    #: every seed so set-up time does not depend on the draw.
    WARM_UP = api.ScenarioSpec(
        name="warm-up", tier="b", arch="m33", kernels=("mahony",),
        mission={"kind": "hover", "name": "gust-hover", "duration_s": 0.05,
                 "control_rate_hz": 1000.0, "gusts": [],
                 "success_rms_m": 0.1, "abort_error_m": 0.5,
                 "max_steady_tilt_rad": 0.35})
    MAX_DRAWS = 20000

    def __init__(self, seed: int):
        self.sset = self.select(seed)
        self.fault_spec = api.CampaignSpec(
            fault="brownout", severities=(0.5, 1.0),
            missions=("hover", "steer"),
            # fastbrief holds the suite's largest buffers: with it in
            # every round, peak RSS does not depend on the seed's draw.
            kernels=("mahony", "fly-lqr", "p3p", "axle-smooth", "fastbrief"),
            archs=("m33",), seed=seed,
        )
        self.caches = ()
        # Warm-up: one small campaign through both executors.
        api.run_scenarios(api.ScenarioSet(
            scenarios=(self.WARM_UP,), tier="b", seed=seed,
            generator=self.sset.generator).validated())
        api.run_campaign(api.CampaignSpec(
            fault="brownout", severities=(1.0,), missions=("steer",),
            kernels=("mahony",), archs=("m33",), seed=seed,
        ))
        jobs = sum(len(flatten_agents(s.mission))
                   for s in self.sset.mission_scenarios())
        kernel_cells = sum(len(s.kernels) for s in self.sset.kernel_scenarios())
        grid = len(self.fault_spec.severity_grid())
        self.sizes = {
            "scenarios": len(self.sset),
            "mission_jobs": jobs,
            "scenario_kernel_cells": kernel_cells,
            "kernel_solves": len({(s.scalar, k) for s in self.sset.scenarios
                                  for k in s.kernels}),
            "fault_mission_cells": len(self.fault_spec.missions) * grid,
            "fault_kernel_cells": len(self.fault_spec.kernels) * grid,
        }
        #: Mission jobs and kernel cells: what ``attempted`` counts.
        self.ops_per_round = (jobs + kernel_cells
                              + self.sizes["fault_mission_cells"]
                              + self.sizes["fault_kernel_cells"])
        #: Mission runs (a swarm is one): what ``qps`` counts, as
        #: campaigns are mission-bound.  Fixed by the quotas.
        self.throughput_ops = (len(self.sset.mission_scenarios())
                               + self.sizes["fault_mission_cells"])

    @classmethod
    def select(cls, seed: int):
        """The seed's stratified scenario set (see the class docstring)."""
        generator = api.ScenarioGenerator(seed=seed)
        need, taken, picked = dict(cls.QUOTA), Counter(), []
        for index in range(cls.MAX_DRAWS):
            spec = generator.sample(index)
            kind, sub = stratum(spec)
            if need[kind] == 0 or taken[kind, sub] == cls.CAP[kind]:
                continue
            picked.append(spec)
            need[kind] -= 1
            taken[kind, sub] += 1
            if not any(need.values()):
                return api.ScenarioSet(
                    scenarios=tuple(picked), tier="b", seed=seed,
                    generator=f"{GENERATOR_ID}/stratified",
                ).validated()
        raise RuntimeError(
            f"seed {seed}: quotas not met in {cls.MAX_DRAWS} draws")

    def run_round(self) -> str:
        """One scenario campaign plus one fault campaign and its report."""
        scenario_cache, fault_cache = api.TraceCache(), api.TraceCache()
        report = api.run_scenarios(
            self.sset, options=api.EngineOptions(trace_cache=scenario_cache))
        result = api.run_campaign(
            self.fault_spec,
            options=api.EngineOptions(trace_cache=fault_cache))
        resilience = api.build_report(result)
        self.caches = (scenario_cache, fault_cache)
        return digest({"scenarios": report, "faults": resilience})

    def gate(self):
        """Re-price the last round's solved profiles on both price paths."""
        archs = characterization_archs()
        profiles = [p for cache in self.caches
                    for p in cache.profiles().values()]
        items = [(p, arch, cache) for p in profiles
                 for arch in archs for cache in ("C", "NC")]
        failed = price_gate(items)
        line = (f"gate      : {len(profiles)} solved profiles re-priced on "
                f"{len(items)} cells, vector vs serial mismatches {failed}")
        return len(items), failed, [line]


class Characterize:
    """The paper's Table IV, cold: every kernel x core x cache on/off.

    Runs the same spec ``repro.api.characterize()`` builds, through
    ``repro.api.sweep`` so the benchmark holds the round's trace cache
    for the gate.  The inputs are fixed: the seed changes nothing.
    """

    def __init__(self, seed: int):
        self.kernels = registry.suite()
        self.archs = list(characterization_archs())
        self.cache = None
        self.results = None
        # Warm-up: one cheap kernel over the whole core x cache grid.
        api.sweep(api.SweepSpec(kernels=["mahony"], archs=self.archs,
                                config=api.HarnessConfig()),
                  options=api.EngineOptions(trace_cache=api.TraceCache()))
        self.ops_per_round = self.throughput_ops = (
            len(self.kernels) * len(self.archs) * 2)
        self.sizes = {"kernels": len(self.kernels), "cores": len(self.archs),
                      "kernel_cells": self.ops_per_round}

    def run_round(self) -> str:
        """One cold characterization with a fresh trace cache."""
        self.cache = api.TraceCache()
        self.results = api.sweep(
            api.SweepSpec(kernels=self.kernels, archs=self.archs,
                          config=api.HarnessConfig()),
            options=api.EngineOptions(trace_cache=self.cache))
        return digest(result_rows(self.results.results))

    def gate(self):
        """The vector-priced results must equal a serial re-price."""
        profile_of = {p.kernel: p for p in self.cache.profiles().values()}
        cells = self.results.results
        items = [(profile_of[r.kernel], r.arch, r.cache) for r in cells]
        serial = result_rows(api.price_batch(items, vectorize=False))
        failed = sum(a != b for a, b in zip(result_rows(cells), serial))
        line = (f"gate      : {len(cells)} cells re-priced serially from the "
                f"warm profiles, mismatches {failed}")
        return len(items), failed, [line]


def package_of_kernels() -> dict:
    """Kernel name -> the kernel package that registers it."""
    from repro.core.registry import _FACTORIES

    registry.names()
    return {name: factory.__module__.split(".")[1]
            for name, factory in _FACTORIES.items()}
