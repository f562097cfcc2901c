"""Scenario specs, sets, and their content addresses.

A *scenario* is one self-contained benchmark question: a mission profile
(what to fly), a kernel-config set (what to price), an arch (where), and
an optional fault at a severity (under what adversity) — all pinned by a
seed.  A :class:`ScenarioSet` is an ordered collection of scenarios plus
the provenance needed to regenerate it (tier, seed, generator id).

Content addressing uses the same canonical-JSON + sha256 scheme as the
engine's trace cache (:func:`repro.engine.planner.solve_key`) and the
service broker (:func:`repro.service.queries.query_key`): two scenario
sets with equal addresses describe byte-for-byte the same workload, which
is what makes campaign reports diffable with ``cmp`` and lets downstream
caches coalesce repeated studies.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

#: Bumped when the scenario schema changes: a version bump changes every
#: content address, exactly like the trace cache's format version.
SCENARIO_FORMAT_VERSION = 1

#: The scenario tiers: ``"a"`` = the paper's real platforms, ``"b"`` =
#: seeded synthetic generation (see :mod:`repro.scenarios.generator`).
TIERS = ("a", "b")


def canonical_json(payload) -> str:
    """The repo's canonical JSON rendering: sorted keys, no whitespace."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def content_address(payload) -> str:
    """sha256 of the canonical JSON of ``payload``, 32 hex chars."""
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()[:32]


@dataclass(frozen=True)
class ScenarioSpec:
    """One scenario: mission profile + kernel configs + arch + fault.

    ``mission`` is a JSON-safe profile dict (see
    :mod:`repro.scenarios.profiles`) or ``None`` for kernel-only
    scenarios like the VO frontend.  ``kernels`` are registry names, all
    priced under ``scalar`` on ``arch`` — derated by ``fault`` at
    ``severity`` when the fault has an arch seam.
    """

    name: str
    tier: str = "b"
    arch: str = "m33"
    mission: Optional[dict] = None
    kernels: Tuple[str, ...] = ()
    scalar: str = "f32"
    fault: Optional[str] = None
    severity: float = 0.0
    seed: int = 0

    def validated(self) -> "ScenarioSpec":
        """Return self after checking every coordinate is registered.

        Raises ``ValueError``/``KeyError`` naming the offending field:
        unknown tiers, archs, kernels, faults, out-of-range severities,
        and malformed mission profiles all fail here, before any
        expansion work starts.
        """
        from repro.backends import arch_names
        from repro.core import registry
        from repro.scalar import parse_scalar
        from repro.scenarios.profiles import validate_profile

        if self.tier not in TIERS:
            raise ValueError(
                f"scenario {self.name!r}: unknown tier {self.tier!r}; "
                f"available: {TIERS}"
            )
        if self.arch not in arch_names():
            raise KeyError(
                f"scenario {self.name!r}: unknown arch {self.arch!r}; "
                f"available: {sorted(arch_names())}"
            )
        for kernel in self.kernels:
            if not registry.is_registered(kernel):
                raise KeyError(
                    f"scenario {self.name!r}: unknown kernel {kernel!r}"
                )
        parse_scalar(self.scalar)  # raises on malformed scalar names
        if self.fault is not None:
            from repro.faults import get_fault

            get_fault(self.fault)  # raises KeyError on unknown faults
            if not 0.0 <= self.severity <= 1.0:
                raise ValueError(
                    f"scenario {self.name!r}: severity must be in [0, 1], "
                    f"got {self.severity!r}"
                )
        if self.mission is not None:
            validate_profile(self.mission)
        if self.mission is None and not self.kernels:
            raise ValueError(
                f"scenario {self.name!r} is empty: no mission profile "
                "and no kernels"
            )
        return self

    def to_dict(self) -> dict:
        """JSON-safe rendering (the inverse of :meth:`from_dict`)."""
        return {
            "name": self.name,
            "tier": self.tier,
            "arch": self.arch,
            "mission": self.mission,
            "kernels": list(self.kernels),
            "scalar": self.scalar,
            "fault": self.fault,
            "severity": self.severity,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ScenarioSpec":
        """Rebuild a spec from its :meth:`to_dict` rendering."""
        return cls(
            name=payload["name"],
            tier=payload.get("tier", "b"),
            arch=payload.get("arch", "m33"),
            mission=payload.get("mission"),
            kernels=tuple(payload.get("kernels", ())),
            scalar=payload.get("scalar", "f32"),
            fault=payload.get("fault"),
            severity=float(payload.get("severity", 0.0)),
            seed=int(payload.get("seed", 0)),
        )

    def key(self) -> str:
        """Content address of this scenario (name excluded: same workload
        under two names keys identically, like the engine's solve key)."""
        payload = self.to_dict()
        payload.pop("name")
        payload["format_version"] = SCENARIO_FORMAT_VERSION
        return content_address(payload)


@dataclass(frozen=True)
class ScenarioSet:
    """An ordered, content-addressed collection of scenarios.

    The unit the campaign layer executes and the CLI saves/loads: carries
    the provenance (tier, seed, generator id) to regenerate itself, and
    serializes canonically so the same generation is byte-identical
    across runs, processes, and machines.
    """

    scenarios: Tuple[ScenarioSpec, ...]
    tier: str = "b"
    seed: int = 0
    #: Identifier of whatever produced the set ("tier-a-registry",
    #: "mixed-profile-v1", ...), recorded for provenance.
    generator: str = ""

    def validated(self) -> "ScenarioSet":
        """Return self after validating every scenario and name uniqueness."""
        names: Dict[str, int] = {}
        for index, scenario in enumerate(self.scenarios):
            scenario.validated()
            if scenario.name in names:
                raise ValueError(
                    f"duplicate scenario name {scenario.name!r} at indices "
                    f"{names[scenario.name]} and {index}"
                )
            names[scenario.name] = index
        return self

    def __len__(self) -> int:
        return len(self.scenarios)

    def to_dict(self) -> dict:
        """JSON-safe rendering (the inverse of :meth:`from_dict`)."""
        return {
            "format_version": SCENARIO_FORMAT_VERSION,
            "tier": self.tier,
            "seed": self.seed,
            "generator": self.generator,
            "scenarios": [s.to_dict() for s in self.scenarios],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ScenarioSet":
        """Rebuild a set from its :meth:`to_dict` rendering."""
        version = payload.get("format_version", SCENARIO_FORMAT_VERSION)
        if version != SCENARIO_FORMAT_VERSION:
            raise ValueError(
                f"scenario set format v{version} is not v"
                f"{SCENARIO_FORMAT_VERSION}; regenerate it"
            )
        return cls(
            scenarios=tuple(
                ScenarioSpec.from_dict(s) for s in payload.get("scenarios", ())
            ),
            tier=payload.get("tier", "b"),
            seed=int(payload.get("seed", 0)),
            generator=payload.get("generator", ""),
        )

    def to_json(self) -> str:
        """Canonical JSON text: the byte-identity determinism currency."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @property
    def address(self) -> str:
        """Content address of the whole set (canonical JSON, sha256)."""
        return content_address(self.to_dict())

    def save(self, path: Union[str, Path]) -> Path:
        """Write the set as canonical JSON; two equal sets ``cmp`` equal."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json())
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ScenarioSet":
        """Read a set saved by :meth:`save` (validated)."""
        payload = json.loads(Path(path).read_text())
        return cls.from_dict(payload).validated()

    def mission_scenarios(self) -> List[ScenarioSpec]:
        """The scenarios carrying a mission profile, in set order."""
        return [s for s in self.scenarios if s.mission is not None]

    def kernel_scenarios(self) -> List[ScenarioSpec]:
        """The scenarios carrying kernel configs, in set order."""
        return [s for s in self.scenarios if s.kernels]
