"""Query types for the benchmark-query service, and their wire forms.

A query is a small frozen dataclass naming one answerable question:

* :class:`CharacterizeQuery` — one sweep datacell: price kernel K on
  core A with cache state C.
* :class:`MissionQuery` — fly one registered closed-loop mission on one
  core and report its task-level metrics.
* :class:`CampaignQuery` — score one full fault campaign
  (:class:`~repro.faults.FaultCampaignSpec` verbatim).

Every query has a **content address** (:func:`query_key`): the sha256 of
its canonical JSON rendering plus the broker's harness configuration —
the same hashing scheme the engine's trace cache uses for solve
profiles.  Two queries with equal keys are the same question by
construction, which is what lets the broker coalesce them into a single
solve and answer both from one cache entry.

Every query also carries a frozen :class:`QueryOptions` — priority,
timeout, cache policy — replacing the ad-hoc keyword arguments that
used to ride alongside queries.  Options are
*execution* hints, not part of the question: :func:`query_key` strips
them, so an interactive and a batch ask of the same cell share one
content address, coalesce into one solve, and hit the same cache entry.

:func:`parse_request` / :func:`request_of` translate between queries and
the JSONL wire dicts the ``repro serve`` server and ``repro query``
client exchange.  Requests may carry a version envelope (``"v": 2``
plus an ``"options"`` object); bare v1 requests parse unchanged, so
old clients keep working (see ``docs/service.md`` for the envelope).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Union

from repro.closedloop import MissionSpec
from repro.core import registry
from repro.core.config import HarnessConfig
from repro.faults import FaultCampaignSpec
from repro.backends import arch_names
from repro.mcu.cache import CACHE_OFF, CACHE_ON, CacheConfig
from repro.service.errors import QueryValidationError

#: Bumped when the payload schema changes: a version bump invalidates
#: every cached answer, exactly like the trace cache's format version.
SERVICE_FORMAT_VERSION = 1

#: Version of the request/response *envelope* (separate from the payload
#: format above, which participates in content addresses).  v1 is the
#: bare ``{"op": ...}`` request with string errors; v2 adds the
#: ``"v"``/``"options"`` fields and structured error records.
WIRE_VERSION = 2

#: Priorities admission control understands, best first.
PRIORITIES = ("interactive", "batch")

#: L1 answer-cache policies: ``use`` reads and writes, ``bypass`` skips
#: both (always re-derive, never pollute), ``refresh`` skips the read
#: but writes the fresh answer back.
CACHE_POLICIES = ("use", "bypass", "refresh")

#: Cache label -> the :class:`~repro.mcu.cache.CacheConfig` it names.
CACHE_OF_LABEL = {CACHE_ON.label: CACHE_ON, CACHE_OFF.label: CACHE_OFF}


def _check_arch(arch: str) -> None:
    """Raise ``KeyError`` naming the registered cores on a bad arch."""
    if arch not in arch_names():
        raise KeyError(
            f"unknown arch {arch!r}; available: {sorted(arch_names())}"
        )


@dataclass(frozen=True)
class QueryOptions:
    """How to run a query — priority, deadline, cache policy.

    Frozen and hashable, attached to every query as its ``options``
    field.  Never part of the content address: two asks of the same
    question with different options share one cache entry and coalesce
    into one solve.

    Attributes:
        priority: ``interactive`` (default) or ``batch``.  Batch work is
            shed first under admission pressure and sorted behind
            interactive work within a dispatcher batch.
        timeout: Client-side answer deadline in seconds (None = wait
            forever).  Enforced by :meth:`ServiceBroker.ask` locally and
            by :class:`~repro.service.server.ServiceClient` remotely.
        cache: L1 answer-cache policy — ``use`` / ``bypass`` /
            ``refresh`` (see :data:`CACHE_POLICIES`).
    """

    priority: str = "interactive"
    timeout: "float | None" = None
    cache: str = "use"

    def validated(self) -> "QueryOptions":
        """Return self after checking every knob names a known setting."""
        if self.priority not in PRIORITIES:
            raise QueryValidationError(
                f"unknown priority {self.priority!r}; "
                f"available: {list(PRIORITIES)}"
            )
        if self.cache not in CACHE_POLICIES:
            raise QueryValidationError(
                f"unknown cache policy {self.cache!r}; "
                f"available: {list(CACHE_POLICIES)}"
            )
        if self.timeout is not None and not float(self.timeout) > 0:
            raise QueryValidationError(
                f"timeout must be positive or None, got {self.timeout!r}"
            )
        return self

    def as_wire(self) -> dict:
        """Wire form: only the fields that differ from the defaults."""
        wire = {}
        for name, default in _OPTION_DEFAULTS.items():
            value = getattr(self, name)
            if value != default:
                wire[name] = value
        return wire

    @classmethod
    def from_wire(cls, data: dict) -> "QueryOptions":
        """Build validated options from a wire ``"options"`` object.

        Every answer is exact, so a v2 client's ``"fidelity": "exact"``
        is accepted and dropped; any other fidelity is refused.
        """
        data = dict(data)
        fidelity = data.pop("fidelity", "exact")
        if fidelity != "exact":
            raise QueryValidationError(
                f"unknown fidelity {fidelity!r}; every answer is 'exact'"
            )
        unknown = sorted(set(data) - set(_OPTION_DEFAULTS))
        if unknown:
            raise QueryValidationError(
                f"unknown option field(s) {unknown}; "
                f"available: {sorted(_OPTION_DEFAULTS)}"
            )
        timeout = data.get("timeout")
        return cls(
            priority=data.get("priority", "interactive"),
            timeout=None if timeout is None else float(timeout),
            cache=data.get("cache", "use"),
        ).validated()


#: The shared default options instance every query starts from.
DEFAULT_OPTIONS = QueryOptions()

#: Option field -> its default, for wire minimization and validation.
_OPTION_DEFAULTS = asdict(DEFAULT_OPTIONS)


@dataclass(frozen=True)
class CharacterizeQuery:
    """One sweep datacell: price ``kernel`` on ``arch`` under ``cache``."""

    kernel: str
    arch: str = "m33"
    cache: str = "C"
    options: QueryOptions = DEFAULT_OPTIONS

    def validated(self) -> "CharacterizeQuery":
        """Return self after checking every coordinate is registered."""
        if not registry.is_registered(self.kernel):
            raise KeyError(
                f"unknown kernel {self.kernel!r}; "
                f"available: {registry.names()}"
            )
        _check_arch(self.arch)
        if self.cache not in CACHE_OF_LABEL:
            raise KeyError(
                f"unknown cache label {self.cache!r}; "
                f"available: {sorted(CACHE_OF_LABEL)}"
            )
        self.options.validated()
        return self

    def cache_config(self) -> CacheConfig:
        """The :class:`CacheConfig` this query's label names."""
        return CACHE_OF_LABEL[self.cache]


@dataclass(frozen=True)
class MissionQuery:
    """Fly one registered closed-loop mission on one core, fault-free."""

    mission: str = "hover"
    arch: str = "m33"
    options: QueryOptions = DEFAULT_OPTIONS

    def validated(self) -> "MissionQuery":
        """Return self after checking mission and core are registered."""
        MissionSpec(mission=self.mission, arch=self.arch).validated()
        _check_arch(self.arch)
        self.options.validated()
        return self


@dataclass(frozen=True)
class CampaignQuery:
    """Score one fault campaign; the spec is the query, verbatim."""

    spec: FaultCampaignSpec
    options: QueryOptions = DEFAULT_OPTIONS

    def validated(self) -> "CampaignQuery":
        """Return self after checking the campaign's coordinates."""
        from repro.faults import get_fault

        get_fault(self.spec.fault)  # raises KeyError on unknown faults
        for arch in self.spec.archs:
            _check_arch(arch)
        for mission in self.spec.missions:
            MissionSpec(mission=mission).validated()
        self.options.validated()
        return self


#: Any query the broker accepts.
Query = Union[CharacterizeQuery, MissionQuery, CampaignQuery]

#: Wire ``op`` name of each query type (also the payload ``kind``).
_KIND_OF_TYPE = {
    CharacterizeQuery: "characterize",
    MissionQuery: "mission",
    CampaignQuery: "campaign",
}


def query_kind(query: Query) -> str:
    """The query's wire kind: ``characterize`` / ``mission`` / ``campaign``."""
    try:
        return _KIND_OF_TYPE[type(query)]
    except KeyError:
        raise TypeError(f"not a service query: {query!r}") from None


def query_key(query: Query, config: HarnessConfig = None) -> str:
    """Content address of one query under one harness configuration.

    Same scheme as :func:`repro.engine.solve_key`: canonical (sorted,
    separator-free) JSON, sha256, 32 hex characters.  The harness config
    participates because it changes characterize answers (reps, warmup,
    gap); including it uniformly keeps one code path for every kind.

    :class:`QueryOptions` are deliberately excluded — options say *how*
    to run the question, not *what* it is, so every options combination
    of one query maps to the same address (and the key stays identical
    to the pre-options format, preserving old spill/cache entries).
    """
    config = config if config is not None else HarnessConfig()
    fields = asdict(query)
    fields.pop("options", None)
    payload = json.dumps(
        {
            "service_version": SERVICE_FORMAT_VERSION,
            "kind": query_kind(query),
            "query": fields,
            "config": asdict(config),
        },
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:32]


def parse_request(request: dict) -> Query:
    """Build the query a JSONL wire request describes (validated).

    The request's ``op`` selects the query type; remaining fields map to
    dataclass fields with the dataclass defaults applying when omitted.
    A ``"v": 2`` envelope may add an ``"options"`` object
    (:meth:`QueryOptions.from_wire`); bare v1 requests get default
    options.  Raises ``KeyError``/``ValueError`` with an actionable
    message on unknown ops, versions, kernels, archs, missions, faults,
    cache labels, or option fields.
    """
    version = request.get("v", 1)
    if version not in (1, WIRE_VERSION):
        raise QueryValidationError(
            f"unsupported wire version {version!r}; "
            f"this server speaks v1 and v{WIRE_VERSION}"
        )
    options = QueryOptions.from_wire(request.get("options") or {})
    op = request.get("op")
    if op == "characterize":
        return CharacterizeQuery(
            kernel=request["kernel"],
            arch=request.get("arch", "m33"),
            cache=request.get("cache", "C"),
            options=options,
        ).validated()
    if op == "mission":
        return MissionQuery(
            mission=request.get("mission", "hover"),
            arch=request.get("arch", "m33"),
            options=options,
        ).validated()
    if op == "campaign":
        spec = FaultCampaignSpec(
            fault=request["fault"],
            severities=tuple(request.get("severities", (0.25, 0.5, 0.75, 1.0))),
            missions=tuple(request.get("missions", ())),
            kernels=tuple(request.get("kernels", ())),
            archs=tuple(request.get("archs", ("m33",))),
            seed=int(request.get("seed", 0)),
            reps=int(request.get("reps", 1)),
            warmup=int(request.get("warmup", 0)),
        )
        return CampaignQuery(spec=spec, options=options).validated()
    raise ValueError(
        f"unknown op {op!r}; expected one of "
        "('characterize', 'mission', 'campaign', 'ping', 'stats')"
    )


def request_of(query: Query) -> dict:
    """The JSONL wire request describing ``query`` (parse_request inverse).

    Emits the minimal envelope: default options produce a bare v1
    request (byte-identical to the pre-envelope format, so old servers
    stay addressable); non-default options add ``"v": 2`` and an
    ``"options"`` object.
    """
    kind = query_kind(query)
    if isinstance(query, CampaignQuery):
        fields = asdict(query.spec)
        fields["severities"] = list(fields["severities"])
        fields["missions"] = list(fields["missions"])
        fields["kernels"] = list(fields["kernels"])
        fields["archs"] = list(fields["archs"])
    else:
        fields = asdict(query)
        fields.pop("options", None)
    request = {"op": kind, **fields}
    wire_options = query.options.as_wire()
    if wire_options:
        request["v"] = WIRE_VERSION
        request["options"] = wire_options
    return request
