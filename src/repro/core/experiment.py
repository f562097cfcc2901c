"""Experiment orchestration: kernel x core x cache x scalar sweeps.

This is the driver behind the paper's 400+ measured datapoints: it walks
the registry, runs each kernel on each requested core with caches on and
off, and collects the aggregate results that the analysis layer formats
into the paper's tables.

Sweeps run through ``repro.api.sweep``, which hands the spec to
:mod:`repro.engine`: each kernel configuration solves once and its
op-traces are re-priced across every (core, cache) cell — optionally in
parallel, and against a persistent trace cache that a killed sweep
resumes from.  :func:`run_sweep_serial` keeps the original quadruple loop
as the reference implementation; the engine's results are asserted
bit-identical to it in ``tests/test_engine.py``.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core import registry
from repro.core.config import HarnessConfig
from repro.core.harness import Harness
from repro.core.results import BenchmarkResult
from repro.mcu.arch import ArchSpec
from repro.mcu.cache import CACHE_OFF, CACHE_ON, CacheConfig


def _default_archs() -> List[ArchSpec]:
    """Registry-derived default core set for sweeps and characterization.

    Every backend's characterization cores, so a newly registered ISA
    appears in ``characterize`` without edits here (the paper tables pin
    themselves to ``characterization_archs(isa="cortex-m")`` instead).
    """
    # Deferred: repro.backends sits above the measurement layer's types.
    from repro.backends import characterization_archs

    return list(characterization_archs())


class ResultKeyError(KeyError):
    """A ``(kernel, arch, cache[, scalar])`` cell missing from the results.

    Raised by :meth:`SweepResults.lookup` instead of a bare dict miss so
    callers (the fault campaign's grid join, the query service) can catch
    the lookup failure specifically, and so the message names the nearest
    indexed cell rather than echoing an opaque tuple.
    """

    def __init__(self, requested: tuple, suggestion: Optional[tuple] = None):
        self.requested = requested
        self.suggestion = suggestion
        message = f"no result for cell {requested!r}"
        if suggestion is not None:
            message += f"; nearest indexed cell is {suggestion!r}"
        super().__init__(message)

    def __str__(self) -> str:  # KeyError quotes its arg; keep the prose.
        return self.args[0]


@dataclass
class SweepSpec:
    """What to sweep: kernels, cores, cache states, and factory overrides."""

    kernels: List[str]
    archs: List[ArchSpec] = field(default_factory=_default_archs)
    caches: Tuple[CacheConfig, ...] = (CACHE_ON, CACHE_OFF)
    #: Each spec owns its config (default_factory, not a shared module
    #: instance) so per-spec adjustments can never alias across sweeps.
    config: HarnessConfig = field(default_factory=HarnessConfig)
    #: Extra kwargs passed to each kernel factory, keyed by kernel name
    #: ("*" applies to all).
    overrides: Dict[str, dict] = field(default_factory=dict)

    def factory_kwargs(self, kernel: str) -> dict:
        kwargs = dict(self.overrides.get("*", {}))
        kwargs.update(self.overrides.get(kernel, {}))
        return kwargs


@dataclass
class SweepResults:
    """All results of one sweep, with O(1) lookup helpers.

    ``add()`` maintains a ``(kernel, arch, cache[, scalar])`` index;
    analysis/table code performs thousands of :meth:`get` calls per table,
    which used to linear-scan the whole result list each time.  The index
    rebuilds itself transparently if ``results`` was mutated directly.
    """

    results: List[BenchmarkResult] = field(default_factory=list)
    _index: Dict[tuple, BenchmarkResult] = field(
        default_factory=dict, repr=False, compare=False
    )
    _indexed_count: int = field(default=0, repr=False, compare=False)

    def _index_one(self, result: BenchmarkResult) -> None:
        # First-added wins both keys, preserving the original scan's
        # first-match semantics.
        full = (result.kernel, result.arch, result.cache, result.scalar)
        self._index.setdefault(full, result)
        any_scalar = (result.kernel, result.arch, result.cache)
        self._index.setdefault(any_scalar, result)

    def _refresh_index(self) -> None:
        if self._indexed_count == len(self.results):
            return
        self._index.clear()
        for result in self.results:
            self._index_one(result)
        self._indexed_count = len(self.results)

    def add(self, result: BenchmarkResult) -> None:
        self._refresh_index()
        self.results.append(result)
        self._index_one(result)
        self._indexed_count = len(self.results)

    def get(
        self,
        kernel: str,
        arch: str,
        cache: str = "C",
        scalar: Optional[str] = None,
    ) -> Optional[BenchmarkResult]:
        self._refresh_index()
        if scalar is None:
            return self._index.get((kernel, arch, cache))
        return self._index.get((kernel, arch, cache, scalar))

    def lookup(
        self,
        kernel: str,
        arch: str,
        cache: str = "C",
        scalar: Optional[str] = None,
    ) -> BenchmarkResult:
        """Like :meth:`get`, but a miss raises :class:`ResultKeyError`.

        The error carries the nearest indexed cell (by key similarity), so
        a typo'd arch name or a stale cache label fails with an actionable
        message instead of ``None`` propagating into downstream math.
        """
        found = self.get(kernel, arch, cache, scalar)
        if found is not None:
            return found
        requested = (kernel, arch, cache) if scalar is None else (
            kernel, arch, cache, scalar
        )
        candidates = [k for k in self._index if len(k) == len(requested)]
        rendered = {"|".join(k): k for k in candidates}
        near = difflib.get_close_matches(
            "|".join(requested), sorted(rendered), n=1, cutoff=0.0
        )
        raise ResultKeyError(
            requested, rendered[near[0]] if near else None
        )

    def kernels(self) -> List[str]:
        seen: List[str] = []
        for r in self.results:
            if r.kernel not in seen:
                seen.append(r.kernel)
        return seen

    def __len__(self) -> int:
        return len(self.results)

    def datapoints(self) -> int:
        """Number of measured datapoints (runs across all configurations)."""
        return sum(len(r.runs) for r in self.results)


def run_sweep_serial(
    spec: SweepSpec,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepResults:
    """The original serial driver: one full harness run per cell.

    Re-executes each kernel's real compute for every (arch, cache) cell.
    Kept as the engine's reference implementation — the equivalence tests
    assert the engine reproduces this bit for bit — and for harness-level
    instrumentation studies that want the plain loop.
    """
    out = SweepResults()
    for arch in spec.archs:
        for cache in spec.caches:
            config = spec.config.with_cache(cache.enabled)
            harness = Harness(arch, config)
            for kernel in spec.kernels:
                problem = registry.create(kernel, **spec.factory_kwargs(kernel))
                result = harness.run(problem, cache)
                out.add(result)
                if progress is not None:
                    status = "ok" if result.fits else "skip"
                    progress(f"{kernel} on {arch.name}/{cache.label}: {status}")
    return out
