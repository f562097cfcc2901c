"""Architecture descriptor types and registry-backed lookups.

This module defines the *shape* of a core model — :class:`ArchSpec` and
its component specs — while the concrete cores and every cost table live
in :mod:`repro.backends` (the Cortex-M fleet in
:mod:`repro.backends.cortex_m`, the RV32 family in
:mod:`repro.backends.riscv`).  :func:`get_arch` and the legacy names
(``M4``, ``CHARACTERIZATION_ARCHS``) resolve through the backend
registry, so code written against this module keeps working while new
ISA families appear without touching it.

All quantitative parameters are calibrated so the *relationships* the paper
reports (who wins, by what factor, where caches matter) are reproduced; they
are not datasheet transcriptions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional


@dataclass(frozen=True)
class FpuSpec:
    """Floating-point capability of a core."""

    single: bool  # hardware single-precision FPU present
    double: bool  # hardware double-precision FPU present


@dataclass(frozen=True)
class CacheSpec:
    """Instruction/data cache geometry, in bytes (0 = absent)."""

    icache_bytes: int
    dcache_bytes: int
    line_bytes: int = 32

    @property
    def has_icache(self) -> bool:
        return self.icache_bytes > 0

    @property
    def has_dcache(self) -> bool:
        return self.dcache_bytes > 0


@dataclass(frozen=True)
class MemorySpec:
    """On-chip memory budget, in bytes."""

    flash_bytes: int
    sram_bytes: int
    # Extra cycles to reach flash / SRAM when the relevant cache misses (or
    # is disabled).  The M7's AXI SRAM stack placement makes its uncached
    # data penalty unusually large.
    flash_wait_cycles: float
    sram_wait_cycles: float


@dataclass(frozen=True)
class PowerSpec:
    """Active-power model parameters (milliwatts).

    ``active_mw`` is the nominal core+memory power running compute-bound
    code with caches in their default state.  ``cache_bonus_mw`` is added
    when caches are enabled and busy (the paper sees up to +86 mW on the M7
    during SIFT).  ``activity_span_mw`` scales with the float/memory
    intensity of the workload and provides the spread between quiet integer
    kernels and dense float kernels.
    """

    active_mw: float
    cache_bonus_mw: float
    activity_span_mw: float
    idle_mw: float
    supply_v: float = 3.3


@dataclass(frozen=True)
class ArchSpec:
    """A complete MCU core + board model (any registered ISA family)."""

    name: str
    core: str
    board: str
    isa: str
    pipeline_stages: int
    clock_hz: float
    superscalar_ipc: float  # >1 means dual-issue benefit on int/mem code
    branch_predictor: bool
    fpu: FpuSpec
    cache: CacheSpec
    memory: MemorySpec
    power: PowerSpec
    process_node_nm: int
    has_hw_divide: bool
    has_dsp_simd: bool  # ARMv7E-M / ARMv8-M DSP extension (USADA8 etc.)
    #: Effective-CPI multiplier for adverse operating points (contention,
    #: error-correction retries, wait-state insertion under voltage sag).
    #: 1.0 on every nominal core; fault injectors derive stressed variants.
    cpi_scale: float = 1.0

    @property
    def clock_mhz(self) -> float:
        return self.clock_hz / 1e6

    @property
    def base_name(self) -> str:
        """Underlying core name with any fault-variant suffix stripped.

        A derated variant (``m33+brownout:0.5``) runs the *same compiled
        binary* as its base core; models keyed on the core's identity
        (static code model, per-arch factors) must resolve through this.
        """
        return self.name.split("+", 1)[0]

    def derated(
        self,
        *,
        name: Optional[str] = None,
        clock_scale: float = 1.0,
        cpi_scale: Optional[float] = None,
        power: Optional[PowerSpec] = None,
    ) -> "ArchSpec":
        """A derived operating point of this core.

        Fault injectors (``repro.faults``) use this to express DVFS states,
        brownout throttling, and compute-contention storms as first-class
        :class:`ArchSpec` variants: the whole pricing stack (pipeline,
        cache, energy, engine) then threads through unchanged.  With all
        arguments at their defaults the original spec is returned as-is.
        """
        if (
            name is None
            and clock_scale == 1.0
            and cpi_scale is None
            and power is None
        ):
            return self
        return replace(
            self,
            name=name if name is not None else self.name,
            clock_hz=self.clock_hz * clock_scale,
            cpi_scale=cpi_scale if cpi_scale is not None else self.cpi_scale,
            power=power if power is not None else self.power,
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


def get_arch(name: str) -> ArchSpec:
    """Look up an architecture by short name (``m4``, ``rv32imafc``, ...).

    Delegates to the :mod:`repro.backends` registry; raises
    :class:`~repro.backends.ArchKeyError` (a ``KeyError`` subclass with a
    nearest-match suggestion) for unknown names.
    """
    # Deferred: backends defines the concrete cores in terms of the spec
    # classes above, so this module must stay importable without it.
    from repro.backends import get_arch as _registry_get_arch

    return _registry_get_arch(name)


#: Legacy names resolved through the backend registry on first access.
_REGISTRY_CORES = ("M0PLUS", "M4", "M33", "M7")


def __getattr__(name: str):
    if name in _REGISTRY_CORES:
        from repro.backends import cortex_m

        return getattr(cortex_m, name)
    if name == "CHARACTERIZATION_ARCHS":
        # The three cores characterized in the paper's Section V tables.
        from repro.backends import characterization_archs

        return characterization_archs(isa="cortex-m")
    if name == "ArchKeyError":
        from repro.backends import ArchKeyError

        return ArchKeyError
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
