"""MCU architecture simulation substrate.

Replaces the paper's physical boards: an operation-trace pipeline model,
an analytic cache/memory model, a power/energy model, a static code
model, and a counted linear-algebra layer that stands in for Eigen.  The
pricing models are generic over the :mod:`repro.backends` registry —
per-ISA cost tables live there, not here.
"""

from repro.mcu.arch import ArchSpec, get_arch
from repro.mcu.cache import CACHE_OFF, CACHE_ON, CacheConfig, CacheModel
from repro.mcu.energy import EnergyModel, PowerReport
from repro.mcu.memory import Footprint, MemoryFitError, check_fit, require_fit
from repro.mcu.ops import OpCounter, OpTrace
from repro.mcu.pipeline import CycleBreakdown, PipelineModel
from repro.mcu.static import CODE_BLOCKS, StaticMix, compose, static_profile

__all__ = [
    "CHARACTERIZATION_ARCHS",
    "M0PLUS",
    "M33",
    "M4",
    "M7",
    "ArchSpec",
    "get_arch",
    "CACHE_OFF",
    "CACHE_ON",
    "CacheConfig",
    "CacheModel",
    "EnergyModel",
    "PowerReport",
    "Footprint",
    "MemoryFitError",
    "check_fit",
    "require_fit",
    "OpCounter",
    "OpTrace",
    "CycleBreakdown",
    "PipelineModel",
    "CODE_BLOCKS",
    "StaticMix",
    "compose",
    "static_profile",
]

#: Legacy names forwarded lazily to :mod:`repro.mcu.arch` so that
#: ``import repro.mcu`` does not force the backend registry to load.
_FORWARDED = ("CHARACTERIZATION_ARCHS", "M0PLUS", "M33", "M4", "M7")


def __getattr__(name: str):
    if name in _FORWARDED:
        from repro.mcu import arch as _arch

        return getattr(_arch, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
