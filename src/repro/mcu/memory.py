"""Memory-footprint modeling and fit checking.

Insect-scale kernels must live entirely in on-chip flash and SRAM — there
is no external memory.  Each kernel reports a flash footprint (via the
static code model) and a data working set (buffers + stack).  This module
checks those against a core's budget, which is how the framework reproduces
the paper's observation that SIFT "barely fits the M7" and cannot run on
the M4 or M33 at all.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mcu.arch import ArchSpec


class MemoryFitError(RuntimeError):
    """Raised when a kernel's footprint exceeds a core's on-chip memory."""


@dataclass(frozen=True)
class Footprint:
    """A kernel's memory demand, in bytes."""

    flash_bytes: int
    data_bytes: int
    stack_bytes: int = 2048

    @property
    def sram_bytes(self) -> int:
        return self.data_bytes + self.stack_bytes


@dataclass(frozen=True)
class FitReport:
    """Result of checking a footprint against a core."""

    arch: str
    fits: bool
    flash_used: int
    flash_available: int
    sram_used: int
    sram_available: int

    @property
    def flash_utilization(self) -> float:
        return self.flash_used / self.flash_available

    @property
    def sram_utilization(self) -> float:
        return self.sram_used / self.sram_available


# Fixed overhead every bare-metal image carries: vector table, startup
# code, clock/HAL init, the harness itself, and libc fragments.
RUNTIME_FLASH_OVERHEAD = 9 * 1024
RUNTIME_SRAM_OVERHEAD = 4 * 1024


def check_fit(footprint: Footprint, arch: ArchSpec) -> FitReport:
    """Check whether a kernel fits a core's on-chip memory."""
    flash_used = footprint.flash_bytes + RUNTIME_FLASH_OVERHEAD
    sram_used = footprint.sram_bytes + RUNTIME_SRAM_OVERHEAD
    fits = (
        flash_used <= arch.memory.flash_bytes
        and sram_used <= arch.memory.sram_bytes
    )
    return FitReport(
        arch=arch.name,
        fits=fits,
        flash_used=flash_used,
        flash_available=arch.memory.flash_bytes,
        sram_used=sram_used,
        sram_available=arch.memory.sram_bytes,
    )


def require_fit(footprint: Footprint, arch: ArchSpec, kernel_name: str = "kernel") -> FitReport:
    """Like :func:`check_fit` but raises :class:`MemoryFitError` on failure."""
    report = check_fit(footprint, arch)
    if not report.fits:
        raise MemoryFitError(
            f"{kernel_name} does not fit {arch.name}: needs "
            f"{report.flash_used} B flash / {report.sram_used} B SRAM, "
            f"core offers {report.flash_available} B / {report.sram_available} B"
        )
    return report


def image_buffer_bytes(height: int, width: int, bytes_per_px: int = 1, copies: int = 1) -> int:
    """SRAM needed for image buffers (the dominant perception footprint)."""
    return height * width * bytes_per_px * copies
