"""Op-trace → cycle-count model, generic over ISA backends.

The model prices each dynamic operation with a per-architecture CPI table,
then adds instruction-fetch and data-memory stall cycles from the cache
model.  Precision matters: cores without the matching hardware FPU fall
back to software emulation costs (the M0+ soft-float cliff of Case Study 2,
the double-precision penalty of Case Study 4), and fixed-point arithmetic
pays the multiply-then-shift-back tax the paper notes for M4/M33.

Every cost constant lives in the core's :class:`~repro.backends.ArchBackend`
(``repro.backends.cortex_m`` for the paper's boards,
``repro.backends.riscv`` for the RV32 family); this module only owns the
arithmetic that combines them, so adding an ISA never touches it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.scalar import ScalarType
from repro.mcu.arch import ArchSpec
from repro.mcu.cache import CacheModel, CacheConfig
from repro.mcu.ops import OpTrace


@dataclass(frozen=True)
class CycleBreakdown:
    """Cycle count with its major components, for diagnostics."""

    compute_cycles: float
    ifetch_stall_cycles: float
    dmem_stall_cycles: float

    @property
    def total(self) -> float:
        return self.compute_cycles + self.ifetch_stall_cycles + self.dmem_stall_cycles


class PipelineModel:
    """Prices an :class:`OpTrace` in cycles on a given core."""

    def __init__(self, arch: ArchSpec):
        self.arch = arch

    def compute_cycles(self, trace: OpTrace, scalar: ScalarType) -> float:
        """Core execution cycles, before memory-system stalls.

        This is the serial half of a byte-identity contract: the
        columnar pricer in :mod:`repro.vecprice` replicates this exact
        accumulation *order* (float kinds sequentially, then the
        int/mem/branch sums divided by the overlap factor, then the
        ``cpi_scale`` derating) so batched results are bit-identical.
        Reordering any term here is fine for accuracy but must be
        mirrored there — ``tests/test_vecprice.py`` pins the pair.
        """
        from repro.backends import backend_for

        a = self.arch
        backend = backend_for(a)
        f = backend.float_cpi(a, scalar)
        cycles = 0.0
        cycles += trace.fadd * f["fadd"]
        cycles += trace.fmul * f["fmul"]
        cycles += trace.fdiv * f["fdiv"]
        cycles += trace.fsqrt * f["fsqrt"]
        cycles += trace.ffma * f["ffma"]
        cycles += trace.fcmp * f["fcmp"]
        cycles += trace.fcvt * f["fcvt"]
        cycles += trace.ffunc * f["ffunc"]

        c = backend.int_costs(a)
        int_cycles = (
            trace.ialu * c.ialu
            + trace.imul * c.imul
            + trace.idiv * c.idiv
            + trace.icmp * c.icmp
            + trace.simd * c.simd
        )
        mem_cycles = trace.load * c.load + trace.store * c.store

        b = backend.branch_costs(a)
        branch_cycles = (
            trace.br_taken * b.taken + trace.br_not * b.refill + trace.call * c.call
        )

        # Dual-issue cores overlap independent int/mem/branch work.
        overlap = a.superscalar_ipc
        cycles += (int_cycles + mem_cycles + branch_cycles) / overlap
        # Adverse operating points (fault injection: contention storms,
        # sag-induced wait states) inflate effective CPI uniformly.  The
        # guard keeps the nominal path bit-identical.
        if a.cpi_scale != 1.0:
            cycles *= a.cpi_scale
        return cycles

    def cycles(
        self,
        trace: OpTrace,
        scalar: ScalarType,
        cache_config: CacheConfig,
        code_bytes: int,
        data_bytes: int,
    ) -> CycleBreakdown:
        """Total cycles including cache/flash/SRAM stalls.

        ``code_bytes`` is the kernel's flash footprint (drives instruction
        fetch behaviour), ``data_bytes`` its working set (drives data-side
        behaviour).
        """
        compute = self.compute_cycles(trace, scalar)
        cache = CacheModel(self.arch, cache_config)
        # Rough dynamic instruction count for fetch modeling: every priced
        # op corresponds to roughly one instruction.
        n_instr = max(trace.total, 1)
        ifetch = cache.ifetch_stalls(n_instr, code_bytes)
        dmem = cache.dmem_stalls(trace.load + trace.store, data_bytes)
        return CycleBreakdown(compute, ifetch, dmem)

    def latency_s(self, breakdown: CycleBreakdown) -> float:
        return breakdown.total / self.arch.clock_hz
