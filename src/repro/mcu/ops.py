"""Dynamic operation traces.

The currency of the whole framework: every kernel, while computing its real
result with NumPy, records the operations an equivalent bare-metal C++
implementation would execute.  The per-architecture pipeline model in
:mod:`repro.mcu.pipeline` then converts a trace into cycles, and the energy
model converts cycles into latency, energy, and peak power.

Operation categories mirror the paper's static instruction-mix breakdown
(Float / Integer / Memory / Branch) but are kept finer-grained dynamically so
the pipeline model can price divides, square roots, and transcendental calls
differently from adds and multiplies.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


# Fine-grained dynamic operation kinds, grouped into the paper's F/I/M/B
# categories for reporting.
FLOAT_KINDS = ("fadd", "fmul", "fdiv", "fsqrt", "ffma", "fcmp", "fcvt", "ffunc")
INT_KINDS = ("ialu", "imul", "idiv", "icmp", "simd")
MEM_KINDS = ("load", "store")
BRANCH_KINDS = ("br_taken", "br_not", "call")
ALL_KINDS = FLOAT_KINDS + INT_KINDS + MEM_KINDS + BRANCH_KINDS


@dataclass
class OpTrace:
    """A tally of dynamically executed operations, by kind.

    Traces support addition, scaling, and category summaries.  They are
    plain data: they carry no notion of precision or architecture.  The same
    trace priced for a Cortex-M0+ (soft float) and a Cortex-M7 (superscalar,
    hardware FPU) yields very different cycle counts.
    """

    fadd: int = 0
    fmul: int = 0
    fdiv: int = 0
    fsqrt: int = 0
    ffma: int = 0
    fcmp: int = 0
    fcvt: int = 0
    ffunc: int = 0  # transcendental library calls (sin, cos, atan2, exp...)
    ialu: int = 0
    imul: int = 0
    idiv: int = 0
    icmp: int = 0
    simd: int = 0  # packed DSP ops (e.g. USADA8 4-lane SAD)
    load: int = 0
    store: int = 0
    br_taken: int = 0
    br_not: int = 0
    call: int = 0

    def __add__(self, other: "OpTrace") -> "OpTrace":
        return OpTrace(
            **{f.name: getattr(self, f.name) + getattr(other, f.name) for f in fields(self)}
        )

    def __iadd__(self, other: "OpTrace") -> "OpTrace":
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self

    def scaled(self, factor: float) -> "OpTrace":
        """Return a copy with every count multiplied by ``factor``."""
        return OpTrace(
            **{f.name: int(round(getattr(self, f.name) * factor)) for f in fields(self)}
        )

    def copy(self) -> "OpTrace":
        return OpTrace(**{f.name: getattr(self, f.name) for f in fields(self)})

    # -- category summaries (paper's F/I/M/B breakdown) ------------------

    @property
    def n_float(self) -> int:
        return sum(getattr(self, k) for k in FLOAT_KINDS)

    @property
    def n_int(self) -> int:
        return sum(getattr(self, k) for k in INT_KINDS)

    @property
    def n_mem(self) -> int:
        return sum(getattr(self, k) for k in MEM_KINDS)

    @property
    def n_branch(self) -> int:
        return sum(getattr(self, k) for k in BRANCH_KINDS)

    @property
    def total(self) -> int:
        return self.n_float + self.n_int + self.n_mem + self.n_branch

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def mix(self) -> dict:
        """F/I/M/B category counts, as in the paper's Table III."""
        return {
            "F": self.n_float,
            "I": self.n_int,
            "M": self.n_mem,
            "B": self.n_branch,
        }


@dataclass
class OpCounter:
    """Mutable recorder that kernels write operations into.

    Besides raw per-kind increments, the counter offers *recipes* for common
    small-vector routines (dot products, cross products, quaternion algebra,
    small dense matrix kernels) so kernel code stays readable: the kernel
    does the real math with NumPy and records the equivalent bare-metal cost
    with one call.

    Recipes include the memory traffic and loop overhead a compiled scalar
    implementation would incur, which is exactly the overhead static FLOP
    counting misses (the paper's Case Study 3).
    """

    trace: OpTrace = field(default_factory=OpTrace)

    # -- raw increments ----------------------------------------------------

    def fadd(self, n: int = 1) -> None:
        self.trace.fadd += n

    def fmul(self, n: int = 1) -> None:
        self.trace.fmul += n

    def fdiv(self, n: int = 1) -> None:
        self.trace.fdiv += n

    def fsqrt(self, n: int = 1) -> None:
        self.trace.fsqrt += n

    def ffma(self, n: int = 1) -> None:
        self.trace.ffma += n

    def fcmp(self, n: int = 1) -> None:
        self.trace.fcmp += n

    def fcvt(self, n: int = 1) -> None:
        self.trace.fcvt += n

    def ffunc(self, n: int = 1) -> None:
        self.trace.ffunc += n

    def ialu(self, n: int = 1) -> None:
        self.trace.ialu += n

    def imul(self, n: int = 1) -> None:
        self.trace.imul += n

    def idiv(self, n: int = 1) -> None:
        self.trace.idiv += n

    def icmp(self, n: int = 1) -> None:
        self.trace.icmp += n

    def simd(self, n: int = 1) -> None:
        self.trace.simd += n

    def load(self, n: int = 1) -> None:
        self.trace.load += n

    def store(self, n: int = 1) -> None:
        self.trace.store += n

    def branch(self, n: int = 1, taken: bool = True) -> None:
        if taken:
            self.trace.br_taken += n
        else:
            self.trace.br_not += n

    def call(self, n: int = 1) -> None:
        self.trace.call += n

    def absorb(self, other: OpTrace) -> None:
        """Merge another trace into this counter."""
        self.trace += other

    # -- recipes -----------------------------------------------------------

    def flop_mix(self, add: int = 0, mul: int = 0, div: int = 0, sqrt: int = 0,
                 func: int = 0) -> None:
        """Record a batch of float arithmetic with matching memory traffic.

        Each arithmetic op is charged one operand load on average (the other
        operand typically lives in a register) and every fourth op a store,
        approximating compiled scalar code for straight-line math.
        """
        n = add + mul + div + sqrt + func
        self.trace.fadd += add
        self.trace.fmul += mul
        self.trace.fdiv += div
        self.trace.fsqrt += sqrt
        self.trace.ffunc += func
        self.trace.load += n
        self.trace.store += n // 4

    def vec_dot(self, n: int) -> None:
        """Dot product of two length-``n`` vectors."""
        self.trace.ffma += n
        self.trace.load += 2 * n
        self.trace.ialu += n  # index updates
        self.trace.icmp += n
        self.trace.br_taken += n - 1 if n > 1 else 0
        self.trace.br_not += 1

    def vec_axpy(self, n: int) -> None:
        """y += a * x for length-``n`` vectors."""
        self.trace.ffma += n
        self.trace.load += 2 * n
        self.trace.store += n
        self.trace.ialu += n
        self.trace.icmp += n
        self.trace.br_taken += n - 1 if n > 1 else 0
        self.trace.br_not += 1

    def vec_scale(self, n: int) -> None:
        self.trace.fmul += n
        self.trace.load += n
        self.trace.store += n
        self.trace.ialu += n

    def vec_add(self, n: int) -> None:
        self.trace.fadd += n
        self.trace.load += 2 * n
        self.trace.store += n
        self.trace.ialu += n

    def vec_cross(self) -> None:
        """3-vector cross product."""
        self.trace.fmul += 6
        self.trace.fadd += 3
        self.trace.load += 12
        self.trace.store += 3

    def vec_norm(self, n: int) -> None:
        """Euclidean norm of a length-``n`` vector."""
        self.vec_dot(n)
        self.trace.fsqrt += 1

    def vec_normalize(self, n: int) -> None:
        self.vec_norm(n)
        self.trace.fdiv += 1
        self.vec_scale(n)

    def quat_mul(self) -> None:
        """Hamilton product of two quaternions."""
        self.trace.fmul += 16
        self.trace.fadd += 12
        self.trace.load += 8
        self.trace.store += 4

    def mat_vec(self, m: int, n: int) -> None:
        """Dense (m x n) matrix times length-n vector."""
        self.trace.ffma += m * n
        self.trace.load += 2 * m * n
        self.trace.store += m
        self.trace.ialu += m * n + m
        self.trace.icmp += m * n // 4 + m
        self.trace.br_taken += m
        self.trace.br_not += m

    def mat_mat(self, m: int, k: int, n: int) -> None:
        """Dense (m x k) @ (k x n) matrix product."""
        self.trace.ffma += m * k * n
        self.trace.load += 2 * m * k * n
        self.trace.store += m * n
        self.trace.ialu += m * k * n + m * n
        self.trace.icmp += m * n
        self.trace.br_taken += m * n
        self.trace.br_not += m * n

    def mat_add(self, m: int, n: int) -> None:
        self.vec_add(m * n)

    def mat_transpose(self, m: int, n: int) -> None:
        self.trace.load += m * n
        self.trace.store += m * n
        self.trace.ialu += 2 * m * n

    def loop_overhead(self, iters: int) -> None:
        """Bare loop bookkeeping (counter update, compare, backward branch)."""
        self.trace.ialu += iters
        self.trace.icmp += iters
        self.trace.br_taken += max(iters - 1, 0)
        self.trace.br_not += 1 if iters > 0 else 0

    # -- introspection -----------------------------------------------------

    def snapshot(self) -> OpTrace:
        return self.trace.copy()

    def reset(self) -> None:
        self.trace = OpTrace()


def delta(before: OpTrace, after: OpTrace) -> OpTrace:
    """Trace of operations recorded between two snapshots."""
    return OpTrace(
        **{f.name: getattr(after, f.name) - getattr(before, f.name) for f in fields(before)}
    )
