"""Scalar-type parameterization.

EntoBench kernels are C++ templates over the scalar type (``float``,
``double``, or a Q-format fixed point).  Here a :class:`ScalarType` plays
the template parameter's role: kernels compute with the matching NumPy
dtype (or the fixed-point simulator) and the pipeline model prices float
operations according to the precision and the target core's FPU.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class ScalarType:
    """A kernel scalar type: ``f32``, ``f64``, or ``qM.N`` fixed point.

    For fixed point, ``q_int`` is the number of integer bits (excluding the
    sign bit) and ``q_frac`` the number of fractional bits; the underlying
    container is a 32-bit word, so ``q_int + q_frac`` must be 31.
    """

    kind: str  # "f32" | "f64" | "fixed"
    q_int: Optional[int] = None
    q_frac: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in ("f32", "f64", "fixed"):
            raise ValueError(f"unknown scalar kind {self.kind!r}")
        if self.kind == "fixed":
            if self.q_int is None or self.q_frac is None:
                raise ValueError("fixed-point scalar requires q_int and q_frac")
            if self.q_int + self.q_frac != 31:
                raise ValueError(
                    f"q{self.q_int}.{self.q_frac}: integer + fractional bits must "
                    "total 31 for a signed 32-bit container"
                )

    @property
    def is_fixed(self) -> bool:
        return self.kind == "fixed"

    @property
    def dtype(self) -> np.dtype:
        """NumPy dtype used for the real computation.

        Fixed-point kernels compute through :mod:`repro.fixedpoint`, which
        stores raw words in int64; the float64 dtype here is only the type
        used when converting back for validation.
        """
        if self.kind == "f32":
            return np.dtype(np.float32)
        return np.dtype(np.float64)

    @property
    def name(self) -> str:
        if self.kind == "fixed":
            return f"q{self.q_int}.{self.q_frac}"
        return self.kind

    def __str__(self) -> str:
        return self.name


F32 = ScalarType("f32")
F64 = ScalarType("f64")

_Q_RE = re.compile(r"^q(\d+)\.(\d+)$")


def q(int_bits: int, frac_bits: int) -> ScalarType:
    """Construct a Q-format fixed-point scalar type, e.g. ``q(7, 24)``."""
    return ScalarType("fixed", q_int=int_bits, q_frac=frac_bits)


def parse_scalar(spec) -> ScalarType:
    """Parse ``'f32'``, ``'f64'``, ``'q7.24'``, or pass through a ScalarType."""
    if isinstance(spec, ScalarType):
        return spec
    s = str(spec).lower()
    if s == "f32" or s == "float":
        return F32
    if s == "f64" or s == "double":
        return F64
    m = _Q_RE.match(s)
    if m:
        return q(int(m.group(1)), int(m.group(2)))
    raise ValueError(f"cannot parse scalar type {spec!r}")
