"""Core framework: problems, harness, registry, experiments."""

from repro.core.config import DEFAULT_CONFIG, HarnessConfig
from repro.core.experiment import (
    ResultKeyError,
    SweepResults,
    SweepSpec,
    run_sweep_serial,
)
from repro.core.harness import Harness
from repro.core.problem import EntoProblem
from repro.core.results import BenchmarkResult, RunRecord, si_format
from repro.scalar import F32, F64, ScalarType, parse_scalar, q

__all__ = [
    "DEFAULT_CONFIG",
    "HarnessConfig",
    "ResultKeyError",
    "SweepResults",
    "SweepSpec",
    "run_sweep_serial",
    "Harness",
    "EntoProblem",
    "BenchmarkResult",
    "RunRecord",
    "si_format",
    "F32",
    "F64",
    "ScalarType",
    "parse_scalar",
    "q",
]
