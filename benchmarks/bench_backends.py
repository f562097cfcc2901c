"""Cross-ISA pricing benches for the backend registry.

Not a paper table — this quantifies what the multi-ISA registry buys:
the same op trace priced on every characterization core of every
backend, and the quantized-vs-float cost of the TinyML kernel per ISA
family (the deployment story: int8 is a large win on soft-float cores
and roughly a wash on an FPU core).

The deterministic pricing rows are the record ``benchmarks/run.py``
writes to ``benchmarks/BENCH_backends.json``, and
``tests/test_bench_records.py`` checks the committed rows against a
fresh pricing — a pricing drift on any backend fails tier-1 before it
reaches a paper table.  Both modes price the same grid.
"""

import json
from dataclasses import asdict

from repro.backends import characterization_archs, get_arch, list_backends
from repro.core import registry
from repro.core.config import HarnessConfig
from repro.core.harness import Harness
from repro.mcu.cache import CACHE_ON

CONFIG = HarnessConfig(reps=1, warmup_reps=0)

#: Float reference kernel priced on every characterization core.
REFERENCE_KERNEL = "mahony"
#: (float kernel, quantized kernel) pairs priced per-core for the ratio.
QUANT_PAIR = ("proximity-net", "proximity-net-int8")
#: Cores for the quantized comparison: one soft-float and one FPU core
#: per backend.
QUANT_CORES = ("m0plus", "m4", "rv32imc", "rv32imafc")


def _run(kernel: str, arch_name: str):
    problem = registry.create(kernel)
    return Harness(get_arch(arch_name), CONFIG).run(problem, CACHE_ON)


def inputs(quick: bool) -> dict:
    """The cores, config and kernels the bench prices (same in both modes)."""
    return {
        "cores": [arch.name for arch in characterization_archs()],
        "config": asdict(CONFIG),
        "reference_kernel": REFERENCE_KERNEL,
        "quantized_pair": list(QUANT_PAIR),
        "quantized_cores": list(QUANT_CORES),
    }


def record(quick: bool) -> dict:
    """Price the cross-ISA grid; raise unless the int8 story holds."""
    per_core = {}
    for arch in characterization_archs():
        result = _run(REFERENCE_KERNEL, arch.name)
        per_core[arch.name] = {
            "isa": arch.isa,
            "unit_cycles": round(result.unit_cycles, 3),
            "unit_latency_us": round(result.unit_latency_us, 3),
            "unit_energy_uj": round(result.unit_energy_uj, 3),
        }
    quantized = {}
    for core in QUANT_CORES:
        flt = _run(QUANT_PAIR[0], core)
        q8 = _run(QUANT_PAIR[1], core)
        if not (flt.fits and q8.fits):
            # The CNN's activation buffers overflow the core's SRAM
            # entirely (the M0+'s 20 KB); record the fact, not a NaN.
            quantized[core] = {"fits": False}
            continue
        quantized[core] = {
            "float_unit_latency_us": round(flt.unit_latency_us, 3),
            "int8_unit_latency_us": round(q8.unit_latency_us, 3),
            "int8_speedup": round(flt.unit_latency_us / q8.unit_latency_us, 3),
        }
    # The deployment story: int8 is a big win on the soft-float core and
    # no such win on the FPU cores; the M0+ cannot hold the CNN at all.
    if quantized["m0plus"] != {"fits": False}:
        raise AssertionError(f"the CNN fits m0plus: {quantized}")
    if not quantized["rv32imc"]["int8_speedup"] > 2.0:
        raise AssertionError(f"int8 speedup <= 2 on rv32imc: {quantized}")
    for core in ("m4", "rv32imafc"):
        if not quantized[core]["int8_speedup"] < 1.5:
            raise AssertionError(f"int8 speedup >= 1.5 on {core}: {quantized}")
    return {
        "backends": list_backends(),
        "reference_kernel": REFERENCE_KERNEL,
        "per_core": per_core,
        "quantized": {"pair": list(QUANT_PAIR), "per_core": quantized},
    }


def test_bench_backends_pricing(benchmark, save_artifact):
    """Price the cross-ISA grid under the timer, gates applied."""
    body = benchmark(record, quick=True)
    save_artifact("bench_backends", json.dumps(body, indent=2, sort_keys=True))
