"""Tests for ``repro.backends``: the multi-ISA architecture registry.

The load-bearing guarantees, in order of importance:

1. **Golden byte-identity** — extracting the Cortex-M cost tables into
   the backend registry changed *where* the constants live, not *what*
   they price.  The sweep / fault-campaign / paper-table goldens in
   ``tests/goldens/`` were generated on the pre-refactor tree; the same
   commands must reproduce them byte-for-byte forever.
2. **RISC-V determinism** — campaigns spanning both ISA families keep
   the repo's byte-identical-across-``--jobs`` contract, and Tier-B
   generation actually samples both families.
3. The registry surface itself: ordering, typed ``ArchKeyError`` with a
   nearest-match suggestion, the ``characterization_archs`` ISA filter,
   and the ``repro.api`` verbs.
4. The quantized TinyML pack prices the way the paper's deployment
   story says it should: int8 wins big on soft-float cores and loses its
   edge on an FPU core.
"""

import json
from pathlib import Path

import pytest

import repro.mcu.arch as arch_mod
from repro.backends import (
    ArchKeyError,
    arch_names,
    backend_for,
    backend_names,
    characterization_archs,
    get_arch,
    get_backend,
    list_backends,
)
from repro.core import registry
from repro.core.config import HarnessConfig
from repro.core.harness import Harness
from repro.engine import EngineOptions
from repro.mcu.cache import CACHE_ON
from repro.scenarios import ScenarioSet, ScenarioSpec, generate_scenarios, run_scenarios

GOLDENS = Path(__file__).parent / "goldens"
CONFIG = HarnessConfig(reps=1, warmup_reps=0)

#: Registration order is part of the contract: Cortex-M first (the
#: paper's boards), then the RV32 family, each in its backend's order.
ALL_ARCHS = ["m0plus", "m4", "m33", "m7", "rv32imc", "rv32imafc", "rv32ec"]


# ------------------------------------------------------------ the registry


def test_registry_orders_backends_and_cores():
    assert backend_names() == ["cortex-m", "riscv"]
    assert arch_names() == ALL_ARCHS
    for name in ALL_ARCHS:
        assert get_arch(name).name == name


def test_cortex_core_constants_resolve_to_registry_objects():
    # The legacy module constants are the registry's objects, not copies:
    # identity is what keeps pre-refactor pricing byte-identical.
    assert arch_mod.M4 is get_arch("m4")
    assert arch_mod.M0PLUS is get_arch("m0plus")
    assert arch_mod.M33 is get_arch("m33")
    assert arch_mod.M7 is get_arch("m7")


def test_characterization_set_filters_by_isa():
    default = [a.name for a in characterization_archs()]
    assert default == ["m4", "m33", "m7", "rv32imc", "rv32imafc", "rv32ec"]
    cortex = [a.name for a in characterization_archs(isa="cortex-m")]
    assert cortex == ["m4", "m33", "m7"]
    riscv = [a.name for a in characterization_archs(isa="riscv")]
    assert riscv == ["rv32imc", "rv32imafc", "rv32ec"]
    with pytest.raises(KeyError, match="unknown backend"):
        characterization_archs(isa="mips")


def test_characterization_shim_stays_pinned_to_the_paper_trio():
    # The paper-table code reads this name; new ISAs must not leak in.
    assert tuple(a.name for a in arch_mod.CHARACTERIZATION_ARCHS) == (
        "m4", "m33", "m7",
    )


def test_backend_for_resolves_derated_variants():
    base = get_arch("m33")
    derated = base.derated(name="m33+brownout:0.5", cpi_scale=2.0)
    assert backend_for(derated) is get_backend("cortex-m")
    assert backend_for("rv32imc+dvfs:0.4") is get_backend("riscv")
    assert backend_for(get_arch("rv32ec")) is get_backend("riscv")


def test_unknown_arch_raises_typed_error_with_suggestion():
    with pytest.raises(ArchKeyError) as excinfo:
        get_arch("rv32imf")
    err = excinfo.value
    assert isinstance(err, KeyError)
    assert err.requested == "rv32imf"
    assert err.suggestion == "rv32imafc"
    assert "did you mean 'rv32imafc'" in str(err)

    with pytest.raises(ArchKeyError, match="did you mean 'm4'"):
        get_arch("m44")
    # No plausible match: the error still lists what exists.
    with pytest.raises(ArchKeyError, match="available") as excinfo:
        get_arch("xtensa-lx7")
    assert excinfo.value.suggestion is None
    # The shim re-exported from the legacy module is the same class.
    assert arch_mod.ArchKeyError is ArchKeyError


def test_riscv_specs_model_the_family():
    imc, imafc, ec = (get_arch(n) for n in ("rv32imc", "rv32imafc", "rv32ec"))
    assert not imc.fpu.single and not imc.fpu.double
    assert imafc.fpu.single and not imafc.fpu.double
    assert not ec.fpu.single
    assert imc.has_hw_divide and imafc.has_hw_divide
    assert not ec.has_hw_divide  # RV32E without the M extension
    assert all(a.isa.startswith("RV32") for a in (imc, imafc, ec))
    assert ec.clock_hz < imc.clock_hz < 200e6


def test_list_backends_and_api_verbs():
    import repro.api as api

    rows = list_backends()
    assert [r["backend"] for r in rows] == ["cortex-m", "riscv"]
    assert rows[0]["archs"] == ["m0plus", "m4", "m33", "m7"]
    assert rows[1]["archs"] == ["rv32imc", "rv32imafc", "rv32ec"]
    assert all(r["description"] for r in rows)
    assert api.list_backends() == rows
    assert api.get_arch("rv32imafc") is get_arch("rv32imafc")
    with pytest.raises(ArchKeyError):
        api.get_arch("rv32imf")


def test_backends_cli_lists_and_shows(capsys):
    from repro.cli import main

    assert main(["backends", "list"]) == 0
    out = capsys.readouterr().out
    assert "cortex-m" in out and "riscv" in out
    assert "rv32imafc" in out

    assert main(["backends", "show", "rv32imafc"]) == 0
    out = capsys.readouterr().out
    assert "RV32IMAFC" in out and "riscv" in out


# -------------------------------------------- pre-refactor golden identity


def test_cortexm_sweep_matches_prerefactor_golden(tmp_path):
    from repro.cli import main

    out = tmp_path / "sweep.json"
    assert main([
        "sweep", "--kernels", "mahony,p3p",
        "--archs", "m0plus,m4,m33,m7",
        "--reps", "1", "--jobs", "1",
        "--out", str(out),
    ]) == 0
    assert out.read_bytes() == (GOLDENS / "cortexm_sweep.json").read_bytes()


def test_cortexm_faults_match_prerefactor_golden(tmp_path):
    from repro.cli import main

    out = tmp_path / "faults.json"
    assert main([
        "faults", "--fault", "brownout", "--mission", "hover",
        "--kernels", "mahony", "--severities", "0.5,1.0",
        "--seed", "3", "--jobs", "1",
        "--out", str(out),
    ]) == 0
    assert out.read_bytes() == (GOLDENS / "cortexm_faults.json").read_bytes()


def test_cross_isa_sweep_matches_committed_golden(tmp_path):
    # The CI smoke job's contract, kept runnable locally: one sweep
    # spanning both backends reproduces the committed golden (CI runs it
    # with --jobs 2; engine results are identical across jobs counts).
    from repro.cli import main

    out = tmp_path / "cross.json"
    assert main([
        "sweep", "--kernels", "mahony,p3p", "--archs", "m4,rv32imafc",
        "--reps", "1", "--jobs", "1", "--out", str(out),
    ]) == 0
    assert out.read_bytes() == (GOLDENS / "cross_isa_sweep.json").read_bytes()


def test_paper_tables_match_prerefactor_goldens():
    from repro.analysis.tables import (
        render_table3,
        render_table5,
        table3_static,
        table5_architectures,
    )

    t3 = render_table3(table3_static(["mahony", "p3p", "fastbrief"])) + "\n"
    assert t3 == (GOLDENS / "table3_static.txt").read_text()
    t5 = render_table5(table5_architectures()) + "\n"
    assert t5 == (GOLDENS / "table5_archs.txt").read_text()


# ------------------------------------------------- cross-ISA determinism


def _tiny_hover():
    return {
        "kind": "hover", "name": "h", "duration_s": 0.05,
        "control_rate_hz": 500.0,
        "gusts": [[0.01, 0.02, 0.02, 0.0, 0.01]],
    }


def _cross_isa_set() -> ScenarioSet:
    """A handmade set spanning both ISA families, fast enough for CI."""
    return ScenarioSet(
        scenarios=(
            ScenarioSpec(name="cm-hover", tier="b", arch="m4",
                         mission=_tiny_hover(), kernels=("mahony",),
                         scalar="f32", seed=11),
            ScenarioSpec(name="rv-hover", tier="b", arch="rv32imafc",
                         mission=_tiny_hover(), kernels=("mahony",),
                         scalar="f32", seed=12),
            ScenarioSpec(name="rv-soft", tier="b", arch="rv32imc",
                         mission=None, kernels=("mahony", "fly-lqr"),
                         scalar="q7.24", seed=13),
        ),
        tier="b", seed=2, generator="handmade",
    ).validated()


def _canonical(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)


def test_cross_isa_report_is_byte_identical_across_jobs():
    sset = _cross_isa_set()
    serial = run_scenarios(sset, EngineOptions(jobs=1))
    pooled = run_scenarios(sset, EngineOptions(jobs=2))
    assert _canonical(serial) == _canonical(pooled)
    assert _canonical(run_scenarios(sset)) == _canonical(serial)

    assert serial["format_version"] == 2
    isas = {r["isa"] for r in serial["kernel_grid"]}
    assert isas == {"cortex-m", "riscv"}
    by_isa = serial["pareto"]["kernel_by_isa"]
    assert set(by_isa) == {"cortex-m", "riscv"}
    assert all(front for front in by_isa.values())


def test_tier_b_generation_samples_both_isas_and_quantized_kernels():
    sset = generate_scenarios(tier="b", count=60, seed=7)
    families = {backend_for(s.arch).name for s in sset.scenarios}
    assert families == {"cortex-m", "riscv"}
    kernels = {k for s in sset.scenarios for k in s.kernels}
    assert kernels & {"proximity-net-int8", "proximity-net-int16"}
    scalars = {s.scalar for s in sset.scenarios}
    assert scalars & {"q7.24", "q15.16"}
    # Content addressing survives the new pools: same (tier, count, seed)
    # is the same set, byte for byte.
    again = generate_scenarios(tier="b", count=60, seed=7)
    assert again.to_json() == sset.to_json()
    assert again.address == sset.address


# ------------------------------------------------ quantized TinyML pack


def test_quantized_problems_register_and_validate():
    # int8 fits and validates on the 64 KB-SRAM E31-class core; the
    # int16 activation buffers need a paper-class board (m33).
    for name, bits, arch in (
        ("proximity-net-int8", 8, "rv32imc"),
        ("proximity-net-int16", 16, "m33"),
    ):
        assert name in registry.names()
        problem = registry.create(name)
        assert problem.bits == bits
        result = Harness(get_arch(arch), CONFIG).run(problem, CACHE_ON)
        assert result.all_valid
        assert result.unit_latency_us > 0


def test_int16_activations_overflow_the_small_core():
    result = Harness(get_arch("rv32imc"), CONFIG).run(
        registry.create("proximity-net-int16"), CACHE_ON
    )
    assert not result.fits
    assert "SRAM" in result.skip_reason


def test_int8_wins_on_softfloat_cores_not_on_fpu_cores():
    def _latency(arch_name: str, kernel: str) -> float:
        result = Harness(get_arch(arch_name), CONFIG).run(
            registry.create(kernel), CACHE_ON
        )
        return result.unit_latency_us

    rv_float = _latency("rv32imc", "proximity-net")
    rv_int8 = _latency("rv32imc", "proximity-net-int8")
    m4_float = _latency("m4", "proximity-net")
    m4_int8 = _latency("m4", "proximity-net-int8")

    # On the soft-float E31-class core, int8 is a large win.
    assert rv_int8 < rv_float / 2
    # On the FPU core the requantize tax eats the advantage: the speedup
    # ratio is far smaller than on the soft-float core (the paper's
    # quantize-for-the-small-cores deployment story).
    assert (rv_float / rv_int8) > 2 * (m4_float / m4_int8)


def test_quantized_footprint_tracks_activation_width():
    int8 = registry.create("proximity-net-int8").footprint()
    int16 = registry.create("proximity-net-int16").footprint()
    flt = registry.create("proximity-net").footprint()
    # Weights stay int8-packed on both paths (and the float problem
    # already models int8 deployment); only the activations widen.
    assert int8.flash_bytes == int16.flash_bytes == flt.flash_bytes
    assert int8.sram_bytes <= flt.sram_bytes
    assert int8.sram_bytes < int16.sram_bytes < 2 * int8.sram_bytes
