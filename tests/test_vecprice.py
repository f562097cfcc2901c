"""Tests for ``repro.vecprice``: the columnar batch pricing path.

The one guarantee everything else hangs off is **byte-identity**: for
any (profile, arch, cache) cell, ``price_batch`` must produce results
indistinguishable from the serial ``engine.price_profile`` reference —
same floats bit for bit, same traces, same skip results — across every
registered backend, scalar type, cache state, and fault-derated
variant.  The remaining tests cover the lowering layer (trace matrices,
``ArchTables``), the facade verb's argument normalization, and the
engine's batch-priced sweep against the serial reference.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.backends import arch_names, backend_for, get_arch
from repro.engine import EngineOptions, TraceCache, run_sweep_engine
from repro.engine.profile import price_profile, solve_profile
from repro.mcu.cache import CACHE_OFF, CACHE_ON
from repro.mcu.ops import ALL_KINDS, OpTrace
from repro.scalar import parse_scalar
from repro.vecprice import (
    lower_profile,
    price_batch,
    pricing_tables,
    trace_matrix,
)

#: Kernels spanning the pricing-relevant axes: float-heavy (mahony),
#: branch/int-heavy (p3p), memory-heavy with misfits on small cores
#: (fastbrief), and the quantized TinyML path (proximity-net-int8).
KERNELS = ["mahony", "p3p", "fastbrief", "proximity-net-int8"]

#: Every registered core, plus a fault-derated variant whose cpi_scale /
#: clock / power figures must flow through the vectorized tables.
def _all_archs():
    archs = [get_arch(name) for name in arch_names()]
    archs.append(get_arch("m33").derated(name="m33+brownout:0.5", cpi_scale=2.0))
    archs.append(get_arch("rv32imc").derated(
        name="rv32imc+dvfs:0.4", clock_scale=0.4,
    ))
    return archs


@pytest.fixture(scope="module")
def profiles():
    """One solved profile per test kernel (solved once for the module)."""
    return {k: solve_profile(k, {}, 2, 0) for k in KERNELS}


def _as_jsonable(result):
    """A fully serialized form: catches numpy scalars leaking into results."""
    return json.dumps(dataclasses.asdict(result), sort_keys=True)


# ------------------------------------------------------- byte-identity


def test_batch_is_byte_identical_across_backends_scalars_and_caches(profiles):
    # The whole grid in ONE batch call: every kernel x core x cache
    # state, both ISAs, quantized and float scalars, derated variants.
    items = [
        (profile, arch, cache)
        for profile in profiles.values()
        for arch in _all_archs()
        for cache in (CACHE_ON, CACHE_OFF)
    ]
    serial = [price_profile(p, a, c) for p, a, c in items]
    batched = price_batch(items)
    assert len(batched) == len(serial)
    for s, b in zip(serial, batched):
        assert _as_jsonable(s) == _as_jsonable(b)
        assert s.runs == b.runs  # RunRecord equality incl. traces


@pytest.mark.parametrize("arch_name", ["m0plus", "rv32ec"])
def test_misfit_cells_produce_identical_skip_results(profiles, arch_name):
    profile = profiles["fastbrief"]
    arch = get_arch(arch_name)
    serial = price_profile(profile, arch, CACHE_ON)
    assert not serial.fits  # fixture sanity: this pair must misfit
    (batched,) = price_batch([(profile, arch, CACHE_ON)])
    assert _as_jsonable(serial) == _as_jsonable(batched)
    assert batched.skip_reason == serial.skip_reason


def test_mixed_fit_and_misfit_batch_preserves_item_order(profiles):
    items = [
        (profiles["fastbrief"], get_arch("m0plus"), CACHE_ON),   # misfit
        (profiles["mahony"], get_arch("m4"), CACHE_OFF),
        (profiles["fastbrief"], get_arch("rv32ec"), CACHE_OFF),  # misfit
        (profiles["mahony"], get_arch("m4"), CACHE_ON),
    ]
    batched = price_batch(items)
    assert [r.fits for r in batched] == [False, True, False, True]
    for (p, a, c), b in zip(items, batched):
        assert _as_jsonable(price_profile(p, a, c)) == _as_jsonable(b)


def test_derated_arch_prices_through_its_own_tables(profiles):
    base = get_arch("m33")
    derated = base.derated(name="m33+brownout:0.5", cpi_scale=2.0)
    (nominal,) = price_batch([(profiles["mahony"], base, CACHE_ON)])
    (slow,) = price_batch([(profiles["mahony"], derated, CACHE_ON)])
    assert slow.runs[0].cycles > nominal.runs[0].cycles
    assert _as_jsonable(slow) == _as_jsonable(
        price_profile(profiles["mahony"], derated, CACHE_ON)
    )


def test_results_contain_no_numpy_scalars(profiles):
    (result,) = price_batch([(profiles["proximity-net-int8"], get_arch("m4"), CACHE_ON)])
    run = result.runs[0]
    assert type(run.cycles) is float and type(run.latency_s) is float
    assert type(run.energy_j) is float and type(run.avg_power_w) is float
    assert all(type(getattr(run.trace, k)) is int for k in ALL_KINDS)


def test_fast_records_stay_frozen(profiles):
    (result,) = price_batch([(profiles["mahony"], get_arch("m4"), CACHE_ON)])
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.runs[0].cycles = 0.0


# ---------------------------------------------------------- lowering


def test_trace_matrix_columns_follow_all_kinds_order(profiles):
    traces = [t for t, _ in profiles["p3p"].measured]
    matrix = trace_matrix(traces)
    assert matrix.shape == (len(traces), len(ALL_KINDS))
    assert matrix.dtype == np.int64
    for row, trace in zip(matrix, traces):
        assert [int(v) for v in row] == [getattr(trace, k) for k in ALL_KINDS]
    # Positional reconstruction (what batch assembly relies on).
    assert [OpTrace(*r) for r in matrix.tolist()] == traces


def test_lower_profile_category_sums_are_exact(profiles):
    profile = profiles["mahony"]
    pm = lower_profile(profile)
    for i, (trace, valid) in enumerate(profile.measured):
        assert int(pm.totals[i]) == trace.total
        assert int(pm.n_float[i]) == trace.n_float
        assert int(pm.n_mem[i]) == trace.n_mem
        assert pm.valids[i] == valid


def test_pricing_tables_memoizes_and_matches_backend_tables():
    import repro.vecprice as vp

    vp.clear_caches()
    arch = get_arch("rv32imafc")
    scalar = parse_scalar("f32")
    tables = pricing_tables(arch, scalar)
    assert pricing_tables(arch, scalar) is tables  # memo hit
    backend = backend_for(arch)
    f = backend.float_cpi(arch, scalar)
    c = backend.int_costs(arch)
    b = backend.branch_costs(arch)
    expected = [float(f[k]) for k in ALL_KINDS[:8]]
    expected += [c.ialu, c.imul, c.idiv, c.icmp, c.simd, c.load, c.store]
    expected += [b.taken, b.refill, c.call]
    assert tables.cpi.tolist() == [float(v) for v in expected]
    assert tables.cpi_scale == arch.cpi_scale
    assert tables.clock_hz == arch.clock_hz
    vp.clear_caches()
    assert pricing_tables(arch, scalar) is not tables


# --------------------------------------------------- facade + wiring


def test_api_price_batch_normalizes_names_labels_and_flags(profiles):
    import repro.api as api

    profile = profiles["mahony"]
    reference = price_profile(profile, get_arch("rv32imafc"), CACHE_OFF)
    for arch in ("rv32imafc", get_arch("rv32imafc")):
        for cache in ("NC", CACHE_OFF, False):
            for vectorize in (True, False):
                (got,) = api.price_batch(
                    [(profile, arch, cache)], vectorize=vectorize
                )
                assert _as_jsonable(got) == _as_jsonable(reference)
    with pytest.raises(ValueError, match="cache label"):
        api.price_batch([(profile, "m4", "CC")])
    with pytest.raises(KeyError):
        api.price_batch([(profile, "m44", "C")])


def test_trace_cache_profiles_snapshot_feeds_price_batch(profiles):
    import repro.api as api
    from repro.core.experiment import SweepSpec

    cache = TraceCache()
    run_sweep_engine(
        SweepSpec(kernels=["mahony"], archs=[get_arch("m4")]),
        options=EngineOptions(trace_cache=cache),
    )
    snapshot = cache.profiles()
    assert len(snapshot) == 1
    (profile,) = snapshot.values()
    (result,) = api.price_batch([(profile, "m7", "C")])
    assert _as_jsonable(result) == _as_jsonable(
        price_profile(profile, get_arch("m7"), CACHE_ON)
    )
    # The snapshot is a copy: mutating it never corrupts the cache.
    snapshot.clear()
    assert len(cache.profiles()) == 1


def test_engine_sweep_cells_equal_price_profile_of_cached_profiles():
    """Every cell the engine prices (misfits included) is exactly what
    the serial reference makes of its job's cached profile."""
    from repro.core.experiment import SweepSpec

    archs = [get_arch(n) for n in ("m0plus", "m4", "rv32imafc")]
    cache = TraceCache()
    swept = run_sweep_engine(
        SweepSpec(kernels=["mahony", "fastbrief"], archs=archs,
                  caches=(CACHE_ON, CACHE_OFF)),
        options=EngineOptions(trace_cache=cache),
    )
    profile_of = {p.kernel: p for p in cache.profiles().values()}
    arch_of = {arch.name: arch for arch in archs}
    cache_of = {c.label: c for c in (CACHE_ON, CACHE_OFF)}
    assert len(swept.results) == 2 * 3 * 2
    assert any(not r.fits for r in swept.results)
    for result in swept.results:
        reference = price_profile(profile_of[result.kernel],
                                  arch_of[result.arch], cache_of[result.cache])
        assert _as_jsonable(result) == _as_jsonable(reference)
