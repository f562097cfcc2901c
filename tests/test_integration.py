"""Integration tests: end-to-end characterization invariants.

These run a reduced version of the paper's workload characterization and
assert the *relationships* the paper reports, across subsystems.
"""

import numpy as np
import pytest

from repro.core import registry
from repro.core.config import HarnessConfig
from repro import api
from repro.api import SweepSpec
from repro.core.harness import Harness
from repro.mcu.arch import CHARACTERIZATION_ARCHS, M4, M7
from repro.mcu.cache import CACHE_OFF, CACHE_ON

FAST = HarnessConfig(reps=1, warmup_reps=0)

# One representative kernel per pipeline stage, kept small.
REPRESENTATIVES = ["iiof", "mahony", "p3p", "u3pt", "fly-lqr"]


@pytest.fixture(scope="module")
def sweep():
    spec = SweepSpec(
        kernels=REPRESENTATIVES,
        archs=list(CHARACTERIZATION_ARCHS),
        config=FAST,
        overrides={"mahony": {"n_samples": 80}, "fly-lqr": {"n_steps": 80}},
    )
    return api.sweep(spec)


class TestCharacterizationInvariants:
    def test_everything_valid(self, sweep):
        for r in sweep.results:
            assert r.fits, f"{r.kernel} should fit all three cores"
            assert r.all_valid, f"{r.kernel} on {r.arch}/{r.cache} failed validation"

    def test_m33_wins_energy_everywhere(self, sweep):
        """The paper's process-node headline, across all stages."""
        for kernel in REPRESENTATIVES:
            e = {a.name: sweep.get(kernel, a.name, "C").unit_energy_uj
                 for a in CHARACTERIZATION_ARCHS}
            assert e["m33"] < e["m4"], kernel
            assert e["m33"] < e["m7"], kernel

    def test_m7_cached_is_fastest(self, sweep):
        for kernel in REPRESENTATIVES:
            lat = {a.name: sweep.get(kernel, a.name, "C").unit_latency_us
                   for a in CHARACTERIZATION_ARCHS}
            assert lat["m7"] < lat["m4"], kernel

    def test_cache_off_never_faster(self, sweep):
        for r_on in sweep.results:
            if r_on.cache != "C":
                continue
            r_off = sweep.get(r_on.kernel, r_on.arch, "NC")
            assert r_off.mean_latency_s >= 0.95 * r_on.mean_latency_s

    def test_m7_most_cache_sensitive(self, sweep):
        """Cache sensitivity ordering: M7 > M33 > M4 (paper S5)."""
        def ratio(kernel, arch):
            on = sweep.get(kernel, arch, "C").mean_latency_s
            off = sweep.get(kernel, arch, "NC").mean_latency_s
            return off / on

        for kernel in ("iiof", "p3p"):
            assert ratio(kernel, "m7") > ratio(kernel, "m33") > ratio(kernel, "m4")

    def test_peak_power_ordering(self, sweep):
        """M33 sips power; M4/M7 draw 3-6x more (Table IV Pmax columns)."""
        for kernel in REPRESENTATIVES:
            p = {a.name: sweep.get(kernel, a.name, "C").peak_power_mw
                 for a in CHARACTERIZATION_ARCHS}
            assert p["m33"] < 0.5 * p["m4"]
            assert p["m33"] < 0.5 * p["m7"]

    def test_latency_spectrum_matches_paper_shape(self, sweep):
        """Attitude filters are microseconds; perception is milliseconds."""
        mahony = sweep.get("mahony", "m4", "C").unit_latency_us
        iiof = sweep.get("iiof", "m4", "C").unit_latency_us
        assert mahony < 20
        assert iiof > 500


class TestSuiteWideRun:
    """The 400+ datapoint claim: the full suite runs on all cores."""

    def test_full_suite_produces_datapoints(self):
        from repro.analysis.tables import TABLE_KERNELS

        # 31 kernels x 3 archs x 2 cache states = 186 configurations; with
        # the attitude/EKF/control kernels at reduced sizes this stays fast.
        spec = SweepSpec(
            kernels=list(TABLE_KERNELS),
            archs=list(CHARACTERIZATION_ARCHS),
            config=HarnessConfig(reps=1, warmup_reps=0),
            overrides={
                "mahony": {"n_samples": 60},
                "madgwick": {"n_samples": 60},
                "fourati": {"n_samples": 60},
                "fly-ekf (sync)": {"n_samples": 60},
                "fly-ekf (seq)": {"n_samples": 60},
                "fly-ekf (trunc)": {"n_samples": 60},
                "bee-ceekf": {"n_samples": 20},
                "fly-lqr": {"n_steps": 100},
                "fly-tiny-mpc": {"n_steps": 12},
                "bee-mpc": {"n_steps": 4},
                "bee-geom": {"n_steps": 60},
                "bee-smac": {"n_steps": 80},
            },
        )
        results = api.sweep(spec)
        assert len(results) == 31 * 3 * 2
        ran = [r for r in results.results if r.fits]
        # sift skips the M4 and M33 (cache on and off): 4 skipped configs.
        assert len(ran) == 31 * 6 - 4
        valid = sum(1 for r in ran if r.all_valid)
        assert valid / len(ran) > 0.9

    def test_sift_only_on_m7(self):
        h4 = Harness(M4, FAST)
        r4 = h4.run(registry.create("sift"), CACHE_ON)
        assert not r4.fits
        h7 = Harness(M7, FAST)
        r7 = h7.run(registry.create("sift"), CACHE_ON)
        assert r7.fits and r7.all_valid


class TestCrossKernelShape:
    def test_minimal_solvers_cheapest(self):
        """Case Study 4: priors slash cost by orders of magnitude."""
        h = Harness(M4, FAST)
        lat = {}
        for kernel in ("up2pt", "u3pt", "5pt", "8pt"):
            lat[kernel] = h.run(registry.create(kernel), CACHE_ON).unit_latency_us
        assert lat["up2pt"] < lat["u3pt"] < lat["5pt"]
        assert lat["5pt"] > 10 * lat["up2pt"]

    def test_control_cost_spectrum(self):
        """Table IV ordering: lqr << geom < tinympc < smac << mpc."""
        h = Harness(M4, FAST)
        lat = {}
        for kernel, kwargs in (
            ("fly-lqr", {"n_steps": 100}),
            ("bee-geom", {"n_steps": 60}),
            ("fly-tiny-mpc", {"n_steps": 12}),
            ("bee-smac", {"n_steps": 80}),
            ("bee-mpc", {"n_steps": 4}),
        ):
            lat[kernel] = h.run(registry.create(kernel, **kwargs), CACHE_ON).unit_latency_us
        assert lat["fly-lqr"] < lat["bee-geom"]
        assert lat["bee-geom"] < lat["fly-tiny-mpc"]
        assert lat["fly-tiny-mpc"] < lat["bee-smac"]
        assert lat["bee-smac"] < lat["bee-mpc"]

    def test_ekf_update_strategy_shape(self):
        h = Harness(M4, FAST)
        lat = {}
        for strategy in ("sync", "seq", "trunc"):
            kernel = f"fly-ekf ({strategy})"
            lat[strategy] = h.run(
                registry.create(kernel, n_samples=80), CACHE_ON
            ).unit_latency_us
        assert lat["seq"] > lat["sync"]
        assert lat["trunc"] < lat["seq"]

    def test_bee_ceekf_dwarfs_fly_ekf(self):
        h = Harness(M4, FAST)
        fly = h.run(registry.create("fly-ekf (sync)", n_samples=60), CACHE_ON)
        bee = h.run(registry.create("bee-ceekf", n_samples=20), CACHE_ON)
        assert bee.unit_latency_us > 10 * fly.unit_latency_us
