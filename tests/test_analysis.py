"""Tests for the analysis layer (tables and case-study data assembly).

These use reduced problem sizes to stay fast while exercising the full
assembly paths.
"""

import json
from pathlib import Path

from repro.analysis import attitude_study, flops, perception_study, relpose_study, tables
from repro.core.config import HarnessConfig
from repro.core.experiment_io import result_to_dict

FAST = HarnessConfig(reps=1, warmup_reps=0)
GOLDEN = Path(__file__).parent / "goldens" / "analysis_studies.json"


class TestTable3:
    ROWS = tables.table3_static(kernels=("fastbrief", "sift", "mahony", "5pt"))

    def test_row_structure(self):
        row = self.ROWS[0]
        assert row["kernel"] == "fastbrief"
        assert row["flash"] > 0
        assert set(row["m4"]) == {"F", "I", "M", "B"}

    def test_sift_missing_on_small_cores(self):
        sift = next(r for r in self.ROWS if r["kernel"] == "sift")
        assert sift["m4"] is None
        assert sift["m33"] is None
        assert sift["m7"] is not None

    def test_five_point_largest_flash(self):
        flash = {r["kernel"]: r["flash"] for r in self.ROWS}
        assert flash["5pt"] > flash["mahony"]
        assert flash["5pt"] > flash["fastbrief"]

    def test_render_contains_rows(self):
        text = tables.render_table3(self.ROWS)
        assert "fastbrief" in text and "sift" in text
        assert text.count("\n") >= len(self.ROWS)


class TestTable4:
    RESULTS = tables.table4_dynamic(kernels=("mahony", "fly-lqr"), config=FAST)

    def test_full_grid(self):
        # 2 kernels x 3 archs x 2 cache states
        assert len(self.RESULTS) == 12

    def test_render(self):
        text = tables.render_table4(self.RESULTS)
        assert "mahony" in text and "fly-lqr" in text

    def test_m33_lowest_energy(self):
        on = {a: self.RESULTS.get("mahony", a, "C") for a in ("m4", "m33", "m7")}
        assert on["m33"].unit_energy_uj < on["m4"].unit_energy_uj
        assert on["m33"].unit_energy_uj < on["m7"].unit_energy_uj


class TestTable5:
    def test_three_cores(self):
        rows = tables.table5_architectures()
        assert [r["core"] for r in rows] == ["Cortex-M4", "Cortex-M33", "Cortex-M7"]
        assert "Cortex-M7" in tables.render_table5(rows)


class TestTable6AndFig3:
    ROWS = tables.table6_perception(config=FAST)

    def test_row_count(self):
        # 2 detectors x 3 datasets + 4 flow kernels
        assert len(self.ROWS) == 10

    def test_orb_costlier_than_fastbrief(self):
        by = {(r["kernel"], r["data"]): r for r in self.ROWS}
        for data in ("midd", "lights", "april"):
            assert (by[("orb", data)]["energy_m4_uj"]
                    > by[("fastbrief", data)]["energy_m4_uj"])

    def test_lights_cheapest_dataset(self):
        by = {(r["kernel"], r["data"]): r for r in self.ROWS}
        for kernel in ("fastbrief", "orb"):
            lights = by[(kernel, "lights")]["energy_m4_uj"]
            assert lights < by[(kernel, "midd")]["energy_m4_uj"]
            assert lights < by[(kernel, "april")]["energy_m4_uj"]

    def test_render(self):
        assert "bbof-vec" in tables.render_table6(self.ROWS)

    def test_fig3_orderings(self):
        rows = perception_study.fig3b_flow_cycles(config=FAST)
        by = {r["kernel"]: r for r in rows}
        assert by["lkof"]["cycles_m4"] > 5 * by["bbof"]["cycles_m4"]
        speedup = perception_study.vectorization_speedup(rows)
        assert 2.5 < speedup < 6.5

    def test_fig3a_dataset_ordering(self):
        rows = perception_study.fig3a_detection_cycles(
            detectors=("fastbrief",), config=FAST
        )
        order = perception_study.dataset_cost_ordering(rows, "fastbrief")
        assert order[0] == "lights"


class TestTable7AndFig4:
    def test_table7_shape_and_relations(self):
        rows = attitude_study.table7_attitude(n_samples=80, config=FAST)
        assert len(rows) == 10  # 5 filter variants x 2 formats
        by = {(r["filter"], r["format"]): r for r in rows}
        f32 = by[("mahony (I)", "f32")]
        q724 = by[("mahony (I)", "q7.24")]
        # M0+ is orders of magnitude slower than M4 in float.
        assert f32["latency_m0plus_us"] > 20 * f32["latency_m4_us"]
        # Fixed point is slower than f32 on FPU cores.
        assert q724["latency_m4_us"] > f32["latency_m4_us"]
        # M0+ peak power far below the others.
        assert f32["pmax_m0plus_mw"] < 0.5 * f32["pmax_m4_mw"]
        # M33 most energy efficient in float.
        assert f32["energy_m33_nj"] < f32["energy_m4_nj"]
        assert "mahony" in attitude_study.render_table7(rows)

    def test_fig4_failure_sweep_has_feasible_window(self):
        rows = attitude_study.fixed_point_failure_sweep(
            filters=[("mahony", "mahony (I)")],
            datasets=("strider-steer",),
            int_bits_range=(2, 5, 8, 16, 24),
            n_samples=100,
        )
        assert len(rows) == 5
        window = attitude_study.feasible_window(rows, "mahony (I)", "strider-steer")
        assert window  # some formats work
        # The narrowest integer format must fail by overflow.
        narrow = next(r for r in rows if r["q_int"] == 2)
        assert narrow["failed"]
        assert narrow["events"]["overflow"] > 0

    def test_failure_rate_series(self):
        rows = attitude_study.fixed_point_failure_sweep(
            filters=[("madgwick", "madgwick (I)")],
            datasets=("bee-hover",),
            int_bits_range=(4, 8),
            n_samples=80,
        )
        series = attitude_study.failure_rate_by_format(rows)
        assert ("madgwick (I)", "bee-hover") in series
        assert len(series[("madgwick (I)", "bee-hover")]) == 2


class TestTable8:
    ROWS = flops.table8_flops(kernels=("fly-lqr", "fly-ekf (trunc)", "bee-ceekf"))

    def test_measured_exceeds_estimate_everywhere(self):
        """The case study's claim: FLOP estimates underpredict energy."""
        for row in self.ROWS:
            for arch in ("m4", "m33", "m7"):
                assert row[f"meas_energy_{arch}_uj"] > row[f"est_energy_{arch}_uj"]

    def test_gap_varies_wildly_across_kernels(self):
        gaps = {r["kernel"]: r["gap_m4"] for r in self.ROWS}
        assert gaps["bee-ceekf"] > 5 * gaps["fly-lqr"]

    def test_render(self):
        assert "bee-ceekf" in flops.render_table8(self.ROWS)


class TestFig5:
    def test_accuracy_vs_noise_grows(self):
        rows = relpose_study.accuracy_vs_noise(
            solvers=("u3pt",), noise_levels_px=(0.0, 1.0), n_problems=15
        )
        by = {(r["solver"], r["scalar"], r["noise_px"]): r for r in rows}
        assert (by[("u3pt", "f32", 1.0)]["median_rot_err_deg"]
                > by[("u3pt", "f32", 0.0)]["median_rot_err_deg"])

    def test_double_not_consistently_better(self):
        """Fig. 5(a): f64 doesn't buy accuracy on well-conditioned data."""
        rows = relpose_study.accuracy_vs_noise(
            solvers=("5pt",), noise_levels_px=(0.5,), n_problems=20
        )
        by = {r["scalar"]: r["median_rot_err_deg"] for r in rows}
        assert by["f64"] > 0.25 * by["f32"]  # same order of magnitude

    def test_solver_cost_ordering(self):
        rows = relpose_study.solver_costs(solvers=("up2pt", "5pt"), config=FAST)
        by = {r["solver"]: r for r in rows}
        assert by["5pt"]["cycles_m4"] > 5 * by["up2pt"]["cycles_m4"]

    def test_ransac_iterations_ordering(self):
        rows = relpose_study.ransac_iterations(
            minimals=("up2pt", "5pt"), n_problems=6
        )
        by = {r["minimal"]: r for r in rows}
        assert by["up2pt"]["mean_iterations"] < by["5pt"]["mean_iterations"]
        assert by["up2pt"]["success_rate"] >= 0.5

    def test_ransac_costs(self):
        rows = relpose_study.ransac_costs(minimals=("u3pt",), config=FAST)
        assert rows[0]["cycles_m4"] > 0
        assert rows[0]["pmax_m4_mw"] > 50


def test_study_rows_match_golden():
    """Every study call above, same arguments, byte-identical to the golden.

    The golden holds each call's rows as JSON in row and key order, so a
    change that moves one float, key or row shows here.  The class-level
    results are reused; the rest are the test-body calls.
    """
    studies = {
        "table4_dynamic": [result_to_dict(r) for r in TestTable4.RESULTS.results],
        "table6_perception": TestTable6AndFig3.ROWS,
        "fig3b_flow_cycles": perception_study.fig3b_flow_cycles(config=FAST),
        "fig3a_detection_cycles": perception_study.fig3a_detection_cycles(
            detectors=("fastbrief",), config=FAST
        ),
        "table7_attitude": attitude_study.table7_attitude(n_samples=80, config=FAST),
        "table8_flops": TestTable8.ROWS,
        "solver_costs": relpose_study.solver_costs(
            solvers=("up2pt", "5pt"), config=FAST
        ),
        "ransac_costs": relpose_study.ransac_costs(minimals=("u3pt",), config=FAST),
    }
    assert json.dumps(studies, indent=1) + "\n" == GOLDEN.read_text()
