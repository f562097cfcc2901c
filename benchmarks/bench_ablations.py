"""Ablation benches for the design choices the paper calls out.

Not a paper table — these quantify the knobs the text discusses:
TinyMPC's start-up pass and warm starting, LO-RANSAC's local-optimization
step, and the fly-ekf truncation degree.
"""

import numpy as np
import pytest

from repro.control.dynamics import fly_longitudinal
from repro.control.tinympc import TinyMpc
from repro.datasets.pose import make_relative_problem, rotation_angle_deg
from repro.mcu.ops import OpCounter
from repro.pose.ransac import RansacConfig, RelativePoseAdapter, lo_ransac


def _render(rows, columns) -> str:
    head = " ".join(f"{c:>16s}" for c in columns)
    lines = [head, "-" * len(head)]
    for row in rows:
        lines.append(" ".join(f"{row[c]!s:>16s}" for c in columns))
    return "\n".join(lines)


def test_ablation_tinympc_startup_and_warmstart(benchmark, save_artifact):
    """The paper: TinyMPC's start-up 'could be moved completely offline'."""
    model = fly_longitudinal()

    def startup_cost():
        mpc = TinyMpc(model, horizon=10)
        c = OpCounter()
        mpc.setup_cache(c)
        return c.trace.total

    startup_ops = benchmark(startup_cost)

    # Per-solve cost with and without warm starting.
    x0 = np.array([0.02, 0.01, -0.01, 0.0])
    rows = []
    for warm in (True, False):
        mpc = TinyMpc(model, horizon=10)
        mpc.setup_cache(OpCounter())
        x = x0.copy()
        c = OpCounter()
        for _ in range(30):
            if not warm:
                mpc.reset()  # discard the carried duals
            result = mpc.solve(c, x, np.zeros((11, 4)), max_iters=12)
            x = model.step(x, result.u0)
        rows.append({"warm_start": warm, "ops_per_solve": c.trace.total // 30})
    save_artifact(
        "ablation_tinympc",
        f"startup ops: {startup_ops}\n"
        + _render(rows, ["warm_start", "ops_per_solve"]),
    )

    # Start-up dwarfs a single solve (why it matters for stack/flash).
    assert startup_ops > 5 * rows[0]["ops_per_solve"]
    # Warm starting cuts the per-solve cost.
    assert rows[0]["ops_per_solve"] < rows[1]["ops_per_solve"]


def test_ablation_lo_ransac_local_optimization(benchmark, save_artifact):
    """LO-RANSAC's 'optional linear or nonlinear local refinement'."""
    def run_variants():
        out = []
        for lo in (True, False):
            out.append(lo)
        return out

    benchmark.pedantic(run_variants, rounds=1, iterations=1)
    rows = []
    for lo in (True, False):
        errors, scores, ops = [], [], 0
        for seed in range(8):
            prob = make_relative_problem(
                n_points=24, noise_px=0.5, outlier_ratio=0.25, seed=seed
            )
            c = OpCounter()
            result = lo_ransac(
                c, RelativePoseAdapter(prob.x1, prob.x2, minimal="5pt"),
                RansacConfig(threshold_px=2.0, seed=1, local_optimization=lo,
                             final_refinement=lo),
            )
            ops += c.trace.total
            scores.append(result.score)
            if result.model is not None:
                errors.append(rotation_angle_deg(result.model[0], prob.r_true))
        rows.append({
            "local_opt": lo,
            "median_err_deg": round(float(np.median(errors)), 3),
            "mean_score": round(float(np.mean(scores)), 1),
            "mean_ops": ops // 8,
        })
    save_artifact("ablation_lo_ransac",
                  _render(rows, ["local_opt", "median_err_deg", "mean_score",
                                 "mean_ops"]))

    with_lo, without = rows
    # LO costs more but finds at-least-as-good consensus and lower error.
    assert with_lo["mean_ops"] > without["mean_ops"] * 0.8
    assert with_lo["mean_score"] >= without["mean_score"]
    assert with_lo["median_err_deg"] <= without["median_err_deg"] * 1.5


def test_ablation_ekf_truncation_degree(benchmark, save_artifact):
    """fly-ekf truncated updates: cost vs accuracy across truncation."""
    from repro.datasets import fusion
    from repro.ekf.base import ExtendedKalmanFilter
    from repro.ekf.fly_ekf import FlyEkf

    seq = benchmark.pedantic(fusion.fly_synth, kwargs={"n": 150, "seed": 0},
                             rounds=1, iterations=1)
    rows = []
    for truncate_to in (1, 2, 3, 4):
        filt = FlyEkf(strategy="trunc")

        # Patch the truncation degree via a wrapper around the update.
        original = filt.ekf.update_sequential

        def patched(z, h_fn, h_jac, r_diag, counter, truncate_to=truncate_to,
                    _orig=original):
            return _orig(z, h_fn, h_jac, r_diag, counter,
                         truncate_to=truncate_to)

        filt.ekf.update_sequential = patched
        filt.strategy = "trunc"
        c = OpCounter()
        errors = []
        for s in seq.samples:
            x = filt.step(seq.dt, c, s.imu, s.tof, s.flow)
            errors.append(abs(x[0] - s.true_state[0]))
        rows.append({
            "truncate_to": truncate_to,
            "ops_per_update": c.trace.total // len(seq),
            "z_rmse_mm": round(float(np.sqrt(np.mean(np.array(errors[75:]) ** 2))) * 1e3, 2),
        })
    save_artifact("ablation_ekf_truncation",
                  _render(rows, ["truncate_to", "ops_per_update", "z_rmse_mm"]))

    # Cost rises with truncation degree; accuracy is acceptable everywhere
    # for this workload (constant Jacobians — the RoboFly design point).
    ops = [r["ops_per_update"] for r in rows]
    assert ops == sorted(ops)
    assert all(r["z_rmse_mm"] < 20.0 for r in rows)


def test_ablation_axle_chain_vs_dense(benchmark, save_artifact):
    """The expansion kernel's headline: chain-structured factor graphs
    smooth in O(N) where a dense solve pays O(N^3) (AXLE [50])."""
    from repro.factorgraph.axle import (
        _assemble,
        _solve_block_tridiagonal,
        solve_dense_for_reference,
    )
    from repro.factorgraph.suite import make_smoothing_problem

    rows = []
    for n_poses in (20, 40, 80):
        graph, initial, truth = make_smoothing_problem(n_poses=n_poses, seed=0)
        c_thomas, c_dense = OpCounter(), OpCounter()
        diag, off, rhs = _assemble(c_thomas, graph, initial)
        _solve_block_tridiagonal(c_thomas, diag, off, rhs)
        solve_dense_for_reference(c_dense, graph, initial)
        rows.append({
            "n_poses": n_poses,
            "thomas_ops": c_thomas.trace.total,
            "dense_ops": c_dense.trace.total,
            "speedup": round(c_dense.trace.total / c_thomas.trace.total, 1),
        })

    def smooth_once():
        from repro.factorgraph.axle import smooth

        graph, initial, _ = make_smoothing_problem(n_poses=40, seed=0)
        return smooth(OpCounter(), graph, initial)

    benchmark.pedantic(smooth_once, rounds=1, iterations=1)
    save_artifact("ablation_axle",
                  _render(rows, ["n_poses", "thomas_ops", "dense_ops", "speedup"]))

    # The dense/chain gap grows with trajectory length.
    speedups = [r["speedup"] for r in rows]
    assert speedups == sorted(speedups)
    assert speedups[-1] > 50
