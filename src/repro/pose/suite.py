"""Benchmark problems for the geometric pose-estimation kernels.

Registers the Table III Abs./Rel. Pose and Robust Pose rows: ``p3p``,
``up2p``, ``dlt``, ``absgoldstd``, ``up2pt``, ``up3pt``, ``u3pt``, ``5pt``,
``8pt``, ``relgoldstd``, ``homography``, ``abs-lo-ransac``, and
``rel-lo-ransac``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.problem import EntoProblem
from repro.core.registry import register
from repro.datasets import pose as posedata
from repro.mcu.memory import Footprint
from repro.mcu.ops import OpCounter
from repro.mcu.static import StaticMix, compose
from repro.pose import absolute, relative
from repro.pose.fivept import five_point
from repro.pose.ransac import (
    AbsolutePoseAdapter,
    RansacConfig,
    RelativePoseAdapter,
    lo_ransac,
)
from repro.pose.relative import homography_dlt, homography_transfer_error
from repro.pose.upright import u3pt, up2pt, up3pt
from repro.scalar import F32, ScalarType

Pose = Tuple[np.ndarray, np.ndarray]

#: Default synthetic-problem noise for the characterization runs (Fig. 5
#: b/c use 0.1 px).
DEFAULT_NOISE_PX = 0.1
#: Rotation-error pass threshold for noisy minimal solves.
MAX_ROT_ERR_DEG = 5.0


class _PoseProblemBase(EntoProblem):
    """Common scaffolding: dataset generation, rotation-error validation."""

    stage = "S"
    upright = False
    planar = False
    n_points = 16

    def __init__(self, scalar: ScalarType = F32, seed: int = 0,
                 noise_px: float = DEFAULT_NOISE_PX, n_points: Optional[int] = None):
        super().__init__(scalar, seed)
        self.noise_px = noise_px
        if n_points is not None:
            self.n_points = n_points
        self.problem = None
        self.last_rotation_error_deg: Optional[float] = None

    def _cast(self, a: np.ndarray) -> np.ndarray:
        return np.asarray(a, dtype=self.scalar.dtype)

    def _record_error(self, pose: Optional[Pose], r_true: np.ndarray) -> None:
        if pose is None:
            self.last_rotation_error_deg = float("inf")
        else:
            self.last_rotation_error_deg = posedata.rotation_angle_deg(
                np.asarray(pose[0], dtype=np.float64), r_true
            )

    #: Per-problem override; the paper notes the minimal 8pt configuration
    #: "is not as accurate unless overdetermined".
    max_rot_err_deg = MAX_ROT_ERR_DEG

    def validate(self, result) -> bool:
        return (
            self.last_rotation_error_deg is not None
            and self.last_rotation_error_deg <= self.max_rot_err_deg
        )

    def footprint(self) -> Footprint:
        bytes_per = self.scalar.dtype.itemsize
        data = self.n_points * 8 * bytes_per + 4096  # points + solver workspace
        return Footprint(flash_bytes=self.static_mix_base().flash_bytes, data_bytes=data)


# ---------------------------------------------------------------------------
# Absolute pose
# ---------------------------------------------------------------------------


class _AbsoluteProblem(_PoseProblemBase):
    category = "Abs. Pose"
    dataset_name = "abs-synth"

    def setup(self, rng: np.random.Generator) -> None:
        self.problem = posedata.make_absolute_problem(
            n_points=self.n_points,
            noise_px=self.noise_px,
            upright=self.upright,
            rng=rng,
        )
        self.world = self._cast(self.problem.points_world)
        self.image = self._cast(self.problem.points_image)


class P3pProblem(_AbsoluteProblem):
    name = "p3p"

    def solve(self, counter: OpCounter):
        pose = absolute.solve_best_absolute(
            counter, absolute.p3p, self.world[:3], self.image[:3],
            self.world, self.image,
        )
        self._record_error(pose, self.problem.r_true)
        return pose

    def static_mix_base(self) -> StaticMix:
        return compose(("p3p_solver", "reprojection_residual", "svd",
                        "harness_runtime"))

    def flop_estimate(self) -> int:
        return 420  # quartic + back substitution + alignment


class Up2pProblem(_AbsoluteProblem):
    name = "up2p"
    dataset_name = "up-abs-synth"
    upright = True

    def solve(self, counter: OpCounter):
        pose = absolute.solve_best_absolute(
            counter, absolute.up2p, self.world[:2], self.image[:2],
            self.world[:6], self.image[:6],
        )
        self._record_error(pose, self.problem.r_true)
        return pose

    def static_mix_base(self) -> StaticMix:
        return compose(("up2p_solver", "reprojection_residual", "harness_runtime"))

    def flop_estimate(self) -> int:
        return 120


class DltProblem(_AbsoluteProblem):
    name = "dlt"
    n_points = 6  # the paper's linear baseline runs near-minimal

    def solve(self, counter: OpCounter):
        poses = absolute.dlt(counter, self.world, self.image)
        pose = poses[0] if poses else None
        self._record_error(pose, self.problem.r_true)
        return pose

    def static_mix_base(self) -> StaticMix:
        return compose(("dlt_normalization", "svd", "harness_runtime"))


class AbsGoldStdProblem(_AbsoluteProblem):
    name = "absgoldstd"

    def solve(self, counter: OpCounter):
        poses = absolute.absolute_gold_standard(counter, self.world, self.image)
        pose = poses[0] if poses else None
        self._record_error(pose, self.problem.r_true)
        return pose

    def static_mix_base(self) -> StaticMix:
        return compose(("dlt_normalization", "svd", "levenberg_step",
                        "reprojection_residual", "lu_solver", "harness_runtime"))


# ---------------------------------------------------------------------------
# Relative pose
# ---------------------------------------------------------------------------


class _RelativeProblem(_PoseProblemBase):
    category = "Rel. Pose"
    dataset_name = "rel-synth"

    def setup(self, rng: np.random.Generator) -> None:
        self.problem = posedata.make_relative_problem(
            n_points=self.n_points,
            noise_px=self.noise_px,
            upright=self.upright,
            planar=self.planar,
            rng=rng,
        )
        self.x1 = self._cast(self.problem.x1)
        self.x2 = self._cast(self.problem.x2)

    def _best_rel(self, counter: OpCounter, poses: List[Pose],
                  n_score: int = 6) -> Optional[Pose]:
        """Pick the candidate with the smallest Sampson error over a few
        points — candidate scoring on full point sets is RANSAC's job, not
        the minimal solver's."""
        if not poses:
            return None
        from repro.pose.geometry import essential_from_pose, sampson_error

        k = min(n_score, len(self.x1))
        best, best_err = None, np.inf
        for r, t in poses:
            e = essential_from_pose(r, t)
            counter.mat_mat(3, 3, 3)
            err = float(np.sum(sampson_error(counter, e, self.x1[:k], self.x2[:k])))
            counter.fcmp()
            if err < best_err:
                best, best_err = (r, t), err
        return best


class Up2ptProblem(_RelativeProblem):
    name = "up2pt"
    dataset_name = "str-rel-synth"
    upright = True
    planar = True

    def solve(self, counter: OpCounter):
        pose = self._best_rel(counter, up2pt(counter, self.x1[:2], self.x2[:2]))
        self._record_error(pose, self.problem.r_true)
        return pose

    def static_mix_base(self) -> StaticMix:
        return compose(("upright_planar_solver", "sampson_residual", "harness_runtime"))

    def flop_estimate(self) -> int:
        return 160


class Up3ptProblem(_RelativeProblem):
    name = "up3pt"
    dataset_name = "str-rel-synth"
    upright = True
    planar = True

    def solve(self, counter: OpCounter):
        pose = self._best_rel(counter, up3pt(counter, self.x1, self.x2))
        self._record_error(pose, self.problem.r_true)
        return pose

    def static_mix_base(self) -> StaticMix:
        return compose(("upright_planar_solver", "qr", "sampson_residual",
                        "harness_runtime"))


class U3ptProblem(_RelativeProblem):
    name = "u3pt"
    dataset_name = "upr-rel-synth"
    upright = True

    def solve(self, counter: OpCounter):
        pose = self._best_rel(counter, u3pt(counter, self.x1[:3], self.x2[:3]))
        self._record_error(pose, self.problem.r_true)
        return pose

    def static_mix_base(self) -> StaticMix:
        return compose(("upright_planar_solver", "polynomial_builder",
                        "sampson_residual", "harness_runtime"))

    def flop_estimate(self) -> int:
        return 900


class FivePtProblem(_RelativeProblem):
    name = "5pt"

    def solve(self, counter: OpCounter):
        poses = five_point(counter, self.x1[:5], self.x2[:5],
                           validate_with=(self.x1, self.x2))
        pose = self._best_rel(counter, poses)
        self._record_error(pose, self.problem.r_true)
        return pose

    def static_mix_base(self) -> StaticMix:
        return compose(("grobner_5pt", "polynomial_builder", "svd",
                        "companion_eig", "sampson_residual", "harness_runtime"))

    def flop_estimate(self) -> int:
        return 26000  # nullspace + elimination + action-matrix eigensolve


class EightPtProblem(_RelativeProblem):
    name = "8pt"
    n_points = 8  # minimal configuration, as characterized in Table IV
    max_rot_err_deg = 20.0  # minimal 8pt is noise-fragile (Fig. 5a)

    def solve(self, counter: OpCounter):
        poses = relative.eight_point(counter, self.x1, self.x2)
        pose = poses[0] if poses else None
        self._record_error(pose, self.problem.r_true)
        return pose

    def static_mix_base(self) -> StaticMix:
        return compose(("dlt_normalization", "svd", "sampson_residual",
                        "harness_runtime"))


class RelGoldStdProblem(_RelativeProblem):
    name = "relgoldstd"

    def solve(self, counter: OpCounter):
        poses = relative.relative_gold_standard(counter, self.x1, self.x2)
        pose = poses[0] if poses else None
        self._record_error(pose, self.problem.r_true)
        return pose

    def static_mix_base(self) -> StaticMix:
        return compose(("dlt_normalization", "svd", "levenberg_step",
                        "sampson_residual", "lu_solver", "bundle_adjust_small",
                        "harness_runtime"))


class HomographyProblem(_PoseProblemBase):
    name = "homography"
    category = "Abs./Rel. Pose"
    dataset_name = "homog-synth"
    n_points = 4  # minimal 4-point DLT, as characterized in Table IV

    def setup(self, rng: np.random.Generator) -> None:
        self.problem = posedata.make_homography_problem(
            n_points=self.n_points, noise_px=self.noise_px, rng=rng
        )
        self.x1 = self._cast(self.problem.x1)
        self.x2 = self._cast(self.problem.x2)
        self.last_transfer_rms_px: Optional[float] = None

    def solve(self, counter: OpCounter):
        h = homography_dlt(counter, self.x1, self.x2)
        if h is None:
            self.last_transfer_rms_px = float("inf")
            return None
        err = homography_transfer_error(counter, h, self.x1, self.x2)
        self.last_transfer_rms_px = float(
            np.sqrt(np.mean(err)) * posedata.NOMINAL_FOCAL_PX
        )
        return h

    def validate(self, result) -> bool:
        return (
            self.last_transfer_rms_px is not None
            and self.last_transfer_rms_px <= max(3.0 * self.noise_px, 0.5)
        )

    def static_mix_base(self) -> StaticMix:
        return compose(("homography_solver", "dlt_normalization", "svd",
                        "harness_runtime"))


# ---------------------------------------------------------------------------
# Robust pose (LO-RANSAC)
# ---------------------------------------------------------------------------

#: Case Study 4 settings: 25% outliers, 0.5 px noise.
ROBUST_OUTLIER_RATIO = 0.25
ROBUST_NOISE_PX = 0.5


class AbsLoRansacProblem(_PoseProblemBase):
    name = "abs-lo-ransac"
    category = "Robust Pose"
    dataset_name = "rob-abs-synth"
    n_points = 32

    def __init__(self, scalar: ScalarType = F32, seed: int = 0,
                 minimal: str = "p3p", n_points: Optional[int] = None):
        super().__init__(scalar, seed, noise_px=ROBUST_NOISE_PX, n_points=n_points)
        self.minimal = minimal
        self.last_result = None

    def setup(self, rng: np.random.Generator) -> None:
        self.problem = posedata.make_absolute_problem(
            n_points=self.n_points,
            noise_px=self.noise_px,
            outlier_ratio=ROBUST_OUTLIER_RATIO,
            upright=(self.minimal == "up2p"),
            rng=rng,
        )
        self.world = self._cast(self.problem.points_world)
        self.image = self._cast(self.problem.points_image)

    def solve(self, counter: OpCounter):
        adapter = AbsolutePoseAdapter(self.world, self.image, minimal=self.minimal)
        config = RansacConfig(threshold_px=4.0 * ROBUST_NOISE_PX, seed=self.seed)
        result = lo_ransac(counter, adapter, config)
        self.last_result = result
        self._record_error(result.model, self.problem.r_true)
        return result

    def static_mix_base(self) -> StaticMix:
        return compose(("ransac_loop", "p3p_solver", "reprojection_residual",
                        "local_optimization", "svd", "lu_solver",
                        "bundle_adjust_small", "harness_runtime"))


class RelLoRansacProblem(_PoseProblemBase):
    name = "rel-lo-ransac"
    category = "Robust Pose"
    dataset_name = "rob-rel-synth"
    n_points = 32

    def __init__(self, scalar: ScalarType = F32, seed: int = 0,
                 minimal: str = "5pt", n_points: Optional[int] = None):
        super().__init__(scalar, seed, noise_px=ROBUST_NOISE_PX, n_points=n_points)
        self.minimal = minimal
        self.last_result = None

    def setup(self, rng: np.random.Generator) -> None:
        self.problem = posedata.make_relative_problem(
            n_points=self.n_points,
            noise_px=self.noise_px,
            outlier_ratio=ROBUST_OUTLIER_RATIO,
            upright=self.minimal in ("u3pt", "up2pt"),
            planar=self.minimal == "up2pt",
            rng=rng,
        )
        self.x1 = self._cast(self.problem.x1)
        self.x2 = self._cast(self.problem.x2)

    def solve(self, counter: OpCounter):
        adapter = RelativePoseAdapter(self.x1, self.x2, minimal=self.minimal)
        config = RansacConfig(threshold_px=4.0 * ROBUST_NOISE_PX, seed=self.seed)
        result = lo_ransac(counter, adapter, config)
        self.last_result = result
        self._record_error(result.model, self.problem.r_true)
        return result

    def static_mix_base(self) -> StaticMix:
        return compose(("ransac_loop", "grobner_5pt", "companion_eig",
                        "polynomial_builder", "sampson_residual",
                        "local_optimization", "svd", "lu_solver",
                        "bundle_adjust_small", "harness_runtime"))


register("p3p")(P3pProblem)
register("up2p")(Up2pProblem)
register("dlt")(DltProblem)
register("absgoldstd")(AbsGoldStdProblem)
register("up2pt")(Up2ptProblem)
register("up3pt")(Up3ptProblem)
register("u3pt")(U3ptProblem)
register("5pt")(FivePtProblem)
register("8pt")(EightPtProblem)
register("relgoldstd")(RelGoldStdProblem)
register("homography")(HomographyProblem)
register("abs-lo-ransac")(AbsLoRansacProblem)
register("rel-lo-ransac")(RelLoRansacProblem)
