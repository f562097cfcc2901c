"""Tests for the perception kernels (FAST, BRIEF, ORB, SIFT, optical flow)."""

import numpy as np
import pytest

from repro.datasets import images
from repro.mcu.ops import OpCounter
from repro.perception import brief
from repro.perception.fast import BORDER, Corner, fast_detect
from repro.perception.flow import (
    block_matching_flow,
    image_interpolation_flow,
    lucas_kanade_flow,
)
from repro.perception.gaussian import (
    build_pyramid,
    gaussian_blur,
    gaussian_kernel,
    image_gradients,
)
from repro.perception.orb_kernel import (
    intensity_centroid_angle,
    orb_detect_and_describe,
)
from repro.perception.sift import (
    scale_space_footprint_bytes,
    sift_detect_and_describe,
)


def synthetic_corner_image(size=64, value=200):
    """A bright square on dark background: 4 strong corners."""
    img = np.full((size, size), 30, dtype=np.uint8)
    img[size // 4 : 3 * size // 4, size // 4 : 3 * size // 4] = value
    return img


class TestGaussian:
    def test_kernel_normalized(self):
        k = gaussian_kernel(1.5)
        assert k.sum() == pytest.approx(1.0)
        assert len(k) % 2 == 1

    def test_blur_preserves_mean(self):
        img = images.load("midd", shape=(40, 40)).astype(np.float64)
        out = gaussian_blur(OpCounter(), img, 1.0)
        assert out.mean() == pytest.approx(img.mean(), rel=0.02)

    def test_blur_reduces_variance(self):
        img = images.load("midd", shape=(40, 40)).astype(np.float64)
        out = gaussian_blur(OpCounter(), img, 2.0)
        assert out.var() < img.var()

    def test_pyramid_halves_resolution(self):
        img = images.load("midd", shape=(64, 64))
        pyr = build_pyramid(OpCounter(), img, levels=3)
        assert pyr[0].shape == (64, 64)
        assert pyr[1].shape == (32, 32)
        assert pyr[2].shape == (16, 16)

    def test_gradients_of_ramp(self):
        img = np.tile(np.arange(32, dtype=np.float64), (32, 1))
        gx, gy = image_gradients(OpCounter(), img)
        assert np.allclose(gx[1:-1, 1:-1], 1.0)
        assert np.allclose(gy[1:-1, 1:-1], 0.0)

    def test_blur_cost_scales_with_sigma(self):
        img = images.load("midd", shape=(40, 40)).astype(np.float64)
        c1, c2 = OpCounter(), OpCounter()
        gaussian_blur(c1, img, 0.8)
        gaussian_blur(c2, img, 3.0)
        assert c2.trace.total > c1.trace.total


class TestFast:
    def test_finds_square_corners(self):
        corners = fast_detect(OpCounter(), synthetic_corner_image())
        assert len(corners) >= 4
        found = {(c.y, c.x) for c in corners}
        for target in ((16, 16), (16, 47), (47, 16), (47, 47)):
            assert any(abs(t[0] - y) <= 2 and abs(t[1] - x) <= 2
                       for y, x in found for t in [target])

    def test_uniform_image_has_no_corners(self):
        img = np.full((64, 64), 100, dtype=np.uint8)
        assert fast_detect(OpCounter(), img) == []

    def test_corners_sorted_by_score(self):
        corners = fast_detect(OpCounter(), images.load("midd"))
        scores = [c.score for c in corners]
        assert scores == sorted(scores, reverse=True)

    def test_corners_respect_border(self):
        corners = fast_detect(OpCounter(), images.load("april"))
        h, w = images.FEATURE_IMAGE_SHAPE
        for c in corners:
            assert BORDER <= c.y < h - BORDER
            assert BORDER <= c.x < w - BORDER

    def test_dataset_cost_ordering(self):
        """Case Study 1: lights runs cheapest, april is the most expensive."""
        costs = {}
        for name in ("midd", "lights", "april"):
            c = OpCounter()
            fast_detect(c, images.load(name, seed=1))
            costs[name] = c.trace.total
        assert costs["lights"] < costs["midd"]
        assert costs["lights"] < costs["april"]

    def test_higher_threshold_fewer_corners(self):
        img = images.load("midd")
        low = fast_detect(OpCounter(), img, threshold=10)
        high = fast_detect(OpCounter(), img, threshold=40)
        assert len(high) < len(low)

    def test_nonmax_suppression_reduces_count(self):
        img = images.load("april")
        with_nms = fast_detect(OpCounter(), img, nonmax_suppression=True)
        without = fast_detect(OpCounter(), img, nonmax_suppression=False)
        assert len(with_nms) <= len(without)


class TestBrief:
    def test_descriptor_shape(self):
        img = images.load("midd")
        corners = fast_detect(OpCounter(), img)[:10]
        desc = brief.describe(OpCounter(), img, corners)
        assert desc.shape == (10, 32)
        assert desc.dtype == np.uint8

    def test_deterministic(self):
        img = images.load("midd")
        corners = fast_detect(OpCounter(), img)[:5]
        d1 = brief.describe(OpCounter(), img, corners)
        d2 = brief.describe(OpCounter(), img, corners)
        assert np.array_equal(d1, d2)

    def test_border_keypoints_skipped(self):
        img = images.load("midd")
        corners = [Corner(4, 4, 1.0)]
        desc = brief.describe(OpCounter(), img, corners)
        assert not desc.any()

    def test_hamming_distance(self):
        a = np.zeros(32, dtype=np.uint8)
        b = np.zeros(32, dtype=np.uint8)
        b[0] = 0b10000001
        assert brief.hamming_distance(OpCounter(), a, b) == 2
        assert brief.hamming_distance(OpCounter(), a, a) == 0

    def test_matching_same_image_is_identity(self):
        img = images.load("midd")
        corners = fast_detect(OpCounter(), img)[:8]
        desc = brief.describe(OpCounter(), img, corners)
        keep = desc.any(axis=1)
        matches = brief.match_descriptors(OpCounter(), desc[keep], desc[keep])
        assert all(i == j for i, j, _ in matches)

    def test_pattern_is_stable(self):
        assert np.array_equal(brief.brief_pattern(), brief.brief_pattern())


class TestOrb:
    def test_detect_and_describe(self):
        kps, desc = orb_detect_and_describe(OpCounter(), images.load("midd"))
        assert len(kps) > 10
        assert desc.shape == (len(kps), 32)

    def test_orientation_of_gradient_patch(self):
        # Intensity increasing along +x: centroid angle ~ 0.
        img = np.tile(np.linspace(0, 255, 64).astype(np.uint8), (64, 1))
        angle = intensity_centroid_angle(OpCounter(), img, Corner(32, 32, 1.0))
        assert abs(angle) < 0.2

    def test_costlier_than_fastbrief(self):
        """Case Study 1: orb is 1.5-2.5x fastbrief (the fastbrief pipeline
        includes its Gaussian pre-blur, as in the benchmark problem)."""
        img = images.load("midd", seed=1)
        c_fb, c_orb = OpCounter(), OpCounter()
        blurred = gaussian_blur(c_fb, img.astype(np.float64), 1.0)
        corners = fast_detect(c_fb, blurred.astype(np.uint8))
        brief.describe(c_fb, img, corners)
        orb_detect_and_describe(c_orb, img)
        ratio = c_orb.trace.total / c_fb.trace.total
        assert 1.2 < ratio < 3.5

    def test_empty_image(self):
        img = np.full((64, 64), 100, dtype=np.uint8)
        kps, desc = orb_detect_and_describe(OpCounter(), img)
        assert kps == []
        assert desc.shape == (0, 32)


class TestSift:
    def test_detect_and_describe(self):
        kps, desc = sift_detect_and_describe(OpCounter(), images.load("midd", seed=1))
        assert len(kps) >= 5
        assert desc.shape == (len(kps), 128)

    def test_descriptors_unit_norm(self):
        _, desc = sift_detect_and_describe(OpCounter(), images.load("midd", seed=1))
        norms = np.linalg.norm(desc, axis=1)
        assert np.allclose(norms, 1.0, atol=0.05)

    def test_far_more_expensive_than_orb(self):
        """SIFT is the suite's heavyweight (Table IV: ~100x orb)."""
        img = images.load("midd", seed=1)
        c_sift, c_orb = OpCounter(), OpCounter()
        sift_detect_and_describe(c_sift, img)
        orb_detect_and_describe(c_orb, img)
        assert c_sift.trace.total > 10 * c_orb.trace.total

    def test_footprint_exceeds_m4(self):
        from repro.mcu.arch import M4

        assert scale_space_footprint_bytes((160, 160)) > M4.memory.sram_bytes

    def test_solve_peak_memory_bounded(self):
        """Extrema detection streams its 27 neighbourhood views.

        Stacking them cost ~70 MB RSS in the Table IV run; a 1-rep solve's
        traced peak was 53.5 MiB that way and is 15 MiB streamed.
        """
        import tracemalloc

        from repro.engine.profile import solve_profile

        solve_profile("sift", {}, reps=1, warmup_reps=0)  # warm module state
        tracemalloc.start()
        try:
            solve_profile("sift", {}, reps=1, warmup_reps=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20, f"sift solve peaked at {peak / 2**20:.1f} MiB"


class TestOpticalFlow:
    def test_lucas_kanade_recovers_shift(self):
        pair = images.flow_pair("midd", displacement=(1.5, -2.0), seed=2)
        flows = lucas_kanade_flow(OpCounter(), pair["frame0"], pair["frame1"])
        valid = np.array([(f.dy, f.dx) for f in flows if f.valid])
        med = np.median(valid, axis=0)
        assert med == pytest.approx([1.5, -2.0], abs=0.3)

    def test_iiof_recovers_small_shift(self):
        pair = images.flow_pair("midd", displacement=(0.8, -1.0), seed=3)
        est = image_interpolation_flow(OpCounter(), pair["frame0"], pair["frame1"])
        assert est.valid
        assert (est.dy, est.dx) == pytest.approx((0.8, -1.0), abs=0.6)

    def test_block_matching_recovers_integer_shift(self):
        pair = images.flow_pair("midd", displacement=(2.0, -3.0), seed=4)
        est = block_matching_flow(OpCounter(), pair["frame0"], pair["frame1"])
        assert (est.dy, est.dx) == pytest.approx((2.0, -3.0), abs=1.0)

    def test_vectorized_bbof_same_answer_fewer_ops(self):
        """Case Study 1: USADA8 packing ~4x cheaper, same result."""
        pair = images.flow_pair("midd", seed=5)
        c_s, c_v = OpCounter(), OpCounter()
        scalar = block_matching_flow(c_s, pair["frame0"], pair["frame1"])
        vector = block_matching_flow(c_v, pair["frame0"], pair["frame1"],
                                     vectorized=True)
        assert (scalar.dy, scalar.dx) == (vector.dy, vector.dx)
        ratio = c_s.trace.total / c_v.trace.total
        assert 2.5 < ratio < 6.5

    def test_lk_costliest_flow_kernel(self):
        """Fig. 3(b): LK is an order of magnitude above block matching."""
        pair = images.flow_pair("midd", seed=6)
        c_lk, c_bb = OpCounter(), OpCounter()
        lucas_kanade_flow(c_lk, pair["frame0"], pair["frame1"])
        block_matching_flow(c_bb, pair["frame0"], pair["frame1"])
        assert c_lk.trace.total > 5 * c_bb.trace.total

    def test_lk_zero_motion(self):
        frame = images.load("midd", shape=(80, 80))
        flows = lucas_kanade_flow(OpCounter(), frame, frame)
        valid = np.array([(f.dy, f.dx) for f in flows if f.valid])
        assert np.abs(valid).max() < 0.05
