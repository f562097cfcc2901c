"""SIFT detector and descriptor [43].

Difference-of-Gaussians scale space over multiple octaves, 3x3x3 extrema
detection, quadratic subpixel refinement with edge rejection, a 36-bin
orientation histogram, and the 4x4x8 gradient-histogram descriptor.

This is by far the heaviest perception kernel — four DoG octaves over a
160x160 frame plus 128-byte descriptors — and the only kernel whose
footprint exceeds the M4 and M33 SRAM, so it is characterized on the
Cortex-M7 alone (exactly as in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.mcu.ops import OpCounter
from repro.perception.gaussian import downsample, gaussian_blur, image_gradients

N_OCTAVES = 4
SCALES_PER_OCTAVE = 3  # s: each octave holds s+3 Gaussian images
CONTRAST_THRESHOLD = 0.015
EDGE_RATIO = 10.0
DESCRIPTOR_WIDTH = 4
DESCRIPTOR_BINS = 8
MAX_KEYPOINTS = 200


@dataclass(frozen=True)
class SiftKeypoint:
    y: float
    x: float
    octave: int
    scale: int
    response: float
    angle: float


def _upsample2(counter: OpCounter, img: np.ndarray) -> np.ndarray:
    """Bilinear 2x upsampling (Lowe's first-octave doubling)."""
    h, w = img.shape
    out = np.zeros((2 * h, 2 * w))
    out[::2, ::2] = img
    out[1::2, ::2] = (img + np.roll(img, -1, axis=0)) / 2.0
    out[::2, 1::2] = (img + np.roll(img, -1, axis=1)) / 2.0
    out[1::2, 1::2] = (
        img + np.roll(img, -1, axis=0) + np.roll(img, -1, axis=1)
        + np.roll(np.roll(img, -1, axis=0), -1, axis=1)
    ) / 4.0
    n = out.size
    counter.trace.fadd += 2 * n
    counter.trace.fmul += n
    counter.trace.load += 2 * n
    counter.trace.store += n
    counter.loop_overhead(n)
    return out


def build_scale_space(
    counter: OpCounter, img: np.ndarray
) -> Tuple[List[List[np.ndarray]], List[List[np.ndarray]]]:
    """Gaussian and DoG pyramids (incremental blurring, like the paper's
    memory-saving incremental pyramid construction)."""
    sigma0 = 1.6
    k = 2.0 ** (1.0 / SCALES_PER_OCTAVE)
    gaussians: List[List[np.ndarray]] = []
    dogs: List[List[np.ndarray]] = []
    base = img.astype(np.float64) / 255.0
    counter.vec_scale(base.size)
    # Lowe's -1 octave: the input is upsampled 2x so the finest scales are
    # resolvable — quadrupling the first octave's pixel count and a large
    # share of why SIFT "barely fits the M7".
    base = _upsample2(counter, base)
    for octave in range(N_OCTAVES):
        octave_imgs = [base]
        # Each scale is blurred from the octave base at its *full* sigma —
        # the memory-saving "recompute blurred images" strategy the paper's
        # implementation uses on the M7, which trades compute (wide
        # kernels) for the SRAM an incremental chain would hold.
        for s in range(1, SCALES_PER_OCTAVE + 3):
            sigma_full = sigma0 * (k**s)
            octave_imgs.append(gaussian_blur(counter, base, sigma_full))
        gaussians.append(octave_imgs)
        octave_dogs = []
        for i in range(len(octave_imgs) - 1):
            octave_dogs.append(octave_imgs[i + 1] - octave_imgs[i])
            counter.vec_add(octave_imgs[i].size)
        dogs.append(octave_dogs)
        base = downsample(counter, octave_imgs[SCALES_PER_OCTAVE])
    return gaussians, dogs


def detect_extrema(counter: OpCounter, dogs: List[List[np.ndarray]]) -> List[SiftKeypoint]:
    """3x3x3 local extrema with contrast and edge rejection."""
    keypoints: List[SiftKeypoint] = []
    for octave, octave_dogs in enumerate(dogs):
        for s in range(1, len(octave_dogs) - 1):
            below, center, above = octave_dogs[s - 1], octave_dogs[s], octave_dogs[s + 1]
            h, w = center.shape
            if h < 3 or w < 3:
                continue
            core = center[1:-1, 1:-1]
            strong = np.abs(core) > CONTRAST_THRESHOLD
            n_px = core.size
            counter.trace.load += n_px
            counter.trace.fcmp += n_px
            counter.trace.br_not += n_px - int(strong.sum())
            n_strong = int(strong.sum())
            if n_strong == 0:
                continue
            # Full 26-neighbour comparison for strong pixels, reduced view by
            # view: comparisons are exact, so the running max/min equal a
            # reduction over the stacked 3x3x3 neighbourhood.
            hi = core.copy()
            lo = core.copy()
            for img_s in (below, center, above):
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        view = img_s[1 + dy : h - 1 + dy, 1 + dx : w - 1 + dx]
                        np.maximum(hi, view, out=hi)
                        np.minimum(lo, view, out=lo)
            is_max = core >= hi
            is_min = core <= lo
            extrema = strong & (is_max | is_min)
            counter.trace.load += 26 * n_strong
            counter.trace.fcmp += 26 * n_strong
            counter.loop_overhead(n_strong)

            ys, xs = np.nonzero(extrema)
            for y, x in zip(ys, xs):
                yy, xx = y + 1, x + 1
                # Edge rejection via the 2x2 Hessian ratio test.
                dxx = center[yy, xx + 1] + center[yy, xx - 1] - 2 * center[yy, xx]
                dyy = center[yy + 1, xx] + center[yy - 1, xx] - 2 * center[yy, xx]
                dxy = 0.25 * (
                    center[yy + 1, xx + 1]
                    - center[yy + 1, xx - 1]
                    - center[yy - 1, xx + 1]
                    + center[yy - 1, xx - 1]
                )
                counter.flop_mix(add=10, mul=6)
                tr = dxx + dyy
                det = dxx * dyy - dxy * dxy
                counter.flop_mix(add=2, mul=3)
                if det <= 0 or tr * tr / det >= (EDGE_RATIO + 1) ** 2 / EDGE_RATIO:
                    counter.fcmp(2)
                    counter.branch(taken=False)
                    continue
                keypoints.append(
                    SiftKeypoint(
                        y=float(yy), x=float(xx), octave=octave, scale=s,
                        response=float(abs(center[yy, xx])), angle=0.0,
                    )
                )
                counter.branch()
    keypoints.sort(key=lambda kp: -kp.response)
    counter.trace.icmp += int(len(keypoints) * np.log2(len(keypoints) + 1)) * 2
    return keypoints[:MAX_KEYPOINTS]


def assign_orientations(
    counter: OpCounter,
    gaussians: List[List[np.ndarray]],
    keypoints: List[SiftKeypoint],
) -> List[SiftKeypoint]:
    """Dominant gradient orientation from a 36-bin weighted histogram."""
    out = []
    grads = {}
    for kp in keypoints:
        key = (kp.octave, kp.scale)
        if key not in grads:
            img = gaussians[kp.octave][kp.scale]
            grads[key] = image_gradients(counter, img)
        gx, gy = grads[key]
        h, w = gx.shape
        r = 8
        y0, y1 = int(max(kp.y - r, 0)), int(min(kp.y + r + 1, h))
        x0, x1 = int(max(kp.x - r, 0)), int(min(kp.x + r + 1, w))
        mag = np.hypot(gx[y0:y1, x0:x1], gy[y0:y1, x0:x1])
        ang = np.arctan2(gy[y0:y1, x0:x1], gx[y0:y1, x0:x1])
        n_px = mag.size
        # Per patch pixel: magnitude (sqrt), angle (atan2), bin, accumulate.
        counter.trace.fsqrt += n_px
        counter.trace.ffunc += n_px
        counter.trace.ffma += 2 * n_px
        counter.trace.load += 2 * n_px
        counter.loop_overhead(n_px)
        bins = ((ang + np.pi) / (2 * np.pi) * 36).astype(int) % 36
        hist = np.bincount(bins.ravel(), weights=mag.ravel(), minlength=36)
        angle = (np.argmax(hist) + 0.5) / 36 * 2 * np.pi - np.pi
        counter.trace.icmp += 36
        out.append(SiftKeypoint(kp.y, kp.x, kp.octave, kp.scale,
                                kp.response, float(angle)))
    return out


def compute_descriptors(
    counter: OpCounter,
    gaussians: List[List[np.ndarray]],
    keypoints: List[SiftKeypoint],
) -> np.ndarray:
    """128-dimensional gradient-histogram descriptors."""
    n_dim = DESCRIPTOR_WIDTH * DESCRIPTOR_WIDTH * DESCRIPTOR_BINS
    out = np.zeros((len(keypoints), n_dim), dtype=np.float32)
    grads = {}
    for ki, kp in enumerate(keypoints):
        key = (kp.octave, kp.scale)
        if key not in grads:
            img = gaussians[kp.octave][kp.scale]
            grads[key] = image_gradients(counter, img)
        gx, gy = grads[key]
        h, w = gx.shape
        r = 8  # 16x16 support window
        y0, y1 = int(max(kp.y - r, 0)), int(min(kp.y + r, h))
        x0, x1 = int(max(kp.x - r, 0)), int(min(kp.x + r, w))
        pgx = gx[y0:y1, x0:x1]
        pgy = gy[y0:y1, x0:x1]
        mag = np.hypot(pgx, pgy)
        ang = np.arctan2(pgy, pgx) - kp.angle
        n_px = mag.size
        counter.trace.fsqrt += n_px
        counter.trace.ffunc += n_px
        counter.trace.ffma += 6 * n_px  # trilinear interpolation weights
        counter.trace.load += 2 * n_px
        counter.trace.store += n_px
        counter.loop_overhead(n_px)

        desc = np.zeros((DESCRIPTOR_WIDTH, DESCRIPTOR_WIDTH, DESCRIPTOR_BINS))
        ys = np.linspace(0, DESCRIPTOR_WIDTH - 1e-6, mag.shape[0])
        xs = np.linspace(0, DESCRIPTOR_WIDTH - 1e-6, mag.shape[1])
        cell_y = ys.astype(int)[:, None] * np.ones_like(xs.astype(int))[None, :]
        cell_x = np.ones_like(ys.astype(int))[:, None] * xs.astype(int)[None, :]
        bins = ((ang + np.pi) / (2 * np.pi) * DESCRIPTOR_BINS).astype(int) % DESCRIPTOR_BINS
        np.add.at(desc, (cell_y.ravel(), cell_x.ravel(), bins.ravel()), mag.ravel())

        vec = desc.ravel()
        norm = np.linalg.norm(vec) + 1e-12
        vec = np.minimum(vec / norm, 0.2)
        norm2 = np.linalg.norm(vec) + 1e-12
        out[ki] = (vec / norm2).astype(np.float32)
        counter.trace.fdiv += 2 * n_dim
        counter.trace.fsqrt += 2
        counter.trace.fcmp += n_dim
        counter.trace.ffma += 2 * n_dim
    return out


def sift_detect_and_describe(counter: OpCounter, img: np.ndarray) -> tuple:
    """Full SIFT pipeline: (keypoints, descriptors)."""
    gaussians, dogs = build_scale_space(counter, img)
    keypoints = detect_extrema(counter, dogs)
    keypoints = assign_orientations(counter, gaussians, keypoints)
    descriptors = compute_descriptors(counter, gaussians, keypoints)
    return keypoints, descriptors


def scale_space_footprint_bytes(img_shape: Tuple[int, int]) -> int:
    """SRAM demand of the float scale space (why SIFT is M7-only).

    Even with incremental pyramid building, the working octave needs
    s+3 Gaussian floats plus s+2 DoG floats at full resolution, and the
    descriptor stage keeps gradient maps resident.
    """
    h, w = img_shape
    # The first octave runs at 2x resolution (Lowe's upsampled base).
    per_image = (2 * h) * (2 * w) * 4
    # Incremental pyramid + recomputed blurs keep only two full-size
    # Gaussian slices resident (base, current) plus one DoG —
    # the paper's space-saving strategy; anything less aggressive would
    # not fit even the M7.
    resident_slices = 2 * per_image + per_image
    descriptors = MAX_KEYPOINTS * 128 * 4
    extrema_flags = (h * w) // 2
    return resident_slices + descriptors + extrema_flags
