"""Synthetic image datasets.

The paper's perception case study uses three datasets captured with a
NanEyeC micro-camera: a highly textured surface (plus Middlebury frames),
a sparse LED-lit scene mimicking the reduced-exposure trick of [51], and an
AprilTag scene.  Without the camera, these generators synthesize images
with the same controlling statistics:

* ``midd``   — dense natural texture: many corners, strong gradients
  everywhere.  Feature detectors and optical flow do maximum work.
* ``lights`` — a nearly black frame with a few bright blobs: very few
  corner candidates survive the threshold test, so detectors exit early
  almost everywhere and run fastest (the paper's observed ordering).
* ``april``  — high-contrast blocky tag patterns: the densest corner
  population of the three, the most expensive for the detectors.

All images are uint8 grayscale, default 160x160 for feature detection and
80x80 for optical flow, matching the paper's Section V sizes.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

FEATURE_IMAGE_SHAPE = (160, 160)
FLOW_IMAGE_SHAPE = (80, 80)


def textured(shape: Tuple[int, int] = FEATURE_IMAGE_SHAPE, seed: int = 0) -> np.ndarray:
    """Natural-texture stand-in ('midd'): multi-scale smoothed noise."""
    rng = np.random.default_rng(seed)
    h, w = shape
    img = np.zeros((h, w))
    for octave, weight in ((8, 0.5), (16, 0.3), (32, 0.2)):
        coarse = rng.uniform(0, 255, size=(h // octave + 2, w // octave + 2))
        ys = np.linspace(0, coarse.shape[0] - 1.001, h)
        xs = np.linspace(0, coarse.shape[1] - 1.001, w)
        yi, xi = np.floor(ys).astype(int), np.floor(xs).astype(int)
        fy, fx = (ys - yi)[:, None], (xs - xi)[None, :]
        c00 = coarse[np.ix_(yi, xi)]
        c01 = coarse[np.ix_(yi, xi + 1)]
        c10 = coarse[np.ix_(yi + 1, xi)]
        c11 = coarse[np.ix_(yi + 1, xi + 1)]
        layer = (
            c00 * (1 - fy) * (1 - fx)
            + c01 * (1 - fy) * fx
            + c10 * fy * (1 - fx)
            + c11 * fy * fx
        )
        img += weight * layer
    img += rng.normal(0, 6, size=shape)
    return np.clip(img, 0, 255).astype(np.uint8)


def sparse_lights(
    shape: Tuple[int, int] = FEATURE_IMAGE_SHAPE,
    n_lights: int = 8,
    seed: int = 0,
) -> np.ndarray:
    """Sparse LED scene: dark frame, a few saturated Gaussian blobs."""
    rng = np.random.default_rng(seed)
    h, w = shape
    img = rng.normal(6, 2, size=shape)
    yy, xx = np.mgrid[0:h, 0:w]
    for _ in range(n_lights):
        cy, cx = rng.uniform(8, h - 8), rng.uniform(8, w - 8)
        sigma = rng.uniform(1.2, 2.8)
        amp = rng.uniform(180, 255)
        img += amp * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma**2))
    return np.clip(img, 0, 255).astype(np.uint8)


def april_tags(
    shape: Tuple[int, int] = FEATURE_IMAGE_SHAPE,
    n_tags: int = 16,
    seed: int = 0,
) -> np.ndarray:
    """AprilTag-like scene: dense blocky high-contrast grids over texture.

    The densest corner population of the three datasets — every cell
    boundary is a strong corner — making it the most expensive input for
    the feature detectors, as the paper's Table VI/Fig. 3 show.
    """
    rng = np.random.default_rng(seed)
    h, w = shape
    # Textured background (a tabletop), so inter-tag regions also produce
    # detector work.
    img = textured(shape, seed=seed + 101).astype(np.float64) * 0.5 + 64.0
    for _ in range(n_tags):
        cell = int(rng.integers(3, 5))
        grid = rng.integers(0, 2, size=(8, 8)) * 255
        grid[0, :] = grid[-1, :] = grid[:, 0] = grid[:, -1] = 0  # border
        tag = np.kron(grid, np.ones((cell, cell)))
        th, tw = tag.shape
        y0 = int(rng.integers(2, max(h - th - 2, 3)))
        x0 = int(rng.integers(2, max(w - tw - 2, 3)))
        img[y0 : y0 + th, x0 : x0 + tw] = tag
    img += rng.normal(0, 3, size=shape)
    return np.clip(img, 0, 255).astype(np.uint8)


GENERATORS = {
    "midd": textured,
    "lights": sparse_lights,
    "april": april_tags,
}


def load(name: str, shape: Tuple[int, int] = FEATURE_IMAGE_SHAPE, seed: int = 0) -> np.ndarray:
    """Load a dataset frame by name ('midd', 'lights', 'april')."""
    try:
        gen = GENERATORS[name]
    except KeyError:
        raise KeyError(f"unknown image dataset {name!r}; known: {sorted(GENERATORS)}") from None
    return gen(shape=shape, seed=seed)


def shift_image(img: np.ndarray, dy: float, dx: float) -> np.ndarray:
    """Subpixel-shift an image bilinearly (synthesizes optical-flow pairs)."""
    h, w = img.shape
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    sy, sx = yy - dy, xx - dx
    sy = np.clip(sy, 0, h - 1.001)
    sx = np.clip(sx, 0, w - 1.001)
    y0, x0 = np.floor(sy).astype(int), np.floor(sx).astype(int)
    fy, fx = sy - y0, sx - x0
    img_f = img.astype(np.float64)
    out = (
        img_f[y0, x0] * (1 - fy) * (1 - fx)
        + img_f[y0, x0 + 1] * (1 - fy) * fx
        + img_f[y0 + 1, x0] * fy * (1 - fx)
        + img_f[y0 + 1, x0 + 1] * fy * fx
    )
    return np.clip(out, 0, 255).astype(np.uint8)


def flow_pair(
    name: str = "midd",
    shape: Tuple[int, int] = FLOW_IMAGE_SHAPE,
    displacement: Tuple[float, float] = (1.6, -2.3),
    noise_std: float = 1.5,
    seed: int = 0,
) -> Dict[str, np.ndarray]:
    """An optical-flow image pair with known ground-truth displacement."""
    rng = np.random.default_rng(seed + 17)
    frame0 = load(name, shape=shape, seed=seed)
    frame1 = shift_image(frame0, *displacement)
    if noise_std > 0:
        noisy = frame1.astype(np.float64) + rng.normal(0, noise_std, size=shape)
        frame1 = np.clip(noisy, 0, 255).astype(np.uint8)
    return {
        "frame0": frame0,
        "frame1": frame1,
        "true_flow": np.array(displacement, dtype=np.float64),
    }
