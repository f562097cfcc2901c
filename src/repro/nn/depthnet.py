"""A tiny monocular obstacle-proximity network (hand-designed weights).

The roadmap's "CNN-based monocular depth estimation" — scoped to what an
insect-scale MCU could actually run: an 80x80 grayscale frame in, a coarse
proximity verdict out (is a large obstacle looming?).  Rather than
training (no dataset ships with this repo), the network's filters are
*hand-designed* classical operators — center-surround and edge-energy
kernels — wired so that large, close, image-filling blobs score high and
fine distant texture scores low.  That makes the kernel a real, verifiable
computation with CNN-shaped cost, which is what the benchmark needs.
"""

from __future__ import annotations

import numpy as np

from repro.mcu.ops import OpCounter
from repro.nn.layers import (
    Conv2D,
    Dense,
    GlobalAveragePool,
    MaxPool2D,
    Network,
    ReLU,
)

INPUT_SHAPE = (1, 80, 80)


def _gaussian2d(size: int, sigma: float) -> np.ndarray:
    ax = np.arange(size) - size // 2
    g = np.exp(-(ax[:, None] ** 2 + ax[None, :] ** 2) / (2 * sigma**2))
    return g / g.sum()


def build_proximity_net() -> Network:
    """4-layer ConvNet with hand-designed feature extractors.

    A looming (close) obstacle carries its energy at *coarse* spatial
    scales; distant clutter lives at *fine* scales.  Layer 1 therefore
    extracts rectified coarse-DoG and fine-DoG responses (2 polarities
    each); layer 3 aggregates them into blob-vs-texture evidence maps; the
    head scores coarse energy against a fine-texture discount.
    """
    coarse = _gaussian2d(11, 1.8) - _gaussian2d(11, 4.5)
    fine = np.zeros((11, 11))
    fine[3:8, 3:8] = _gaussian2d(5, 0.8) - _gaussian2d(5, 2.0)
    w1 = np.zeros((4, 1, 11, 11))
    w1[0, 0] = coarse * 12.0
    w1[1, 0] = -coarse * 12.0
    w1[2, 0] = fine * 12.0
    w1[3, 0] = -fine * 12.0
    conv1 = Conv2D(w1, stride=1, padding="same", name="conv1")

    # Evidence aggregator: rectified polarities sum into two maps.
    w2 = np.zeros((2, 4, 3, 3))
    w2[0, 0] = 1.0 / 9.0  # coarse (blob) evidence
    w2[0, 1] = 1.0 / 9.0
    w2[1, 2] = 1.0 / 9.0  # fine (texture) evidence
    w2[1, 3] = 1.0 / 9.0
    conv2 = Conv2D(w2, stride=1, padding="same", name="conv2")

    # Head: proximity = coarse evidence minus a texture discount.
    head = Dense(np.array([[1.0, -0.6]]), np.array([0.0]), name="head")

    return Network(
        [conv1, ReLU(), MaxPool2D(2), conv2, ReLU(), MaxPool2D(2),
         GlobalAveragePool(), head],
        name="proximity-net",
    )


def proximity_score(counter: OpCounter, frame: np.ndarray,
                    net: Network = None) -> float:
    """Looming-obstacle score for one 80x80 uint8 frame (higher = closer)."""
    net = net if net is not None else build_proximity_net()
    x = frame.astype(np.float64)[None, :, :] / 255.0
    counter.vec_scale(x.size)
    out = net.forward(counter, x)
    return float(out[0])


def looming_scene(size: int = 80, radius: float = 26.0, contrast: float = 150.0,
                  seed: int = 0) -> np.ndarray:
    """A close, image-filling obstacle: one large high-contrast blob."""
    rng = np.random.default_rng(seed)
    ax = np.arange(size) - size / 2
    rr = np.sqrt(ax[:, None] ** 2 + ax[None, :] ** 2)
    img = 90.0 + contrast * (rr < radius) - 20.0 * np.clip(rr / size, 0, 1)
    img += rng.normal(0, 4, (size, size))
    return np.clip(img, 0, 255).astype(np.uint8)


def clear_scene(size: int = 80, seed: int = 0) -> np.ndarray:
    """Distant fine texture: high-frequency, low-amplitude detail."""
    rng = np.random.default_rng(seed)
    img = 110.0 + 18.0 * rng.standard_normal((size, size))
    # Fine checker-ish texture (distant ground).
    yy, xx = np.mgrid[0:size, 0:size]
    img += 12.0 * np.sign(np.sin(yy * 1.9) * np.sin(xx * 1.9))
    return np.clip(img, 0, 255).astype(np.uint8)
