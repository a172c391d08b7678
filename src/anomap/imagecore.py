"""Raster containers, windowed statistics, region median filter, and morphology.

Everything downstream (losses, diffusion, evaluation) works on the
containers defined here: ``Image2D`` for grayscale rasters, ``BinaryMask``
for foreground / ground-truth masks and ``AnomalyMap`` for score rasters.
All operations are pure functions; inputs are never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy import ndimage


@dataclass(frozen=True)
class BinaryMask:
    """Row-major boolean raster."""

    bits: np.ndarray  # bool, shape (height, width)

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=bool)
        if bits.ndim != 2:
            raise ValueError("mask must be 2-D")
        object.__setattr__(self, "bits", bits)

    @property
    def height(self) -> int:
        return self.bits.shape[0]

    @property
    def width(self) -> int:
        return self.bits.shape[1]

    def count(self) -> int:
        return int(self.bits.sum())


@dataclass(frozen=True)
class Image2D:
    """Grayscale raster with an optional foreground mask.

    Pixel values are dimensionless, finite intensities.  Phantoms put every
    foreground pixel in [0, 1] and every background pixel at exactly 0, and
    the intensity flip (``airprep.apply``) requires foreground values in
    [0, 1]; nothing rescales an image to that range.
    """

    pixels: np.ndarray  # float64, shape (height, width)
    foreground: Optional[BinaryMask] = None

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=np.float64)
        if px.ndim != 2:
            raise ValueError("image must be 2-D")
        if not np.all(np.isfinite(px)):
            raise ValueError("image contains non-finite pixels")
        if self.foreground is not None and self.foreground.bits.shape != px.shape:
            raise ValueError("foreground mask dimensions do not match image")
        object.__setattr__(self, "pixels", px)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    def fg_bits(self) -> np.ndarray:
        """Foreground bits, defaulting to all-true when no mask is attached."""
        if self.foreground is None:
            return np.ones(self.pixels.shape, dtype=bool)
        return self.foreground.bits


@dataclass(frozen=True)
class AnomalyMap:
    """Per-pixel nonnegative anomaly score raster."""

    scores: np.ndarray  # float64, shape (height, width)

    def __post_init__(self):
        s = np.asarray(self.scores, dtype=np.float64)
        if s.ndim != 2:
            raise ValueError("anomaly map must be 2-D")
        if not np.all(np.isfinite(s)):
            raise ValueError("anomaly map contains non-finite scores")
        if np.any(s < 0):
            raise ValueError("anomaly scores must be nonnegative")
        object.__setattr__(self, "scores", s)

    @property
    def height(self) -> int:
        return self.scores.shape[0]

    @property
    def width(self) -> int:
        return self.scores.shape[1]


class WindowStats(NamedTuple):
    mean_x: float
    mean_y: float
    var_x: float
    var_y: float
    cov_xy: float


def window_stats(x: Image2D, y: Image2D, center_row: int, center_col: int,
                 W: int) -> WindowStats:
    """Uniform means, population variances and covariance over one W x W window.

    The window is centered at (center_row, center_col) with replicate-edge
    padding, matching the convention of the sliding SSIM map.
    """
    if x.pixels.shape != y.pixels.shape:
        raise ValueError("image dimensions do not match")
    if W % 2 != 1:
        raise ValueError("window size must be odd")
    r = W // 2
    xp = np.pad(x.pixels, r, mode="edge")
    yp = np.pad(y.pixels, r, mode="edge")
    wx = xp[center_row:center_row + W, center_col:center_col + W]
    wy = yp[center_row:center_row + W, center_col:center_col + W]
    mx = float(wx.mean())
    my = float(wy.mean())
    vx = max(float(((wx - mx) ** 2).mean()), 0.0)
    vy = max(float(((wy - my) ** 2).mean()), 0.0)
    cov = float(((wx - mx) * (wy - my)).mean())
    return WindowStats(mx, my, vx, vy, cov)


_MEDIAN_STRIP_ROWS = 16  # rows whose region windows are partitioned at once


def median_filter(amap: AnomalyMap, K: int, region: BinaryMask) -> AnomalyMap:
    """K x K median filter with replicate-edge padding, computed only at
    ``region`` pixels; every other pixel is +0.0 (paper default K=5).

    Inside the region this equals
    ``scipy.ndimage.median_filter(size=K, mode="nearest")``: the median of
    an odd count is one of the window's own values, found here by
    ``np.partition`` on the region windows of strips of at most
    ``_MEDIAN_STRIP_ROWS`` rows, so the transient memory does not grow with
    the image height.  Metrics read scores only inside the eroded brain
    mask, so the pixels outside it are never ranked.
    """
    if K % 2 != 1:
        raise ValueError("kernel size must be odd")
    bits = region.bits
    if bits.shape != amap.scores.shape:
        raise ValueError("region dimensions do not match anomaly map")
    H = bits.shape[0]
    windows = np.lib.stride_tricks.sliding_window_view(
        np.pad(amap.scores, K // 2, mode="edge"), (K, K))
    mid = K * K // 2
    out = np.zeros(bits.shape)
    for r0 in range(0, H, _MEDIAN_STRIP_ROWS):
        rows = slice(r0, r0 + _MEDIAN_STRIP_ROWS)
        sel = bits[rows]
        flat = windows[rows][sel].reshape(-1, K * K)
        flat.partition(mid, axis=-1)
        out[rows][sel] = flat[:, mid]
    return AnomalyMap(out)


_ERODE_STRUCTURE = np.ones((3, 3), dtype=bool)  # 8-connected full neighborhood


def erode(mask: BinaryMask, iterations: int = 3) -> BinaryMask:
    """Repeated 3x3 full-neighborhood erosion; off-image pixels count as background."""
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    if iterations == 0:
        return BinaryMask(mask.bits.copy())
    out = ndimage.binary_erosion(mask.bits, structure=_ERODE_STRUCTURE,
                                 iterations=iterations, border_value=0)
    return BinaryMask(out)
