"""SSIM map, SSIM/L1 losses, the fusion quality loss, and its analytic gradient.

The sliding SSIM value at pixel (i, j) is computed over the W x W window
centered there, with uniform (box) weighting, population variances, and
replicate-edge padding, so the quality map has the same shape as the input::

    SSIM = (2*mu_x*mu_y + C1) * (2*cov_xy + C2)
           -----------------------------------------
           (mu_x^2 + mu_y^2 + C1) * (var_x + var_y + C2)

The scalar SSIM loss is (1 - mean SSIM over masked window centers) / 2 and
the fusion loss blends it with the masked mean absolute error:
``alpha * ssim_loss + (1 - alpha) * l1``.  ``fusion_loss_and_grad`` returns
that scalar together with its exact derivative with respect to the
reconstruction, including the contribution of replicated border pixels,
from one computation of the window moments; training calls it once per
sample gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .imagecore import AnomalyMap, BinaryMask, Image2D

__all__ = [
    "SsimParams", "FusionParams", "AnomalyMap",
    "ssim_map", "ssim_loss", "l1_loss", "fusion_loss",
    "fusion_anomaly_map", "fusion_loss_and_grad", "fusion_loss_grad",
]


@dataclass(frozen=True)
class SsimParams:
    """Window size and the two stability constants of the two-factor SSIM.

    Defaults: W=5, C1=(0.01*L)^2, C2=(0.03*L)^2 with data range L=1.
    """

    W: int = 5
    C1: float = 1e-4
    C2: float = 9e-4

    def __post_init__(self):
        if self.W % 2 != 1 or self.W < 1:
            raise ValueError("window size must be odd and positive")
        if min(self.C1, self.C2) <= 0:
            raise ValueError("stability constants must be positive")


@dataclass(frozen=True)
class FusionParams:
    """Blend weight of the SSIM term; the L1 term gets ``1 - alpha``."""

    alpha: float = 0.84

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")


def _box_mean(a: np.ndarray, W: int) -> np.ndarray:
    # replicate-edge box mean, same shape as input
    return ndimage.uniform_filter(a, size=W, mode="nearest")


def _window_moments(x: np.ndarray, y: np.ndarray, W: int):
    mx = _box_mean(x, W)
    my = _box_mean(y, W)
    vx = _box_mean(x * x, W) - mx * mx
    vy = _box_mean(y * y, W) - my * my
    cov = _box_mean(x * y, W) - mx * my
    np.maximum(vx, 0.0, out=vx)
    np.maximum(vy, 0.0, out=vy)
    return mx, my, vx, vy, cov


def ssim_map(x: Image2D, y: Image2D, p: SsimParams = SsimParams()) -> np.ndarray:
    """Per-pixel sliding SSIM raster; values lie in [-1, 1] up to rounding
    (on nearly equal images the moments' cancellation can exceed 1 by
    about 1e-12)."""
    if x.pixels.shape != y.pixels.shape:
        raise ValueError("image dimensions do not match")
    mx, my, vx, vy, cov = _window_moments(x.pixels, y.pixels, p.W)
    num = (2.0 * mx * my + p.C1) * (2.0 * cov + p.C2)
    den = (mx * mx + my * my + p.C1) * (vx + vy + p.C2)
    return num / den


def _require_mask(x: Image2D, mask: BinaryMask | None) -> np.ndarray:
    """The mask's bits, all-true when there is no mask; never empty."""
    if mask is None:
        bits = np.ones(x.pixels.shape, dtype=bool)
    elif mask.bits.shape != x.pixels.shape:
        raise ValueError("mask dimensions do not match image")
    else:
        bits = mask.bits
    if not bits.any():
        raise ValueError("no windows")
    return bits


def ssim_loss(x: Image2D, y: Image2D, p: SsimParams = SsimParams(),
              mask: BinaryMask | None = None) -> float:
    """(1 - mean SSIM over masked window centers) / 2; lies in [0, 1]."""
    bits = _require_mask(x, mask)
    smap = ssim_map(x, y, p)
    return float((1.0 - smap[bits].mean()) / 2.0)


def l1_loss(x: Image2D, y: Image2D, mask: BinaryMask | None = None) -> float:
    """Mean absolute error over the masked pixels."""
    bits = _require_mask(x, mask)
    return float(np.abs(x.pixels - y.pixels)[bits].mean())


def fusion_loss(x: Image2D, y: Image2D, p: SsimParams = SsimParams(),
                f: FusionParams = FusionParams(),
                mask: BinaryMask | None = None) -> float:
    """alpha * ssim_loss + (1 - alpha) * masked mean absolute error."""
    return f.alpha * ssim_loss(x, y, p, mask) + (1.0 - f.alpha) * l1_loss(x, y, mask)


def fusion_anomaly_map(x: Image2D, y: Image2D, p: SsimParams = SsimParams(),
                       f: FusionParams = FusionParams()) -> AnomalyMap:
    """Per-pixel anomaly score: alpha * (1 - SSIM)/2 + (1 - alpha) * |x - y|."""
    if x.pixels.shape != y.pixels.shape:
        raise ValueError("image dimensions do not match")
    ssim_err = (1.0 - ssim_map(x, y, p)) / 2.0
    scores = f.alpha * ssim_err + (1.0 - f.alpha) * np.abs(x.pixels - y.pixels)
    # SSIM lies in [-1, 1] so the blend is nonnegative; guard rounding only
    np.maximum(scores, 0.0, out=scores)
    return AnomalyMap(scores)


def fusion_loss_grad(x: Image2D, y: Image2D, p: SsimParams = SsimParams(),
                     f: FusionParams = FusionParams(),
                     mask: BinaryMask | None = None) -> np.ndarray:
    """Exact gradient of :func:`fusion_loss` with respect to y, per pixel."""
    return fusion_loss_and_grad(x, y, p, f, mask)[1]


def _fold_groups(n: int, r: int):
    """(target, source) slice pairs folding a replicate-padded axis back.

    Padded index i of an axis of length n padded by r on each side copies
    pixel clip(i - r, 0, n - 1): target 0 collects the first r + 1 padded
    positions, target n - 1 the last r + 1, and every target in between has
    exactly one source.  A length-1 axis collects all 2r + 1 positions.
    """
    if n == 1:
        return [(slice(0, 1), slice(0, 2 * r + 1))]
    groups = [(slice(0, 1), slice(0, r + 1))]
    if n > 2:
        groups.append((slice(1, n - 1), slice(r + 1, r + n - 1)))
    groups.append((slice(n - 1, n), slice(r + n - 1, n + 2 * r)))
    return groups


def _fold_replicated(g_pad: np.ndarray, H: int, Wd: int, r: int) -> np.ndarray:
    """Sum a padded-image gradient onto the pixels the padding replicated.

    Each pixel receives its padded positions in row-major order, one after
    another, as an unbuffered scatter-add over the padded raster would add
    them: the edge strips are summed along their depth and each corner's
    (r + 1) x (r + 1) block as one flattened run.  A cumulative sum adds
    strictly in sequence, so the result equals ``np.add.at`` bit for bit.
    """
    grad = np.zeros((H, Wd))
    for tr, sr in _fold_groups(H, r):
        for tc, sc in _fold_groups(Wd, r):
            block = g_pad[sr, sc]
            nr, nc = tr.stop - tr.start, tc.stop - tc.start
            kr, kc = block.shape[0] // nr, block.shape[1] // nc
            if kr * kc == 1:
                grad[tr, tc] += block
                continue
            runs = block.reshape(nr, kr, nc, kc).transpose(0, 2, 1, 3)
            grad[tr, tc] += np.cumsum(runs.reshape(nr, nc, kr * kc), axis=2)[..., -1]
    return grad


def fusion_loss_and_grad(x: Image2D, y: Image2D, p: SsimParams = SsimParams(),
                         f: FusionParams = FusionParams(),
                         mask: BinaryMask | None = None) -> tuple[float, np.ndarray]:
    """:func:`fusion_loss` and its exact gradient with respect to y, per pixel.

    Both come from one computation of the window moments; the loss is
    bit-identical to :func:`fusion_loss`.  The SSIM part of the gradient
    differentiates the two-factor formula through each window's
    y-statistics (mean, variance, covariance) and accumulates over every
    window containing the pixel.  Border pixels enter multiple windows via
    replicate padding; those contributions are folded back onto their source
    pixels so the result matches finite differences of the actual loss.
    The gradient of |t| at t = 0 is taken to be 0.  Returns
    ``(loss, grad)`` with ``grad`` shaped like the image.
    """
    bits = _require_mask(x, mask)
    if x.pixels.shape != y.pixels.shape:
        raise ValueError("image dimensions do not match")

    xa, ya = x.pixels, y.pixels
    H, Wd = xa.shape
    W = p.W
    r = W // 2
    n = W * W
    K = int(bits.sum())

    mx, my, vx, vy, cov = _window_moments(xa, ya, W)
    A1 = 2.0 * mx * my + p.C1
    A2 = 2.0 * cov + p.C2
    B1 = mx * mx + my * my + p.C1
    B2 = vx + vy + p.C2

    # the same operations, in the same order, as ssim_loss and l1_loss
    smap = A1 * A2 / (B1 * B2)
    loss = (f.alpha * float((1.0 - smap[bits].mean()) / 2.0)
            + (1.0 - f.alpha) * float(np.abs(xa - ya)[bits].mean()))

    # dSSIM / d(window y-statistics), one value per window center
    d_mu = 2.0 * A2 * (mx * B1 - my * A1) / (B1 * B1 * B2)
    d_var = -A1 * A2 / (B1 * B2 * B2)
    d_cov = 2.0 * A1 / (B1 * B2)

    # chain through L_SSIM = (1 - mean_k SSIM_k) / 2 and the fusion blend
    scale = -f.alpha / (2.0 * K)
    c_mu = np.where(bits, scale * d_mu, 0.0)
    c_var = np.where(bits, scale * d_var, 0.0)
    c_cov = np.where(bits, scale * d_cov, 0.0)

    # box-sum each center map over the windows containing every padded
    # pixel: the five maps, zero-embedded, filtered as one stack
    centers = np.zeros((5, H + 2 * r, Wd + 2 * r))
    inner = centers[:, r:r + H, r:r + Wd]
    inner[0] = c_mu
    inner[1] = c_var
    inner[2] = c_var * my
    inner[3] = c_cov
    inner[4] = c_cov * mx
    s_mu, s_var, s_var_my, s_cov, s_cov_mx = ndimage.uniform_filter(
        centers, size=(1, W, W), mode="constant", cval=0.0) * n

    xp = np.pad(xa, r, mode="edge")
    yp = np.pad(ya, r, mode="edge")
    g_pad = (s_mu + 2.0 * (yp * s_var - s_var_my) + (xp * s_cov - s_cov_mx)) / n
    grad = _fold_replicated(g_pad, H, Wd, r)

    grad[bits] += (1.0 - f.alpha) * np.sign(ya - xa)[bits] / K
    return loss, grad
