"""SSIM map, the fusion quality loss, and its analytic gradient.

The sliding SSIM value at pixel (i, j) is computed over the W x W window
centered there, with uniform (box) weighting, population variances, and
replicate-edge padding, so the quality map has the same shape as the input::

    SSIM = (2*mu_x*mu_y + C1) * (2*cov_xy + C2)
           -----------------------------------------
           (mu_x^2 + mu_y^2 + C1) * (var_x + var_y + C2)

The scalar SSIM loss is (1 - mean SSIM over masked window centers) / 2 and
the fusion loss blends it with the masked mean absolute error:
``alpha * L_SSIM + (1 - alpha) * l1``.  L_SSIM and l1 are the fusion loss at
alpha = 1 and 0 (the latter computes an SSIM term it weights by 0, so its
value does not depend on the window), so each masked mean is written once.
The loss comes with its exact derivative with respect to the
reconstruction, including the contribution of replicated border pixels,
from one computation of the window moments.  The gradient is taken on the
edge-padded raster and folded back onto the image by one weighted
``np.bincount``.

Both training losses compare a fixed image x with a reconstruction y.  The
half that depends on x alone is a :class:`LossTarget` (:func:`loss_target`):
x's pixels, the mask bits and their count K, the window size, and x's box
mean ``mx`` and clamped box variance ``vx`` from one 2-slice filter of
``(x, x*x)``; every array in it is read-only.  Its :meth:`LossTarget.loss`
and :meth:`LossTarget.loss_and_grad` score a raw ``(H, W)`` prediction
against it: :func:`fusion_loss` and :func:`fusion_loss_grad` build a target
for their x and mask and call them, and a caller that scores many
predictions against one x (``denoise.train``, one gradient per sample;
``anomap iqa``, the loss at three alphas) builds it once and calls them
directly.  Each slice is box-filtered exactly as on its own, so the results
are the same bits either way, and the same as :func:`ssim_map`'s
single 5-slice filter.

The large buffers of a call are one workspace per thread, kept for the last
image shape and window radius and overwritten by the next call: y's half of
the moments ``(3, H, W)`` (``y``, ``y*y``, ``x*y``), the five zero-embedded
center maps and the two edge-padded images, each ``(H + 2r, W + 2r)``, and
the bincount fold index over the padded raster; about 390 KB at 64 px with
W = 5.  Allocated afresh each call, they went back to the OS whenever the
heap top crossed glibc's trim threshold, and every call faulted them in
again (about 180 minor page faults per 64 px gradient); the smaller
per-pixel intermediates are dropped as soon as they are used, so that they
too stay under the threshold.  Nothing a caller receives aliases the
workspace: the loss is a Python float and the gradient a fresh array.

:func:`ssim_map` keeps its five window moments in one ``(5, H, Wd | 1)``
stack: an even-width image gets a spare zero column, so every row has odd
length.  The box filter's pass along the image columns steps from row to
row by the row length; at 1 KiB rows (128 px) every step lands on the same
cache sets, and ``uniform_filter`` on the ``(5, H, Wd)`` view of 129-long
rows took 215 us against 460 us on the contiguous 128 px stack (2.1x; 2.7x
at 256 px, 1.6x at 192 px, none at 64 px; 2-core AMD EPYC, scipy 1.17.1).
The filter runs on the view, so the bits are the same; the products and
the SSIM formula run on the whole rows, where the spare column stays at 0
and 1, and an even width's map is copied out as a contiguous ``(H, Wd)``
array.  Whole rows keep a 64 px map within about 2% of the contiguous
stack; the same math on strided ``(H, Wd)`` views cost 21% more.  The
training stacks (:func:`loss_target`, the gradient workspace) keep rows as
long as the image's; no workload trains on 128 px images.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np
from scipy import ndimage

from .imagecore import AnomalyMap, BinaryMask, Image2D

__all__ = [
    "SsimParams", "FusionParams", "LossTarget", "ssim_map", "loss_target",
    "fusion_loss", "fusion_anomaly_map", "fusion_loss_grad",
]


@dataclass(frozen=True)
class SsimParams:
    """Window size of the two-factor SSIM (default 5) and its two stability
    constants, fixed at C1=(0.01*L)^2 and C2=(0.03*L)^2 for data range L=1.
    """

    W: int = 5
    C1: ClassVar[float] = 1e-4
    C2: ClassVar[float] = 9e-4

    def __post_init__(self):
        if self.W % 2 != 1 or self.W < 1:
            raise ValueError("window size must be odd and positive")


@dataclass(frozen=True)
class FusionParams:
    """Blend weight of the SSIM term; the L1 term gets ``1 - alpha``."""

    alpha: float = 0.84

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha = {self.alpha} must lie in [0, 1]")


def _window_moments(x: np.ndarray, y: np.ndarray, W: int):
    # replicate-edge box means of x, y, x*x, y*y and x*y, filtered in place
    # as one stack: a size-1 axis is skipped, so each slice is filtered
    # exactly as on its own.  The stack's rows are Wd | 1 long (see the
    # module docstring): the image fills the first Wd columns, and an even
    # width's spare column holds zeros, which every step below keeps at 0;
    # the products are taken on the whole rows
    H, Wd = x.shape
    buf = np.empty((5, H, Wd | 1))
    buf[:2, :, Wd:] = 0.0
    buf[0, :, :Wd], buf[1, :, :Wd] = x, y
    xs, ys = buf[0], buf[1]
    np.multiply(xs, xs, out=buf[2])
    np.multiply(ys, ys, out=buf[3])
    np.multiply(xs, ys, out=buf[4])
    img = buf[:, :, :Wd]
    ndimage.uniform_filter(img, size=(1, W, W), output=img, mode="nearest")
    mx, my, vx, vy, cov = buf
    vx -= mx * mx
    vy -= my * my
    cov -= mx * my
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
    num /= den
    # the math ran on whole rows; copy out all but an even width's spare
    # column (an odd width's rows are returned as they are)
    return np.ascontiguousarray(num[:, :x.width])


class _Workspace(NamedTuple):
    moments: np.ndarray   # (3, H, W): y's box mean, variance, covariance
    centers: np.ndarray   # (5, H + 2r, W + 2r)
    pads: np.ndarray      # (2, H + 2r, W + 2r)
    fold: np.ndarray      # (H + 2r) * (W + 2r) row-major pixel indices


_workspace = threading.local()


def _thread_workspace(H: int, Wd: int, r: int) -> _Workspace:
    """This thread's scratch buffers for an H x Wd image and window radius
    r.  Only the last shape's buffers are kept."""
    if getattr(_workspace, "key", None) != (H, Wd, r):
        P, Q = H + 2 * r, Wd + 2 * r
        # each padded position folds onto the pixel it copies
        rows = np.clip(np.arange(P) - r, 0, H - 1)
        cols = np.clip(np.arange(Q) - r, 0, Wd - 1)
        _workspace.buffers = _Workspace(
            np.empty((3, H, Wd)), np.empty((5, P, Q)), np.empty((2, P, Q)),
            (rows[:, None] * Wd + cols).ravel())
        _workspace.key = (H, Wd, r)
    return _workspace.buffers


def _edge_pad(a: np.ndarray, r: int, out: np.ndarray) -> np.ndarray:
    """``np.pad(a, r, mode="edge")`` written into ``out``."""
    H, Wd = a.shape
    out[r:r + H, r:r + Wd] = a
    out[:r, r:r + Wd] = a[0]
    out[r + H:, r:r + Wd] = a[-1]
    out[:, :r] = out[:, r:r + 1]
    out[:, r + Wd:] = out[:, r + Wd - 1:r + Wd]
    return out


@dataclass(frozen=True)
class LossTarget:
    """The half of the masked fusion loss that depends on x alone.

    ``x`` is x's pixels, ``bits`` the mask and ``K`` its count, ``W`` the
    window size, and ``mx`` / ``vx`` x's replicate-edge box mean and
    variance (clamped at 0).  Every array is read-only; ``x`` and ``bits``
    are views of the caller's arrays, not copies.  Build it with
    :func:`loss_target`.  :meth:`loss` and :meth:`loss_and_grad` score a
    raw prediction y, an array of x's shape, against it.
    """

    x: np.ndarray
    bits: np.ndarray
    K: int
    W: int
    mx: np.ndarray
    vx: np.ndarray

    def _ssim_factors(self, y: np.ndarray):
        """This thread's workspace, y's box mean and the four SSIM factors
        of every window, from the target and one 3-slice filter of
        ``(y, y*y, x*y)`` in the workspace: ``SSIM = A1 * A2 / (B1 * B2)``.
        Rejects a y of another shape than x."""
        if y.shape != self.x.shape:
            raise ValueError("image dimensions do not match")
        ws = _thread_workspace(*y.shape, self.W // 2)
        moments = ws.moments
        moments[0] = y
        np.multiply(y, y, out=moments[1])
        np.multiply(self.x, y, out=moments[2])
        ndimage.uniform_filter(moments, size=(1, self.W, self.W),
                               output=moments, mode="nearest")
        my, vy, cov = moments
        vy -= my * my
        cov -= self.mx * my
        np.maximum(vy, 0.0, out=vy)
        A1 = 2.0 * self.mx * my + SsimParams.C1
        A2 = 2.0 * cov + SsimParams.C2
        B1 = self.mx * self.mx + my * my + SsimParams.C1
        B2 = self.vx + vy + SsimParams.C2
        return ws, my, A1, A2, B1, B2

    def _masked_loss(self, y: np.ndarray, f: FusionParams,
                     A1A2: np.ndarray, B1B2: np.ndarray) -> float:
        # the SSIM map is dropped before the L1 term's two (H, W)
        # temporaries exist
        ssim = float((1.0 - (A1A2 / B1B2)[self.bits].mean()) / 2.0)
        return (f.alpha * ssim
                + (1.0 - f.alpha) * float(np.abs(self.x - y)[self.bits].mean()))

    def loss(self, y: np.ndarray, f: FusionParams) -> float:
        """alpha * L_SSIM + (1 - alpha) * masked mean absolute error of
        the prediction ``y`` against x."""
        _, _, A1, A2, B1, B2 = self._ssim_factors(y)
        return self._masked_loss(y, f, A1 * A2, B1 * B2)

    def loss_and_grad(self, y: np.ndarray, f: FusionParams
                      ) -> tuple[float, np.ndarray]:
        """:meth:`loss` and its exact gradient with respect to ``y``, per
        pixel.

        Both come from one computation of the window moments; the loss is
        bit-identical to :meth:`loss`.  The SSIM part of the gradient
        differentiates the two-factor formula through each window's
        y-statistics (mean, variance, covariance) and accumulates over
        every window containing the pixel.  Border pixels enter multiple
        windows via replicate padding; one weighted ``np.bincount`` adds
        every padded position, in row-major order, onto the pixel it
        copies, so the result matches finite differences of the actual
        loss.  The gradient of |t| at t = 0 is taken to be 0.  Returns
        ``(loss, grad)`` with ``grad`` shaped like ``y``.

        The intermediate stacks live in this thread's workspace for the
        image shape and window (see the module docstring); ``loss`` is a
        Python float and ``grad`` a fresh array, so neither changes when the
        next call reuses the workspace.
        """
        ws, my, A1, A2, B1, B2 = self._ssim_factors(y)
        xa, bits, mx = self.x, self.bits, self.mx
        H, Wd = y.shape
        W = self.W
        r = W // 2
        n = W * W

        A1A2 = A1 * A2
        B1B2 = B1 * B2
        loss = self._masked_loss(y, f, A1A2, B1B2)

        # dSSIM / d(window y-statistics), one value per window center; each
        # (H, W) intermediate is dropped once used: the call's heap peak then
        # stays under glibc's trim threshold, and the next call does not fault
        # the freed pages in again
        d_var = -A1A2 / (B1B2 * B2)
        d_cov = 2.0 * A1 / B1B2
        del A1A2, B1B2
        d_mu = 2.0 * A2 * (mx * B1 - my * A1) / (B1 * B1 * B2)
        del A1, A2, B1, B2

        # chain through L_SSIM = (1 - mean_k SSIM_k) / 2 and the fusion blend
        scale = -f.alpha / (2.0 * self.K)

        # box-sum each center map over the windows containing every padded
        # pixel: the five maps, zero off the mask and zero-embedded, filtered
        # as one stack; the last call's filter left the border non-zero, so
        # the whole stack is cleared
        centers = ws.centers
        centers.fill(0.0)
        inner = centers[:, r:r + H, r:r + Wd]
        np.multiply(scale, d_mu, out=inner[0], where=bits)
        np.multiply(scale, d_var, out=inner[1], where=bits)
        np.multiply(inner[1], my, out=inner[2])
        np.multiply(scale, d_cov, out=inner[3], where=bits)
        np.multiply(inner[3], mx, out=inner[4])
        del d_mu, d_var, d_cov
        # one size-(1, W, W) filter, not two uniform_filter1d passes: it skips
        # a size-1 axis, where uniform_filter1d's running sum would change bits
        ndimage.uniform_filter(centers, size=(1, W, W), output=centers,
                               mode="constant")
        centers *= n
        s_mu, s_var, s_var_my, s_cov, s_cov_mx = centers

        xp = _edge_pad(xa, r, ws.pads[0])
        yp = _edge_pad(y, r, ws.pads[1])
        g_pad = (s_mu + 2.0 * (yp * s_var - s_var_my) + (xp * s_cov - s_cov_mx)) / n
        # bincount sums each bin in input order from 0.0: np.add.at's exact bits
        grad = np.bincount(ws.fold, weights=g_pad.ravel()).reshape(H, Wd)

        grad[bits] += (1.0 - f.alpha) * np.sign(y - xa)[bits] / self.K
        return loss, grad


def loss_target(x: Image2D, p: SsimParams = SsimParams(),
                mask: BinaryMask | None = None) -> LossTarget:
    """The x half of :func:`fusion_loss` and :func:`fusion_loss_grad` for
    x, window ``p.W`` and ``mask`` (all pixels when None), for any y and
    alpha: one 2-slice box filter of ``(x, x*x)``, ``2 * H * W * 8`` bytes."""
    xa = x.pixels
    if mask is None:
        bits = np.ones(xa.shape, dtype=bool)
    elif mask.bits.shape != xa.shape:
        raise ValueError("mask dimensions do not match image")
    else:
        bits = mask.bits
    if not bits.any():
        raise ValueError("no windows")
    m = np.empty((2, *xa.shape))
    m[0] = xa
    np.multiply(xa, xa, out=m[1])
    ndimage.uniform_filter(m, size=(1, p.W, p.W), output=m, mode="nearest")
    mx, vx = m
    vx -= mx * mx
    np.maximum(vx, 0.0, out=vx)
    xv, bv = xa.view(), bits.view()  # read-only views of the caller's arrays
    for a in (xv, bv, m):
        a.flags.writeable = False
    return LossTarget(xv, bv, int(bits.sum()), p.W, m[0], m[1])


def fusion_loss(x: Image2D, y: Image2D, p: SsimParams = SsimParams(),
                f: FusionParams = FusionParams(),
                mask: BinaryMask | None = None) -> float:
    """alpha * L_SSIM + (1 - alpha) * masked mean absolute error:
    :meth:`LossTarget.loss` against ``loss_target(x, p, mask)``."""
    return loss_target(x, p, mask).loss(y.pixels, f)


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
    """Exact gradient of :func:`fusion_loss` with respect to y, per pixel:
    :meth:`LossTarget.loss_and_grad` against ``loss_target(x, p, mask)``."""
    return loss_target(x, p, mask).loss_and_grad(y.pixels, f)[1]
