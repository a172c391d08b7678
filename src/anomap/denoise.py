"""Reconstruction models: a Gaussian-blur baseline, a test oracle, and a
trainable kernel mixture.

Every model implements ``denoise(x_t, t) -> Image2D`` with the same contract:
output dimensions equal input dimensions, values are finite, and background
pixels stay 0.  The kernel mixture is linear in its parameters (per-t-bucket
weights over fixed blur kernels plus a bias) so its training gradients under
the fusion loss are exact.

Every model also declares a ``receptive_radius``: the Chebyshev distance
beyond which an input pixel cannot change an output pixel, with image edges
replicated.  On a crop, a local model gives every pixel farther than that
radius from a cut edge the same value as on the whole image.  The blur and
the kernel mixture are local (the radius of their widest kernel), so
:func:`diffusion.reconstruct_from_fields` hands them only a patch plus that
halo, clipped to the image; the oracle declares ``None`` (global) and
always sees the whole image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, List, Optional, Sequence

import numpy as np
from scipy import ndimage

from . import iqa
from .diffusion import DiffusionSchedule, derive_seed, forward_noise, make_field
from .imagecore import BinaryMask, Image2D
from .iqa import FusionParams, SsimParams


def _mask_background(pixels: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """``pixels``, zeroed in place off the foreground ``bits``."""
    pixels[~bits] = 0.0
    return pixels


def _clamp(pre: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """A prediction's pixels: ``pre`` clamped to [0, 1], zeroed off ``bits``."""
    return _mask_background(np.clip(pre, 0.0, 1.0), bits)


def gaussian_kernel_1d(sigma: float) -> np.ndarray:
    """Normalized 1-D Gaussian sampled at integer offsets, radius ceil(3*sigma)."""
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, not {sigma}")
    radius = int(np.ceil(3.0 * sigma))
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (offsets / sigma) ** 2)
    return k / k.sum()


def check_blur_sigma(sigma: float, height: int, width: int) -> None:
    """Reject a blur whose kernel radius, ceil(3 * sigma), exceeds the
    image's larger side (at sigma = 1e9 the kernel would take 48 GB)."""
    side = max(height, width)
    if 3.0 * sigma > side:
        raise ValueError(f"blur_sigma = {sigma} gives a kernel radius of "
                         f"{math.ceil(3.0 * sigma)} px, above the larger "
                         f"image side, {side} px")


def _separable_blur(a: np.ndarray, k1d: np.ndarray) -> np.ndarray:
    out = ndimage.correlate1d(a, k1d, axis=0, mode="nearest")
    return ndimage.correlate1d(out, k1d, axis=1, mode="nearest")


class BlurDenoiser:
    """Gaussian-blurred passthrough; ignores t.  Analytic pipeline baseline."""

    def __init__(self, sigma: float):
        self.sigma = float(sigma)
        self._k1d = gaussian_kernel_1d(sigma)
        self.receptive_radius = len(self._k1d) // 2

    def denoise(self, x_t: Image2D, t: int) -> Image2D:
        return Image2D(_mask_background(_separable_blur(x_t.pixels, self._k1d),
                                        x_t.fg_bits()), x_t.foreground)


def blur_denoiser(sigma: float) -> BlurDenoiser:
    return BlurDenoiser(sigma)


class OracleDenoiser:
    """Returns a stored clean image regardless of input; test instrumentation."""

    receptive_radius = None  # its output is the stored image, so whole images only

    def __init__(self, original: Image2D):
        self.original = original

    def denoise(self, x_t: Image2D, t: int) -> Image2D:
        if self.original.pixels.shape != x_t.pixels.shape:
            raise ValueError("oracle image dimensions do not match input")
        return Image2D(_mask_background(self.original.pixels.copy(), x_t.fg_bits()),
                       x_t.foreground)


DEFAULT_KERNEL_SIGMAS = (0.5, 1.0, 2.0, 4.0)
DEFAULT_T_BUCKETS = 8


@dataclass
class KernelMixtureModel:
    """Per-t-bucket linear mixture of fixed blur kernels plus a bias.

    Prediction: ``clip(sum_k w[b,k] * blur_k(x_t) + bias[b], 0, 1)`` on the
    foreground, where ``b`` is the bucket containing t.  Kernel 0 is the
    identity; the rest are Gaussians of increasing width.
    """

    T: int
    sigmas: Sequence[float] = DEFAULT_KERNEL_SIGMAS
    n_buckets: ClassVar[int] = DEFAULT_T_BUCKETS
    weights: np.ndarray = field(default=None)  # (B, K)
    biases: np.ndarray = field(default=None)   # (B,)

    def __post_init__(self):
        K = self.n_kernels
        if self.weights is None:
            # Zero weights + mid-range bias: the fresh model is a constant-0.5
            # predictor whose pre-clamp output sits strictly inside (0, 1), so
            # the first training step always sees a live gradient.  A uniform
            # 1/K weight init feeds raw corruption noise through at high t,
            # which starts training inside a saturation basin it rarely leaves.
            self.weights = np.zeros((self.n_buckets, K))
        if self.biases is None:
            self.biases = np.full(self.n_buckets, 0.5)
        self._k1ds = [None] + [gaussian_kernel_1d(s) for s in self.sigmas]

    @property
    def n_kernels(self) -> int:
        return 1 + len(self.sigmas)

    @property
    def receptive_radius(self) -> int:
        """Radius of the widest Gaussian kernel; 0 for the identity alone."""
        return max((len(k1d) // 2 for k1d in self._k1ds[1:]), default=0)

    def bucket(self, t: int) -> int:
        if not 1 <= t <= self.T:
            raise ValueError(f"t = {t} outside [1, {self.T}]")
        return min((t - 1) * self.n_buckets // self.T, self.n_buckets - 1)

    def kernel_responses(self, pixels: np.ndarray) -> List[np.ndarray]:
        """Blurred copies of the input, one per kernel (identity first)."""
        out = [pixels]
        for k1d in self._k1ds[1:]:
            out.append(_separable_blur(pixels, k1d))
        return out

    def mix(self, resp: Sequence[np.ndarray], t: int) -> np.ndarray:
        """Pre-clamp prediction from the kernel responses of x_t."""
        b = self.bucket(t)
        out = np.full(resp[0].shape, self.biases[b])
        for k, rk in enumerate(resp):
            out += self.weights[b, k] * rk
        return out

    def denoise(self, x_t: Image2D, t: int) -> Image2D:
        pre = self.mix(self.kernel_responses(x_t.pixels), t)
        return Image2D(_clamp(pre, x_t.fg_bits()), x_t.foreground)


@dataclass(frozen=True)
class TrainConfig:
    """learning_rate is the initial step size; it adapts during training."""

    epochs: int = 300
    learning_rate: float = 0.1
    batch_size: int = 8
    seed: int = 0
    noise_kind: str = "simplex"

    def __post_init__(self):
        if not 0.0 <= self.learning_rate < math.inf:
            raise ValueError(f"learning_rate = {self.learning_rate} "
                             "must be finite and >= 0")
        if self.batch_size < 1:
            raise ValueError(f"batch_size = {self.batch_size} must be >= 1")
        if self.epochs < 0:
            raise ValueError(f"epochs = {self.epochs} must be >= 0")


def sample_gradients(m: KernelMixtureModel, t: int, f: FusionParams,
                     resp: Sequence[np.ndarray], target: iqa.LossTarget):
    """Loss value and parameter gradients of L_FQ(x0, denoise(x_t, t)), from
    the caller's ``resp = m.kernel_responses(x_t.pixels)`` and ``target =
    iqa.loss_target(x0, p, BinaryMask(x0.fg_bits()))``, which holds x0's
    pixels, the SSIM window and x0's foreground.  The clamp passes through
    inside (0, 1) and has zero gradient outside, so the chain rule is exact
    away from the clamp boundary.
    """
    b = m.bucket(t)
    pre = m.mix(resp, t)
    loss, g = target.loss_and_grad(_clamp(pre, target.bits), f)
    passthrough = (pre > 0.0) & (pre < 1.0) & target.bits
    g = np.where(passthrough, g, 0.0)

    gw = np.zeros_like(m.weights)
    gb = np.zeros_like(m.biases)
    for k, rk in enumerate(resp):
        gw[b, k] = float((g * rk).sum())
    gb[b] = float(g.sum())
    return loss, gw, gb


@dataclass
class TrainResult:
    model: KernelMixtureModel
    loss_trace: List[float]


def check_training_image(data: Sequence[Image2D], i: int) -> None:
    """Reject ``data[i]`` unless it has ``data[0]``'s dimensions and a
    non-empty foreground, as :func:`train` needs of every image."""
    im, first = data[i], data[0]
    if im.pixels.shape != first.pixels.shape:
        raise ValueError(f"training image {i} is {im.width}x{im.height} px, "
                         f"training image 0 is {first.width}x{first.height} px")
    if not im.fg_bits().any():
        raise ValueError(f"training image {i} has an empty foreground")


_LR_GROW = 1.2
_LR_MAX = 2.0
_MAX_HALVINGS = 8


def train(m: KernelMixtureModel, data: Sequence[Image2D], sched: DiffusionSchedule,
          cfg: TrainConfig = TrainConfig(),
          p: SsimParams = SsimParams(), f: FusionParams = FusionParams()) -> TrainResult:
    """Minibatch gradient descent on mean L_FQ over a noisy copy of the data.

    The corrupted dataset is built once up front: each training image gets a
    corruption step t drawn uniformly from [1, T] and a counter-seeded noise
    field.  Training is then deterministic descent on a fixed finite sum.
    The step size starts at cfg.learning_rate and adapts by backtracking:
    a step that raises the batch loss is halved and retried (the SSIM
    variance term carves a very narrow valley around zero-texture
    predictions, where any fixed step size oscillates), while accepted
    steps let it grow again.  The trace records the epoch-mean loss over the
    corrupted dataset.  Deterministic given cfg.seed; aborts if the epoch
    loss exceeds 10x its initial value.

    Each corrupted x_t is blurred once, when the corrupted dataset is built,
    and its kernel responses are kept read-only for the rest of the call:
    the prediction is linear in the parameters, so every gradient call and
    every backtracking trial only mixes them.  Beside them, each image's
    :func:`iqa.loss_target` (a view of x0's pixels and foreground, and the
    box mean and variance of x0) is built once and kept read-only, so no
    gradient or trial filters x0 again.  Together they hold
    ``len(data) * (len(m.sigmas) + 3) * H * W * 8`` bytes (the identity
    response is x_t itself) until training returns: 5.25 MiB for 24 images
    of 64 x 64 px with the default four Gaussians, 43.75 MiB for 200.  Each
    :func:`sample_gradients` call, given those, gets its loss and gradient
    from one :meth:`iqa.LossTarget.loss_and_grad` of the image's target;
    each trial loss is one :meth:`iqa.LossTarget.loss`.  Both score the
    very prediction ``m.denoise`` returns.  Every image needs the first
    image's dimensions and a non-empty foreground (see
    :func:`check_training_image`).
    """
    n = len(data)
    if n == 0:
        raise ValueError("training data is empty")
    for i in range(n):
        check_training_image(data, i)

    rng = np.random.default_rng(cfg.seed)
    # per image: t, m.kernel_responses(x_t.pixels) and the x0 half of its
    # fusion loss, all read-only
    held = []
    for i, x0 in enumerate(data):
        t = int(rng.integers(1, sched.T + 1))
        noise = make_field(cfg.noise_kind, derive_seed(cfg.seed, i),
                           x0.width, x0.height)
        resp = m.kernel_responses(forward_noise(x0, t, noise, sched).pixels)
        for rk in resp:
            rk.flags.writeable = False
        held.append((t, resp, iqa.loss_target(x0, p, BinaryMask(x0.fg_bits()))))

    def sample_loss(i: int) -> float:
        t, resp, target = held[i]
        return target.loss(_clamp(m.mix(resp, t), target.bits), f)

    lr = cfg.learning_rate
    trace: List[float] = []
    if cfg.epochs == 0:
        trace.append(sum(sample_loss(i) for i in range(n)) / n)
    initial: Optional[float] = None
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_total = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            gw = np.zeros_like(m.weights)
            gb = np.zeros_like(m.biases)
            batch_pre = 0.0
            for i in batch:
                t, resp, target = held[i]
                li, gwi, gbi = sample_gradients(m, t, f, resp, target)
                gw += gwi
                gb += gbi
                batch_pre += li
            gw /= len(batch)
            gb /= len(batch)
            batch_pre /= len(batch)
            epoch_total += batch_pre * len(batch)

            w0 = m.weights.copy()
            b0 = m.biases.copy()
            accepted = False
            for _ in range(_MAX_HALVINGS):
                m.weights[:] = w0 - lr * gw
                m.biases[:] = b0 - lr * gb
                post = sum(sample_loss(i) for i in batch) / len(batch)
                if post <= batch_pre:
                    accepted = True
                    lr = min(lr * _LR_GROW, _LR_MAX)
                    break
                lr *= 0.5
            if not accepted:
                m.weights[:] = w0
                m.biases[:] = b0
            if not (np.all(np.isfinite(m.weights)) and np.all(np.isfinite(m.biases))):
                raise RuntimeError("training produced non-finite parameters")
        epoch_loss = epoch_total / n
        trace.append(epoch_loss)
        if initial is None:
            initial = epoch_loss
        elif initial > 0 and epoch_loss > 10.0 * initial:
            raise RuntimeError(
                f"training diverged: epoch {epoch} loss {epoch_loss:.4g} "
                f"exceeds 10x initial {initial:.4g}")
    return TrainResult(m, trace)
