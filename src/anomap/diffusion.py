"""Noise schedules, standardized noise fields, forward corruption, and
patch-conditioned reconstruction.

The forward corruption is the single-shot ``x_t = sqrt(abar_t) * x0 +
sqrt(1 - abar_t) * eps``, ``eps`` a plain array of Gaussian white noise or of
multi-octave simplex noise, standardized to zero mean and unit variance over
the field so that the signal-to-noise schedule is preserved.
Reconstruction is one denoiser call per patch at a fixed step (no iterative
sampling), patch by patch with the rest of the image left clean as
conditioning context; a single patch covering the image reconstructs it whole.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import simplex
from .imagecore import BinaryMask, Image2D

DEFAULT_T = 1000
DEFAULT_BETA_1 = 1e-4
DEFAULT_BETA_T = 0.02
DEFAULT_OCTAVES = 6
DEFAULT_PERSISTENCE = 0.8
NOISE_KINDS = ("simplex", "gaussian")


@dataclass(frozen=True)
class DiffusionSchedule:
    """Per-step beta and alpha-bar tables; t is 1-based in [1, T]."""

    betas: np.ndarray
    alpha_bars: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        b = np.asarray(self.betas, dtype=np.float64)
        if b.ndim != 1 or b.size < 1:
            raise ValueError("schedule needs at least one step")
        if np.any(b <= 0.0) or np.any(b >= 1.0):
            raise ValueError("betas must lie in (0, 1)")
        object.__setattr__(self, "betas", b)
        object.__setattr__(self, "alpha_bars", np.cumprod(1.0 - b))

    @property
    def T(self) -> int:
        return self.betas.size

    def alpha_bar(self, t: int) -> float:
        if not 1 <= t <= self.T:
            raise ValueError(f"t = {t} outside schedule range [1, {self.T}]")
        return float(self.alpha_bars[t - 1])


def linear_schedule(T: int = DEFAULT_T, beta_1: float = DEFAULT_BETA_1,
                    beta_T: float = DEFAULT_BETA_T) -> DiffusionSchedule:
    """Betas linearly interpolated from beta_1 to beta_T over T steps."""
    if T < 1:
        raise ValueError(f"T = {T} must be >= 1")
    if not (0.0 < beta_1 <= beta_T < 1.0):
        raise ValueError(f"beta_1 = {beta_1}, beta_T = {beta_T}: "
                         "require 0 < beta_1 <= beta_T < 1")
    return DiffusionSchedule(np.linspace(beta_1, beta_T, T))


def standardize(v: np.ndarray) -> np.ndarray:
    """``v`` shifted to zero mean and scaled to unit variance."""
    v = v - v.mean()
    std = v.std()
    if std == 0.0:
        raise ValueError("noise field is constant; cannot standardize")
    return v / std


def derive_seed(seed: int, index: int) -> int:
    """Counter-based child seed; stable across runs and platforms."""
    return int(np.random.SeedSequence(entropy=(int(seed), int(index))).generate_state(1)[0])


def make_fields(kind: str, seeds: Sequence[int], width: int,
                height: int) -> List[np.ndarray]:
    """One standardized ``(height, width)`` noise array per seed, in order.

    Field k depends on ``seeds[k]`` alone, never on the other seeds.
    ``"simplex"`` is multi-octave simplex noise (``DEFAULT_OCTAVES`` octaves,
    ``DEFAULT_PERSISTENCE``, base scale ``width``) whose lattice geometry is
    computed once per octave for all seeds; ``"gaussian"`` is white noise
    from one generator per seed.  Each field is standardized on its own.
    """
    if kind == "simplex":
        raw = simplex.octave_grids(seeds, width, height, DEFAULT_OCTAVES,
                                   DEFAULT_PERSISTENCE, float(width))
    elif kind == "gaussian":
        raw = [np.random.default_rng(s).standard_normal((height, width))
               for s in seeds]
    else:
        raise ValueError(f"unknown noise kind {kind!r}")
    return [standardize(v) for v in raw]


def make_field(kind: str, seed: int, width: int, height: int) -> np.ndarray:
    """Standardized noise field of the given kind; deterministic in seed."""
    return make_fields(kind, [seed], width, height)[0]


def _corrupt(x: np.ndarray, eps: np.ndarray, fg: np.ndarray, ab: float):
    # sqrt(abar) * x + sqrt(1 - abar) * eps on the foreground, 0 off it
    return np.where(fg, np.sqrt(ab) * x + np.sqrt(1.0 - ab) * eps, 0.0)


def forward_noise(x0: Image2D, t: int, noise: np.ndarray,
                  sched: DiffusionSchedule) -> Image2D:
    """Corrupt x0 at step t on the foreground only; background stays 0."""
    ab = sched.alpha_bar(t)
    if noise.shape != x0.pixels.shape:
        raise ValueError("noise field dimensions do not match image")
    return Image2D(_corrupt(x0.pixels, noise, x0.fg_bits(), ab), x0.foreground)


@dataclass(frozen=True)
class PatchSpec:
    """Patch and stride sizes in pixels.  :func:`placements` needs all four;
    :meth:`resolve` fills unset (``None``) values in from the image."""

    patch_h: Optional[int] = None
    patch_w: Optional[int] = None
    stride_h: Optional[int] = None
    stride_w: Optional[int] = None

    def __post_init__(self):
        for fld in fields(self):
            v = getattr(self, fld.name)
            if v is not None and v < 1:
                raise ValueError(f"{fld.name} = {v} must be >= 1")

    @staticmethod
    def default_for(height: int, width: int) -> "PatchSpec":
        # half-size patches with 50% overlap
        return PatchSpec(max(1, height // 2), max(1, width // 2),
                         max(1, height // 4), max(1, width // 4))

    def resolve(self, height: int, width: int) -> "PatchSpec":
        """This spec with each unset value taken from the image's own
        dimensions (:meth:`default_for`)."""
        d = PatchSpec.default_for(height, width)
        return PatchSpec(self.patch_h or d.patch_h, self.patch_w or d.patch_w,
                         self.stride_h or d.stride_h,
                         self.stride_w or d.stride_w)


def _axis_starts(dim: int, patch: int, stride: int, axis: str) -> List[int]:
    k = axis[0]
    if patch > dim:
        raise ValueError(f"patch_{k} = {patch} exceeds the {axis}, {dim} px")
    starts = list(range(0, dim - patch + 1, stride))
    if starts[-1] != dim - patch:
        starts.append(dim - patch)
    if any(b - a > patch for a, b in zip(starts, starts[1:])):
        raise ValueError(f"patch grid leaves gaps along the {axis}: "
                         f"patch_{k} = {patch} at stride_{k} = {stride} "
                         f"on {dim} px")
    return starts


def placements(spec: PatchSpec, height: int, width: int) -> List[Tuple[int, int]]:
    """Top-left corners of all patch placements, row-major order; raises
    unless the spec is resolved and the patches fit inside the image and
    together cover it."""
    for fld in fields(spec):
        if getattr(spec, fld.name) is None:
            raise ValueError(f"{fld.name} is unset; resolve the spec first")
    return [(r, c)
            for r in _axis_starts(height, spec.patch_h, spec.stride_h, "height")
            for c in _axis_starts(width, spec.patch_w, spec.stride_w, "width")]


def placement_fields(spec: PatchSpec, height: int, width: int, seed: int,
                     noise_kind: str = "simplex") -> List[np.ndarray]:
    """The noise field of every placement of ``spec`` on a ``height`` x
    ``width`` image, in :func:`placements` order, drawn in one
    :func:`make_fields` call.

    Placement k's field is seeded by ``derive_seed(seed, k)``; the fields
    depend on the seed, the noise kind and the patch shape, never on the
    image's pixels or on the model.
    """
    n = len(placements(spec, height, width))
    seeds = [derive_seed(seed, idx) for idx in range(n)]
    return make_fields(noise_kind, seeds, spec.patch_w, spec.patch_h)


def reconstruct_patched(model, x: Image2D, t_test: int, sched: DiffusionSchedule,
                        spec: PatchSpec, seed: int,
                        noise_kind: str = "simplex") -> Image2D:
    """:func:`reconstruct_from_fields` under the :func:`placement_fields`
    that ``seed`` and ``noise_kind`` draw for ``x``."""
    return reconstruct_from_fields(model, x, t_test, sched, spec, placement_fields(
        spec, x.height, x.width, seed, noise_kind))


def reconstruct_from_fields(model, x: Image2D, t_test: int,
                            sched: DiffusionSchedule, spec: PatchSpec,
                            noises: Sequence[np.ndarray]) -> Image2D:
    """Noise one patch at a time, condition on the clean remainder, merge.

    ``noises`` holds one patch-sized field per placement, in
    :func:`placements` order (see :func:`placement_fields`).  The model sees
    the image with only that patch corrupted, as :func:`forward_noise`
    corrupts an image: ``sqrt(abar) * x + sqrt(1 - abar) * eps`` on its
    foreground pixels and 0 off it, one ``np.where`` over the patch.  Its
    prediction is kept inside the patch.  Overlaps are averaged with uniform weights via a
    running mean in fixed placement order (bit-identical merge when
    predictions agree).

    The model is shown only a window: the patch widened by the model's
    ``receptive_radius`` on every side and clipped to the image, or the
    whole image when the radius is ``None``.  Each cut window edge lies more
    than the radius from every patch pixel and each clipped one is the image
    edge, whose replicate padding the window repeats, so a local model
    predicts the patch exactly as it would on the whole image.
    """
    plist = placements(spec, x.height, x.width)
    if len(noises) != len(plist):
        raise ValueError(f"{len(noises)} noise fields for {len(plist)} "
                         "patch placements")
    patch = (spec.patch_h, spec.patch_w)
    for k, noise in enumerate(noises):
        if np.shape(noise) != patch:
            raise ValueError(f"noise field {k} has shape {np.shape(noise)}, "
                             f"not the patch's {patch}")
    fg = x.fg_bits()
    ab = sched.alpha_bar(t_test)
    halo = getattr(model, "receptive_radius", None)
    if halo is None:
        halo = max(x.height, x.width)

    mean = np.zeros_like(x.pixels)
    count = np.zeros(x.pixels.shape, dtype=np.int64)
    for (r0, c0), noise in zip(plist, noises):
        r1, c1 = r0 + spec.patch_h, c0 + spec.patch_w
        wr0, wc0 = max(r0 - halo, 0), max(c0 - halo, 0)
        wr1, wc1 = min(r1 + halo, x.height), min(c1 + halo, x.width)
        window = (slice(wr0, wr1), slice(wc0, wc1))
        inner = (slice(r0 - wr0, r1 - wr0), slice(c0 - wc0, c1 - wc0))
        noisy = x.pixels[window].copy()
        patch = noisy[inner]
        patch[...] = _corrupt(patch, noise, fg[r0:r1, c0:c1], ab)
        pred = model.denoise(Image2D(noisy, BinaryMask(fg[window])), t_test)
        count[r0:r1, c0:c1] += 1
        k = count[r0:r1, c0:c1]
        mslice = mean[r0:r1, c0:c1]
        mean[r0:r1, c0:c1] = mslice + (pred.pixels[inner] - mslice) / k
    mean[~fg] = 0.0
    return Image2D(mean, x.foreground)
