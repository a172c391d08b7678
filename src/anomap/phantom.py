"""Deterministic synthetic brain-like phantoms with controllable intensity
statistics.

Each sample is an elliptical "brain" foreground filled with a textured base
intensity; abnormal samples additionally carry 1-3 blob lesions (unions of
jittered disks) blended in over a 2-pixel soft boundary.  Profiles pin the
normal/lesion mean intensities so the generated datasets reproduce the
modality priors the pre-processing decision relies on (bright-background
profiles have normal mean above 0.5, the dark profile keeps both region
means below 0.5).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Tuple

import numpy as np
from scipy import ndimage

from .diffusion import derive_seed, standardize
from .imagecore import BinaryMask, Image2D
from .simplex import octave_grid


@dataclass(frozen=True)
class ModalityProfile:
    name: str
    mu_normal_target: float
    mu_lesion_target: float
    texture_amp: float = 0.06
    lesion_radius_range: Tuple[float, float] = (3.0, 6.0)
    lesion_count_range: Tuple[int, int] = (1, 3)


PROFILES = {
    "t2_like": ModalityProfile("t2_like", 0.30, 0.42),
    "flair_like": ModalityProfile("flair_like", 0.58, 0.78),
    "t1ce_like": ModalityProfile("t1ce_like", 0.55, 0.70),
}


@dataclass(frozen=True)
class LabeledSample:
    id: str
    image: Image2D  # its foreground mask is the sample's
    anomaly_gt: BinaryMask

    def __post_init__(self):
        if np.any(self.anomaly_gt.bits & ~self.foreground.bits):
            raise ValueError("anomaly ground truth must lie inside foreground")

    @property
    def foreground(self) -> BinaryMask:
        return self.image.foreground


@dataclass(frozen=True)
class Dataset:
    train_healthy: List[LabeledSample]
    val_abnormal: List[LabeledSample]
    test_abnormal: List[LabeledSample]

    def all_samples(self) -> List[LabeledSample]:
        return [*self.train_healthy, *self.val_abnormal, *self.test_abnormal]


def _ellipse_mask(rng: np.random.Generator, size: int) -> np.ndarray:
    ax = size * rng.uniform(0.35, 0.45)
    ay = size * rng.uniform(0.35, 0.45)
    c = (size - 1) / 2.0
    rows, cols = np.indices((size, size))
    return ((cols - c) / ax) ** 2 + ((rows - c) / ay) ** 2 <= 1.0


def _texture(seed: int, size: int, amp: float) -> np.ndarray:
    # a 2-octave field of at least 32 px is never constant
    return amp * standardize(octave_grid(seed, size, size, octaves=2,
                                         persistence=0.5,
                                         base_scale=size / 4.0))


_CLIP_EPS = 1e-6  # keep intensities strictly inside (0, 1)


def gen_healthy(seed: int, size: int, profile: ModalityProfile,
                sample_id: str = "healthy") -> LabeledSample:
    """Lesion-free phantom; foreground mean lands near the profile target."""
    if size < 32:
        raise ValueError("size must be >= 32")
    rng = np.random.default_rng(seed)
    fg = _ellipse_mask(rng, size)
    tex = _texture(derive_seed(seed, 1), size, profile.texture_amp)
    # recenter texture over the ellipse so the foreground mean stays on target
    tex -= tex[fg].mean()
    img = np.zeros((size, size))
    img[fg] = np.clip(profile.mu_normal_target + tex[fg], _CLIP_EPS, 1.0 - _CLIP_EPS)
    return LabeledSample(sample_id, Image2D(img, BinaryMask(fg)),
                         BinaryMask(np.zeros((size, size), dtype=bool)))


def _lesion_weight(rng: np.random.Generator, fg: np.ndarray,
                   dist_in: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                   profile: ModalityProfile) -> np.ndarray:
    """Blend-weight field of one blob lesion placed fully inside the
    foreground; ``dist_in`` is the foreground's distance transform and
    ``rows``, ``cols`` its pixel indices, fixed per sample."""
    r = rng.uniform(*profile.lesion_radius_range)
    margin = r * 1.6 + 3.0  # room for satellites plus the soft boundary
    candidates = np.argwhere(dist_in >= margin)
    if candidates.size == 0:
        return None
    cy, cx = candidates[rng.integers(len(candidates))]

    # union of the main disk and a few jittered satellites
    disks = [(float(cy), float(cx), r)]
    for _ in range(rng.integers(2, 5)):
        ang = rng.uniform(0.0, 2.0 * np.pi)
        d = rng.uniform(0.3, 0.6) * r
        disks.append((cy + d * np.sin(ang), cx + d * np.cos(ang),
                      r * rng.uniform(0.3, 0.5)))

    signed = np.full(fg.shape, np.inf)
    for dy, dx, dr in disks:
        dist = np.hypot(rows - dy, cols - dx) - dr
        np.minimum(signed, dist, out=signed)
    # 2-pixel soft blend across the boundary
    w = np.clip((1.0 - signed) / 2.0, 0.0, 1.0)
    w[~fg] = 0.0
    return w


def gen_abnormal(seed: int, size: int, profile: ModalityProfile,
                 sample_id: str = "abnormal") -> LabeledSample:
    """Healthy base plus 1-3 blended blob lesions; gt marks blend weight > 0.5."""
    base = gen_healthy(derive_seed(seed, 0), size, profile, sample_id)
    rng = np.random.default_rng(derive_seed(seed, 2))
    fg = base.foreground.bits

    n_lesions = int(rng.integers(profile.lesion_count_range[0],
                                 profile.lesion_count_range[1] + 1))
    dist_in = ndimage.distance_transform_edt(fg)
    rows, cols = np.indices((size, size))
    weight = np.zeros((size, size))
    placed = 0
    attempts = 0
    while placed < n_lesions:
        attempts += 1
        if attempts > 100:
            raise ValueError("foreground too small for lesion spec")
        w = _lesion_weight(rng, fg, dist_in, rows, cols, profile)
        if w is None:
            continue
        np.maximum(weight, w, out=weight)
        placed += 1

    tex = _texture(derive_seed(seed, 3), size, profile.texture_amp * 0.5)
    lesion_val = np.clip(profile.mu_lesion_target + tex, _CLIP_EPS, 1.0 - _CLIP_EPS)
    img = base.image.pixels * (1.0 - weight) + lesion_val * weight
    img[~fg] = 0.0
    gt = BinaryMask((weight > 0.5) & fg)
    return LabeledSample(sample_id, Image2D(img, base.foreground), gt)


def gen_dataset(seed: int, size: int, profile: ModalityProfile,
                n_train_healthy: int, n_val_abnormal: int,
                n_test_abnormal: int) -> Dataset:
    """Disjoint-id splits: healthy train, unhealthy validation, unhealthy test."""
    if min(n_train_healthy, n_val_abnormal, n_test_abnormal) < 1:
        raise ValueError("split counts must be >= 1")

    def sub(index: int) -> int:
        return derive_seed(seed, 1000 + index)

    train = [gen_healthy(sub(i), size, profile, f"train-{i:03d}")
             for i in range(n_train_healthy)]
    val = [gen_abnormal(sub(10000 + i), size, profile, f"val-{i:03d}")
           for i in range(n_val_abnormal)]
    test = [gen_abnormal(sub(20000 + i), size, profile, f"test-{i:03d}")
            for i in range(n_test_abnormal)]
    return Dataset(train, val, test)


def profile_with_gap(name: str, gap: float) -> ModalityProfile:
    """Profile whose lesion mean sits ``gap`` away from the normal mean.

    The offset is applied away from the normal mean in the profile's native
    direction (brighter lesions for bright profiles, ditto for dark ones).
    """
    base = PROFILES[name]
    direction = 1.0 if base.mu_lesion_target >= base.mu_normal_target else -1.0
    return replace(base, mu_lesion_target=base.mu_normal_target + direction * gap)
