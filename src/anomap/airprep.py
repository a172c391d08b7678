"""Dataset intensity statistics, the average intensity ratio (AIR), and the
intensity-flip pre-processing decision.

The flip rule is ``p(x) = 1 - x`` on the foreground exactly when the normal
region's mean intensity exceeds 0.5, otherwise identity; :func:`decide`
returns that choice as a bool and :func:`apply` takes it.  Under the prior
``0 < mu_n < mu_a < 1`` the flip never decreases the AIR:
``(1 - mu_n) / (1 - mu_a) > mu_a / mu_n`` whenever ``0.5 < mu_n < mu_a < 1``;
``verify_air_monotone`` evaluates that inequality for a pair of region means.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .imagecore import Image2D


@dataclass(frozen=True)
class DatasetStats:
    mu_n: float  # mean intensity of normal foreground
    mu_a: float  # mean intensity of anomalous regions
    n_pixels_normal: int
    n_pixels_anomalous: int

    def __post_init__(self):
        if not (np.isfinite(self.mu_n) and np.isfinite(self.mu_a)):
            raise ValueError("region means must be finite")
        if self.n_pixels_normal <= 0 or self.n_pixels_anomalous <= 0:
            raise ValueError("both regions must be nonempty")


def dataset_stats(samples) -> DatasetStats:
    """Pooled region means across labeled samples.

    Anomalous pixels are those flagged by each sample's ground truth; normal
    pixels are the remaining foreground.  Statistics should come from the
    unhealthy validation split only, never from test data.
    """
    sum_n = sum_a = 0.0
    cnt_n = cnt_a = 0
    for s in samples:
        fg = s.foreground.bits
        gt = s.anomaly_gt.bits
        normal = fg & ~gt
        sum_n += float(s.image.pixels[normal].sum())
        cnt_n += int(normal.sum())
        sum_a += float(s.image.pixels[gt].sum())
        cnt_a += int(gt.sum())
    if cnt_a == 0:
        raise ValueError("stats require unhealthy validation data")
    if cnt_n == 0:
        raise ValueError("no normal foreground pixels")
    return DatasetStats(sum_n / cnt_n, sum_a / cnt_a, cnt_n, cnt_a)


def air(stats: DatasetStats) -> float:
    """max(mu_a, mu_n) / min(mu_a, mu_n); always >= 1."""
    for name, mean in (("normal mean mu_n", stats.mu_n),
                       ("lesion mean mu_a", stats.mu_a)):
        if mean <= 0.0:
            raise ValueError(f"AIR undefined: {name} = {mean:.12g} "
                             "is not positive")
    hi = max(stats.mu_a, stats.mu_n)
    lo = min(stats.mu_a, stats.mu_n)
    return hi / lo


def decide(stats: DatasetStats) -> bool:
    """Flip exactly when the normal mean exceeds 0.5 (boundary stays identity)."""
    return bool(stats.mu_n > 0.5)


def air_after(stats: DatasetStats) -> float:
    """The AIR after :func:`decide`'s transform; a flip maps m to 1 - m."""
    if not decide(stats):
        return air(stats)
    try:
        return air(replace(stats, mu_n=1.0 - stats.mu_n, mu_a=1.0 - stats.mu_a))
    except ValueError as exc:
        raise ValueError(f"{exc} after the flip") from None


def apply(img: Image2D, flip: bool) -> Image2D:
    """Intensity flip 1 - x on the foreground if ``flip``; background untouched."""
    fg = img.fg_bits()
    vals = img.pixels[fg]
    if np.any(vals < 0.0) or np.any(vals > 1.0):
        raise ValueError("apply requires normalized input")
    if not flip:
        return img
    out = img.pixels.copy()
    out[fg] = 1.0 - vals
    return Image2D(out, img.foreground)


@dataclass(frozen=True)
class AirMonotoneReport:
    air_before: float
    air_after: float
    holds: bool


def verify_air_monotone(stats: DatasetStats) -> AirMonotoneReport:
    """Analytic AIR before and after the decided transform.

    Requires the prior 0 < mu_n < mu_a < 1.  In the flip branch the post-flip
    ratio is (1 - mu_n) / (1 - mu_a); in the identity branch it is unchanged.
    """
    if not (0.0 < stats.mu_n < stats.mu_a < 1.0):
        raise ValueError("proof preconditions not met")
    before, after = air(stats), air_after(stats)
    return AirMonotoneReport(before, after, after >= before - 1e-12)


def stats_csv(stats: DatasetStats) -> str:
    """CSV report ``mu_n,mu_a,air_before,air_after,flip`` with a header row."""
    return ("mu_n,mu_a,air_before,air_after,flip\n"
            f"{stats.mu_n:.12g},{stats.mu_a:.12g},{air(stats):.12g},"
            f"{air_after(stats):.12g},{int(decide(stats))}\n")
