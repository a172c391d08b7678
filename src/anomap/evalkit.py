"""Inference chain, threshold selection, and segmentation metrics.

Scoring a sample runs the full post-processed chain: patch-conditioned
reconstruction, fusion anomaly map, and median filtering (default K=5)
inside the 3x-eroded foreground, the only pixels any metric reads; the map
is zero outside it.  The binarization threshold is picked by a greedy grid
search maximizing pooled Dice on the unhealthy validation set and then
applied unchanged to the test set; AUPRC is computed threshold-free over all
pooled in-region pixels.  Both metrics count pixels and positives at or
above a score by binary search in the sorted pooled scores and the sorted
positive scores.

:func:`score_sample` is that chain for one sample: :func:`reconstruct`, then
:func:`anomaly_map` inside :func:`eval_region`.  A caller scoring one
reconstruction under several fusion blends holds the reconstruction and the
region and calls :func:`anomaly_map` once per blend; :func:`evaluate_fold`
takes the finished maps and regions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Sequence
from zlib import crc32

import numpy as np

from . import diffusion, imagecore, iqa
from .diffusion import DiffusionSchedule, PatchSpec
from .imagecore import AnomalyMap, BinaryMask, Image2D
from .iqa import FusionParams, SsimParams
from .phantom import LabeledSample

DEFAULT_GRID_SIZE = 200


@dataclass(frozen=True)
class EvalConfig:
    t_test: int = 750
    ssim: SsimParams = field(default_factory=SsimParams)
    fusion: FusionParams = field(default_factory=FusionParams)
    median_k: int = 5
    erosion_iters: int = 3
    n_thresholds: int = DEFAULT_GRID_SIZE        # grid points over [0, max]
    patch: Optional[PatchSpec] = None            # None: default half-size patches
    noise_kind: str = "simplex"


def sample_seed(seed: int, sample_id: str) -> int:
    return diffusion.derive_seed(seed, crc32(sample_id.encode("utf-8")))


def reconstruct(model, sample: LabeledSample, cfg: EvalConfig,
                sched: DiffusionSchedule, seed: int) -> Image2D:
    """The model's patched reconstruction of a sample, seeded by its id."""
    img = sample.image
    spec = cfg.patch or PatchSpec.default_for(img.height, img.width)
    return diffusion.reconstruct_patched(
        model, img, cfg.t_test, sched, spec,
        sample_seed(seed, sample.id), noise_kind=cfg.noise_kind)


def anomaly_map(img: Image2D, recon: Image2D, region: BinaryMask,
                cfg: EvalConfig) -> AnomalyMap:
    """Fusion map of an image against its reconstruction, median-filtered
    inside the region and zero outside it."""
    amap = iqa.fusion_anomaly_map(img, recon, cfg.ssim, cfg.fusion)
    return imagecore.median_filter(amap, cfg.median_k, region)


def score_sample(model, sample: LabeledSample, cfg: EvalConfig,
                 sched: DiffusionSchedule, seed: int) -> AnomalyMap:
    """Reconstruct, score, smooth, and restrict to the eroded brain mask."""
    return anomaly_map(sample.image, reconstruct(model, sample, cfg, sched, seed),
                       eval_region(sample, cfg), cfg)


def eval_region(sample: LabeledSample, cfg: EvalConfig) -> BinaryMask:
    """The sample's foreground eroded by ``cfg.erosion_iters``; maps are
    scored and metrics pooled only inside it."""
    return imagecore.erode(sample.foreground, cfg.erosion_iters)


def dice(pred: BinaryMask, gt: BinaryMask) -> float:
    """2 |pred & gt| / (|pred| + |gt|); 1.0 when both masks are empty."""
    if pred.bits.shape != gt.bits.shape:
        raise ValueError("mask dimensions do not match")
    denom = pred.count() + gt.count()
    if denom == 0:
        return 1.0
    return 2.0 * int((pred.bits & gt.bits).sum()) / denom


def _sorted_pool(maps: Sequence[AnomalyMap], gts: Sequence[BinaryMask],
                 regions: Sequence[BinaryMask]):
    """All pooled in-region scores and the positive ones, each sorted
    ascending: the number of pixels (positives) scoring at least ``v`` is
    the count minus ``searchsorted(..., v, side="left")``."""
    scores, labels = [], []
    for amap, gt, region in zip(maps, gts, regions):
        bits = region.bits
        scores.append(amap.scores[bits])
        labels.append(gt.bits[bits])
    scores = np.concatenate(scores)
    positives = np.sort(scores[np.concatenate(labels)])
    scores.sort()
    return scores, positives


def auprc(maps: Sequence[AnomalyMap], gts: Sequence[BinaryMask],
          regions: Sequence[BinaryMask]) -> float:
    """Area under the pooled pixel-level PR curve with atomic tie groups:
    one point per distinct score, from the highest down."""
    s, pos = _sorted_pool(maps, gts, regions)
    n_pos = pos.size
    if n_pos == 0:
        raise ValueError("AUPRC undefined")
    # the first index of each tie group, highest score first
    starts = np.flatnonzero(np.diff(s, prepend=np.inf))[::-1]
    n_pred = s.size - starts
    tp = n_pos - np.searchsorted(pos, s[starts], side="left")
    precision = tp / n_pred
    recall = tp / n_pos
    prev_recall = np.concatenate([[0.0], recall[:-1]])
    return float(np.sum((recall - prev_recall) * precision))


def pooled_dice_curve(maps: Sequence[AnomalyMap], gts: Sequence[BinaryMask],
                      regions: Sequence[BinaryMask],
                      grid: np.ndarray) -> np.ndarray:
    """Pooled Dice (counts summed across samples) at every grid threshold;
    a pixel is predicted anomalous when its score is >= the threshold."""
    s, pos = _sorted_pool(maps, gts, regions)
    n_pos = pos.size
    tp = n_pos - np.searchsorted(pos, grid, side="left")
    n_pred = s.size - np.searchsorted(s, grid, side="left")
    denom = n_pred + n_pos
    return np.where(denom > 0, 2.0 * tp / np.maximum(denom, 1), 1.0)


def default_grid(maps: Sequence[AnomalyMap],
                 size: int = DEFAULT_GRID_SIZE) -> np.ndarray:
    top = max(float(m.scores.max()) for m in maps)
    if top <= 0.0:
        top = 1.0
    return np.linspace(0.0, top, size)


def greedy_threshold(val_maps: Sequence[AnomalyMap], val_gts: Sequence[BinaryMask],
                     regions: Sequence[BinaryMask], grid: np.ndarray) -> float:
    """Grid threshold maximizing pooled validation Dice; ties go to the larger."""
    grid = np.asarray(grid, dtype=np.float64)
    if grid.size == 0:
        raise ValueError("threshold grid is empty")
    curve = pooled_dice_curve(val_maps, val_gts, regions, grid)
    return float(grid[np.nonzero(curve == curve.max())[0][-1]])


@dataclass(frozen=True)
class FoldResult:
    dice: float
    auprc: float
    threshold: float
    per_sample_dice: List[float]
    per_sample_ids: List[str]


def evaluate_fold(val: Sequence[LabeledSample], test: Sequence[LabeledSample],
                  maps: Mapping[str, AnomalyMap],
                  regions: Mapping[str, BinaryMask],
                  n_thresholds: int = DEFAULT_GRID_SIZE) -> FoldResult:
    """Threshold from validation, metrics on test; splits must not share ids.

    ``maps`` and ``regions`` hold every sample's anomaly map and eroded
    region by sample id (see :func:`anomaly_map` and :func:`eval_region`).
    """
    val_ids = {s.id for s in val}
    test_ids = {s.id for s in test}
    if val_ids & test_ids:
        raise ValueError("validation/test leakage")

    val_maps = [maps[s.id] for s in val]
    val_regions = [regions[s.id] for s in val]
    val_gts = [s.anomaly_gt for s in val]
    grid = default_grid(val_maps, n_thresholds)
    thr = greedy_threshold(val_maps, val_gts, val_regions, grid)

    test_maps = [maps[s.id] for s in test]
    test_regions = [regions[s.id] for s in test]
    test_gts = [s.anomaly_gt for s in test]

    tp = pred_n = pos_n = 0
    per_sample = []
    for amap, gt, region in zip(test_maps, test_gts, test_regions):
        pred = BinaryMask((amap.scores >= thr) & region.bits)
        gt_in = BinaryMask(gt.bits & region.bits)
        per_sample.append(dice(pred, gt_in))
        tp += int((pred.bits & gt_in.bits).sum())
        pred_n += pred.count()
        pos_n += gt_in.count()
    pooled = 1.0 if pred_n + pos_n == 0 else 2.0 * tp / (pred_n + pos_n)
    area = auprc(test_maps, test_gts, test_regions)
    return FoldResult(pooled, area, thr, per_sample, [s.id for s in test])
