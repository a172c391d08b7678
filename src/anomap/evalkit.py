"""Inference chain, threshold selection, and segmentation metrics.

Scoring a sample runs the full post-processed chain: patch-conditioned
reconstruction, fusion anomaly map, and median filtering (default K=5)
inside the 3x-eroded foreground, the only pixels any metric reads; the map
is zero outside it.  Evaluation therefore reads a sample's in-region scores,
``amap.scores[region.bits]``, never its map.  The binarization threshold is
picked by a greedy grid search (from 0 to the largest in-region validation
score) maximizing pooled Dice on the unhealthy validation set and then
applied unchanged to the test set; AUPRC is computed threshold-free over all
pooled in-region pixels.  Each split is pooled once, into one sorted array
of its scores and one of its positive scores; both metrics count pixels and
positives at or above a score by binary search in those two.  AUPRC takes
one point per distinct score, from the highest down, so a tie group enters
whole: its precision is the positives over the pixels scoring at least that
score, and the area sums each point's recall step times its precision.

:func:`score_sample` is that chain for one sample: :func:`patch_noise`,
:func:`reconstruct`, then :func:`anomaly_map` inside :func:`eval_region`.
The placement noise depends only on the sample's id and dimensions, so one
draw serves every model and intensity transform of the sample; to score it
under several fusion blends, call :func:`reconstruct` once per model and
:func:`anomaly_map` once per blend, while the reconstruction is at hand.
:func:`evaluate_fold` takes the finished in-region scores, one per region
pixel, and the regions; a scoring task need send back nothing else.
:func:`default_grid`, :func:`pooled_dice_curve`, :func:`greedy_threshold`
and :func:`auprc` compute the same metrics from whole maps.  Each rejects
an empty split or an empty list of maps with an error that says so.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Sequence
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
    patch: PatchSpec = field(default_factory=PatchSpec)  # unset: from the image
    noise_kind: str = "simplex"


def sample_seed(seed: int, sample_id: str) -> int:
    return diffusion.derive_seed(seed, crc32(sample_id.encode("utf-8")))


def patch_noise(sample: LabeledSample, cfg: EvalConfig,
                seed: int) -> List[np.ndarray]:
    """The sample's placement noise fields, seeded by its id.  They depend
    on the image's dimensions only, so one draw serves every model and every
    intensity transform of the sample."""
    img = sample.image
    spec = cfg.patch.resolve(img.height, img.width)
    return diffusion.placement_fields(spec, img.height, img.width,
                                      sample_seed(seed, sample.id),
                                      cfg.noise_kind)


def reconstruct(model, sample: LabeledSample, cfg: EvalConfig,
                sched: DiffusionSchedule,
                noises: Sequence[np.ndarray]) -> Image2D:
    """The model's patched reconstruction of a sample under the placement
    fields :func:`patch_noise` drew for it."""
    img = sample.image
    spec = cfg.patch.resolve(img.height, img.width)
    return diffusion.reconstruct_from_fields(model, img, cfg.t_test, sched,
                                             spec, noises)


def anomaly_map(img: Image2D, recon: Image2D, region: BinaryMask,
                cfg: EvalConfig) -> AnomalyMap:
    """Fusion map of an image against its reconstruction, median-filtered
    inside the region and zero outside it."""
    amap = iqa.fusion_anomaly_map(img, recon, cfg.ssim, cfg.fusion)
    return imagecore.median_filter(amap, cfg.median_k, region)


def score_sample(model, sample: LabeledSample, cfg: EvalConfig,
                 sched: DiffusionSchedule, seed: int) -> AnomalyMap:
    """Reconstruct, score, smooth, and restrict to the eroded brain mask."""
    recon = reconstruct(model, sample, cfg, sched, patch_noise(sample, cfg, seed))
    return anomaly_map(sample.image, recon, eval_region(sample, cfg), cfg)


def eval_region(sample: LabeledSample, cfg: EvalConfig) -> BinaryMask:
    """The sample's foreground eroded by ``cfg.erosion_iters``; maps are
    scored and metrics pooled only inside it."""
    return imagecore.erode(sample.foreground, cfg.erosion_iters)


def _dice(tp: int, denom: int) -> float:
    """``2 tp / denom``, where ``denom`` counts predicted plus true pixels;
    1.0 when both are empty."""
    return 1.0 if denom == 0 else 2.0 * tp / denom


def dice(pred: BinaryMask, gt: BinaryMask) -> float:
    """2 |pred & gt| / (|pred| + |gt|); 1.0 when both masks are empty."""
    if pred.bits.shape != gt.bits.shape:
        raise ValueError("mask dimensions do not match")
    return _dice(int((pred.bits & gt.bits).sum()), pred.count() + gt.count())


def _in_region(maps: Sequence[AnomalyMap], gts: Sequence[BinaryMask],
               regions: Sequence[BinaryMask]):
    """Each map's in-region scores and lesion labels."""
    return ([m.scores[r.bits] for m, r in zip(maps, regions)],
            [g.bits[r.bits] for g, r in zip(gts, regions)])


def _sorted_pool(scores: Sequence[np.ndarray], labels: Sequence[np.ndarray]):
    """One split's pooled in-region scores and its positive ones, each
    sorted ascending: the number of pixels (positives) scoring at least
    ``v`` is the count minus ``searchsorted(..., v, side="left")``."""
    if not scores:
        raise ValueError("no maps to pool")
    pool = np.concatenate(scores)
    positives = np.compress(np.concatenate(labels), pool)
    positives.sort()
    pool.sort()
    return pool, positives


def _auprc(s: np.ndarray, pos: np.ndarray) -> float:
    """:func:`auprc` of a sorted pool and its sorted positives.  Each array
    is dropped once spent, so at most three as long as the curve are alive
    beside the two inputs."""
    n_pos = pos.size
    if n_pos == 0:
        raise ValueError("AUPRC undefined")
    # the first index of each tie group, highest score first
    starts = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))[::-1]
    tp = np.searchsorted(pos, s[starts], side="left")
    np.subtract(n_pos, tp, out=tp)
    np.subtract(s.size, starts, out=starts)  # predicted pixels per point
    precision = tp / starts
    del starts
    recall = np.empty(tp.size + 1)
    recall[0] = 0.0
    np.divide(tp, n_pos, out=recall[1:])
    del tp
    area = np.diff(recall)  # the recall step of each point
    del recall
    area *= precision
    return float(np.sum(area))


def auprc(maps: Sequence[AnomalyMap], gts: Sequence[BinaryMask],
          regions: Sequence[BinaryMask]) -> float:
    """Area under the pooled pixel-level PR curve with atomic tie groups:
    one point per distinct score, from the highest down."""
    return _auprc(*_sorted_pool(*_in_region(maps, gts, regions)))


def _dice_curve(s: np.ndarray, pos: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """:func:`pooled_dice_curve` of a sorted pool and its sorted positives."""
    n_pos = pos.size
    tp = n_pos - np.searchsorted(pos, grid, side="left")
    n_pred = s.size - np.searchsorted(s, grid, side="left")
    denom = n_pred + n_pos
    return np.where(denom > 0, 2.0 * tp / np.maximum(denom, 1), 1.0)


def pooled_dice_curve(maps: Sequence[AnomalyMap], gts: Sequence[BinaryMask],
                      regions: Sequence[BinaryMask],
                      grid: np.ndarray) -> np.ndarray:
    """Pooled Dice (counts summed across samples) at every grid threshold;
    a pixel is predicted anomalous when its score is >= the threshold."""
    return _dice_curve(*_sorted_pool(*_in_region(maps, gts, regions)), grid)


def _grid(top: float, size: int) -> np.ndarray:
    """``size`` thresholds from 0 to ``top``, or to 1 when ``top <= 0``."""
    return np.linspace(0.0, 1.0 if top <= 0.0 else top, size)


def default_grid(maps: Sequence[AnomalyMap],
                 size: int = DEFAULT_GRID_SIZE) -> np.ndarray:
    if not maps:
        raise ValueError("no maps to pool")
    return _grid(max(float(m.scores.max()) for m in maps), size)


def _threshold(s: np.ndarray, pos: np.ndarray, grid: np.ndarray) -> float:
    """:func:`greedy_threshold` of a sorted pool and its sorted positives."""
    if grid.size == 0:
        raise ValueError("threshold grid is empty")
    curve = _dice_curve(s, pos, grid)
    return float(grid[np.nonzero(curve == curve.max())[0][-1]])


def greedy_threshold(val_maps: Sequence[AnomalyMap], val_gts: Sequence[BinaryMask],
                     regions: Sequence[BinaryMask], grid: np.ndarray) -> float:
    """Grid threshold maximizing pooled validation Dice; ties go to the larger."""
    return _threshold(*_sorted_pool(*_in_region(val_maps, val_gts, regions)),
                      np.asarray(grid, dtype=np.float64))


@dataclass(frozen=True)
class FoldResult:
    dice: float
    auprc: float
    threshold: float
    per_sample_dice: List[float]
    per_sample_ids: List[str]


def evaluate_fold(val: Sequence[LabeledSample], test: Sequence[LabeledSample],
                  scores: Mapping[str, np.ndarray],
                  regions: Mapping[str, BinaryMask],
                  n_thresholds: int = DEFAULT_GRID_SIZE) -> FoldResult:
    """Threshold from validation, metrics on test; splits must be nonempty
    and must not share ids.

    ``scores`` holds every sample's in-region scores by sample id: the
    scores of its anomaly map at its eroded region's pixels, in row-major
    order (``amap.scores[region.bits]``, see :func:`anomaly_map` and
    :func:`eval_region`), one per region pixel, and ``regions`` holds those
    regions.
    """
    for name, samples in (("validation", val), ("test", test)):
        if not samples:
            raise ValueError(f"the {name} split is empty")
    if {s.id for s in val} & {s.id for s in test}:
        raise ValueError("validation/test leakage")

    def split(samples):
        kept, labels = [], []
        for s in samples:
            sc, lab = scores[s.id], s.anomaly_gt.bits[regions[s.id].bits]
            if np.shape(sc) != lab.shape:
                shape = "x".join(map(str, np.shape(sc)))
                raise ValueError(f"sample {s.id}: {shape} scores for "
                                 f"{lab.size} region pixels")
            kept.append(sc)
            labels.append(lab)
        return kept, labels

    pool, pos = _sorted_pool(*split(val))
    # the largest in-region score; a map is +0.0 outside its region
    grid = _grid(float(pool[-1]) if pool.size else 0.0, n_thresholds)
    thr = _threshold(pool, pos, grid)

    test_scores, test_labels = split(test)
    tp = pred_n = pos_n = 0
    per_sample = []
    for sc, lab in zip(test_scores, test_labels):
        pred = sc >= thr
        hit = int(np.count_nonzero(pred & lab))
        n_pred, n_pos = int(np.count_nonzero(pred)), int(np.count_nonzero(lab))
        per_sample.append(_dice(hit, n_pred + n_pos))
        tp += hit
        pred_n += n_pred
        pos_n += n_pos
    pool, pos = _sorted_pool(test_scores, test_labels)
    return FoldResult(_dice(tp, pred_n + pos_n), _auprc(pool, pos), thr,
                      per_sample, [s.id for s in test])
