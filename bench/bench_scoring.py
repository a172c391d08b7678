"""Microbenchmarks of the scoring hot path: simplex noise (placement
fields, plus the phantom texture and training field shapes), patched
reconstruction, the SSIM window moments and fusion anomaly map, the region
median filter, one
pool scoring task and the pooled metrics.

Sizes follow perfbench's ``ablate_flair`` workload (``configs/ablate_flair.cfg``):
64 px flair-like phantoms, default half-size patches at quarter stride (nine
32 x 32 placements), six-octave simplex noise, the blur baseline at sigma 4
and t_test = 50.  The ``_128`` benches follow its ``disk128_w2`` workload: the
same config at 128 px with Gaussian noise (nine 64 x 64 placements); its
folds pool 24 test maps for ``auprc`` and 16 validation maps for
``pooled_dice_curve``, each scored inside its eroded brain mask, and
``evaluate_fold`` takes both splits' in-region scores.  Run from
the repository root::

    PYTHONPATH=src python -m pytest bench/bench_scoring.py

The file name does not match ``test_*.py``, so the plain ``pytest`` run of
the test suite does not collect it.
"""

import dataclasses
import pickle
import tracemalloc

import numpy as np
import pytest

from anomap import (config, denoise, diffusion, evalkit, imagecore, iqa,
                    phantom, pipeline, simplex)

CFG = config.parse_file("configs/ablate_flair.cfg")
CFG128 = dataclasses.replace(CFG, size=128, noise="gaussian")
PATCH = CFG.size // 2
SEEDS = [diffusion.derive_seed(0, i) for i in range(9)]


def _setting(cfg):
    sample = phantom.gen_abnormal(0, cfg.size, phantom.PROFILES[cfg.profile])
    sched = diffusion.linear_schedule(cfg.T, cfg.beta_1, cfg.beta_T)
    model = denoise.blur_denoiser(cfg.blur_sigma)
    # the config leaves the patches unset; give the image's default spec
    ecfg = dataclasses.replace(
        pipeline.eval_config(cfg),
        patch=diffusion.PatchSpec.default_for(cfg.size, cfg.size))
    return sample, sched, model, ecfg


@pytest.fixture(scope="module")
def setting():
    return _setting(CFG)


@pytest.fixture(scope="module")
def setting128():
    return _setting(CFG128)


def test_octave_grid(benchmark):
    # one placement's field, as make_field draws it
    benchmark(simplex.octave_grid, SEEDS[0], PATCH, PATCH,
              diffusion.DEFAULT_OCTAVES, diffusion.DEFAULT_PERSISTENCE,
              float(PATCH))


def test_octave_grids_nine_seeds(benchmark):
    # all placements' fields of one sample, as reconstruct_patched draws them
    benchmark(simplex.octave_grids, SEEDS, PATCH, PATCH,
              diffusion.DEFAULT_OCTAVES, diffusion.DEFAULT_PERSISTENCE,
              float(PATCH))


# the other two field shapes a call draws: the phantom textures (one seed,
# 2 octaves at a quarter of the size) and the training fields (one seed,
# the whole image)
FIELDS = {
    "texture": (SEEDS[:1], CFG.size, 2, 0.5, CFG.size / 4.0),
    "training": (SEEDS[:1], CFG.size, diffusion.DEFAULT_OCTAVES,
                 diffusion.DEFAULT_PERSISTENCE, float(CFG.size)),
}


@pytest.mark.parametrize("memo", ["cold", "warm"])
@pytest.mark.parametrize("shape", list(FIELDS))
def test_octave_grids_one_seed(benchmark, shape, memo):
    # cold: the lattice geometry is rebuilt every round, as after a change
    # of shape; warm: it comes from the memo
    seeds, size, octaves, persistence, base_scale = FIELDS[shape]
    args = (seeds, size, size, octaves, persistence, base_scale)
    if memo == "cold":
        benchmark.pedantic(simplex.octave_grids, args=args, rounds=200,
                           setup=simplex._grid_geometry.cache_clear)
    else:
        benchmark(simplex.octave_grids, *args)


def test_reconstruct_patched(benchmark, setting):
    sample, sched, model, ecfg = setting
    benchmark(diffusion.reconstruct_patched, model, sample.image, ecfg.t_test,
              sched, ecfg.patch, 0, ecfg.noise_kind)


def test_score_sample(benchmark, setting):
    sample, sched, model, ecfg = setting
    benchmark(evalkit.score_sample, model, sample, ecfg, sched, 0)


def test_scores_task_128(benchmark, setting128):
    # one pool task of disk128_w2 (one group of one member), as
    # pipeline.score sends it; extra_info holds the pickled size of the
    # result, the message a worker sends back
    sample, sched, model, ecfg = setting128
    task = ([(model, sample, [ecfg])], sched, 0,
            evalkit.eval_region(sample, ecfg))
    benchmark.extra_info["result_pickle_bytes"] = len(
        pickle.dumps(pipeline._scores(task)))
    benchmark(pipeline._scores, task)


def test_reconstruct_patched_128(benchmark, setting128):
    sample, sched, model, ecfg = setting128
    benchmark(diffusion.reconstruct_patched, model, sample.image, ecfg.t_test,
              sched, ecfg.patch, 0, ecfg.noise_kind)


def test_score_sample_128(benchmark, setting128):
    sample, sched, model, ecfg = setting128
    benchmark(evalkit.score_sample, model, sample, ecfg, sched, 0)


@pytest.mark.parametrize("W", [5, 11])
@pytest.mark.parametrize("size", [32, 64, 128])
def test_window_moments(benchmark, size, W):
    # the box moments behind every SSIM map, trial loss and gradient
    x, y = np.random.default_rng(0).random((2, size, size))
    benchmark(iqa._window_moments, x, y, W)


@pytest.mark.parametrize("size", [64, 127, 128, 256])
def test_fusion_anomaly_map(benchmark, size):
    # the map every scored sample gets; an even width's moment stack gets a
    # spare column, and 127 px rows are odd already
    x, y = (imagecore.Image2D(a)
            for a in np.random.default_rng(0).random((2, size, size)))
    benchmark(iqa.fusion_anomaly_map, x, y, iqa.SsimParams(CFG.ssim_window))


def _score_raster(size, seed=0):
    # a fusion-map-like score raster: nonnegative, mostly small
    return np.random.default_rng(seed).exponential(0.05, (size, size))


@pytest.mark.parametrize("size", [64, 128])
def test_median_filter(benchmark, size):
    # every pixel, as the median ranked them before it took a region
    benchmark(imagecore.median_filter, imagecore.AnomalyMap(_score_raster(size)),
              CFG.median_k, imagecore.BinaryMask(np.ones((size, size), bool)))


def test_median_filter_region_128(benchmark, setting128):
    # only the eroded brain mask of a 128 px phantom, as anomaly_map runs it
    sample, _, _, ecfg = setting128
    benchmark(imagecore.median_filter, imagecore.AnomalyMap(_score_raster(128)),
              ecfg.median_k, evalkit.eval_region(sample, ecfg))


@pytest.fixture(scope="module")
def pools128():
    """The disk128_w2 dataset's 16 validation and 24 test samples as
    (maps, lesion masks, eroded regions), and under ``"fold"`` the
    arguments of their ``evaluate_fold``."""
    ds = phantom.gen_dataset(0, 128, phantom.PROFILES[CFG.profile], 1, 16, 24)
    ecfg = pipeline.eval_config(CFG128)
    pools, scores, by_id = {}, {}, {}
    for name, samples in (("val", ds.val_abnormal), ("test", ds.test_abnormal)):
        regions = [evalkit.eval_region(s, ecfg) for s in samples]
        maps = [imagecore.median_filter(
                    imagecore.AnomalyMap(_score_raster(128, i)), ecfg.median_k,
                    region)
                for i, region in enumerate(regions)]
        pools[name] = maps, [s.anomaly_gt for s in samples], regions
        for s, amap, region in zip(samples, maps, regions):
            scores[s.id] = amap.scores[region.bits]
            by_id[s.id] = region
    pools["fold"] = (ds.val_abnormal, ds.test_abnormal, scores, by_id,
                     CFG128.n_thresholds)
    return pools


def test_auprc_24_maps_128(benchmark, pools128):
    benchmark(evalkit.auprc, *pools128["test"])


def test_pooled_dice_curve_16_maps_128(benchmark, pools128):
    maps, gts, regions = pools128["val"]
    benchmark(evalkit.pooled_dice_curve, maps, gts, regions,
              evalkit.default_grid(maps, CFG128.n_thresholds))


def test_evaluate_fold_128(benchmark, pools128):
    # one member's evaluation, as pipeline.score calls it; extra_info holds
    # the call's tracemalloc peak, the memory evaluation itself allocates
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        evalkit.evaluate_fold(*pools128["fold"])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    benchmark.extra_info["tracemalloc_peak_kib"] = peak / 1024
    benchmark(evalkit.evaluate_fold, *pools128["fold"])
