"""Microbenchmarks of the scoring hot path: simplex noise, patched
reconstruction and the median filter.

Sizes follow perfbench's ``ablate_flair`` workload (``configs/ablate_flair.cfg``):
64 px flair-like phantoms, default half-size patches at quarter stride (nine
32 x 32 placements), six-octave simplex noise, the blur baseline at sigma 4
and t_test = 50.  The ``_128`` benches follow its ``disk128_w2`` workload: the
same config at 128 px with Gaussian noise (nine 64 x 64 placements).  Run from
the repository root::

    PYTHONPATH=src python -m pytest bench/bench_scoring.py

The file name does not match ``test_*.py``, so the plain ``pytest`` run of
the test suite does not collect it.
"""

import dataclasses

import numpy as np
import pytest

from anomap import (config, denoise, diffusion, evalkit, imagecore, phantom,
                    pipeline, simplex)

CFG = config.parse_file("configs/ablate_flair.cfg")
CFG128 = dataclasses.replace(CFG, size=128, noise="gaussian")
PATCH = CFG.size // 2
SEEDS = [diffusion.derive_seed(0, i) for i in range(9)]


def _setting(cfg):
    sample = phantom.gen_abnormal(0, cfg.size, phantom.PROFILES[cfg.profile])
    sched = diffusion.linear_schedule(cfg.T, cfg.beta_1, cfg.beta_T)
    model = denoise.blur_denoiser(cfg.blur_sigma)
    return sample, sched, model, pipeline.eval_config(cfg)


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


def test_reconstruct_patched(benchmark, setting):
    sample, sched, model, ecfg = setting
    benchmark(diffusion.reconstruct_patched, model, sample.image, ecfg.t_test,
              sched, ecfg.patch, 0, ecfg.noise_kind)


def test_score_sample(benchmark, setting):
    sample, sched, model, ecfg = setting
    benchmark(evalkit.score_sample, model, sample, ecfg, sched, 0)


def test_reconstruct_patched_128(benchmark, setting128):
    sample, sched, model, ecfg = setting128
    benchmark(diffusion.reconstruct_patched, model, sample.image, ecfg.t_test,
              sched, ecfg.patch, 0, ecfg.noise_kind)


def test_score_sample_128(benchmark, setting128):
    sample, sched, model, ecfg = setting128
    benchmark(evalkit.score_sample, model, sample, ecfg, sched, 0)


@pytest.mark.parametrize("size", [64, 128])
def test_median_filter(benchmark, size):
    # a fusion-map-like score raster: nonnegative, mostly small
    scores = np.random.default_rng(0).exponential(0.05, (size, size))
    benchmark(imagecore.median_filter, imagecore.AnomalyMap(scores),
              CFG.median_k)
