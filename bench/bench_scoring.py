"""Microbenchmarks of the scoring hot path: simplex noise and patched
reconstruction.

Sizes follow perfbench's ``ablate_flair`` workload (``configs/ablate_flair.cfg``):
64 px flair-like phantoms, default half-size patches at quarter stride (nine
32 x 32 placements), six-octave simplex noise, the blur baseline at sigma 4
and t_test = 50.  Run from the repository root::

    PYTHONPATH=src python -m pytest bench/bench_scoring.py

The file name does not match ``test_*.py``, so the plain ``pytest`` run of
the test suite does not collect it.
"""

import pytest

from anomap import config, denoise, diffusion, evalkit, phantom, pipeline, simplex

CFG = config.parse_file("configs/ablate_flair.cfg")
PATCH = CFG.size // 2
SEEDS = [diffusion.derive_seed(0, i) for i in range(9)]


@pytest.fixture(scope="module")
def setting():
    sample = phantom.gen_abnormal(0, CFG.size, phantom.PROFILES[CFG.profile])
    sched = diffusion.linear_schedule(CFG.T, CFG.beta_1, CFG.beta_T)
    model = denoise.blur_denoiser(CFG.blur_sigma)
    return sample, sched, model, pipeline.eval_config(CFG)


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
