"""Microbenchmarks of the kernel-mixture training loop.

Sizes follow perfbench's ``train_km`` workload: 64 px flair-like phantoms,
24 training images, batches of 8, T = 1000.  ``test_sample_gradients`` and
``test_trial_loss`` time one gradient and one backtracking trial with the
kernel responses and loss target that ``train`` holds per image;
``test_target_loss_and_grad`` times that target's ``loss_and_grad`` alone,
also at 128 px, and records the minor page faults per call; it replaces
``test_fusion_loss_and_grad``, which timed the former
``iqa.fusion_loss_and_grad`` given the held target, so its history starts
afresh.
``test_train`` runs 1 and 5 epochs: every call corrupts and blurs each
training image once, so the difference of the two, divided by 4, is the
cost of one epoch alone.  Run from the repository root::

    PYTHONPATH=src python -m pytest bench/bench_train.py

The file name does not match ``test_*.py``, so the plain ``pytest`` run of
the test suite does not collect it.
"""

import resource

import numpy as np
import pytest

from anomap import denoise, iqa, phantom
from anomap.denoise import KernelMixtureModel, TrainConfig, sample_gradients, train
from anomap.diffusion import derive_seed, forward_noise, linear_schedule, make_field
from anomap.imagecore import BinaryMask
from anomap.iqa import FusionParams, SsimParams

SIZE, N_TRAIN, T = 64, 24, 1000


@pytest.fixture(scope="module")
def setting():
    ds = phantom.gen_dataset(0, SIZE, phantom.PROFILES["flair_like"], N_TRAIN, 1, 1)
    images = [s.image for s in ds.train_healthy]
    sched = linear_schedule(T, 1e-4, 0.02)
    # a model a few epochs into training, so the clamp is partly active
    model = train(KernelMixtureModel(T=T), images, sched,
                  TrainConfig(epochs=3, seed=0)).model
    x0 = images[0]
    t = 600
    x_t = forward_noise(x0, t, make_field("simplex", derive_seed(0, 0), SIZE, SIZE),
                        sched)
    return images, sched, model, x0, x_t, t


def _held(model, x0, x_t):
    # what train holds per image: its kernel responses and its loss target
    return (model.kernel_responses(x_t.pixels),
            iqa.loss_target(x0, SsimParams(), BinaryMask(x0.fg_bits())))


def test_sample_gradients(benchmark, setting):
    _, _, model, x0, x_t, t = setting
    f = FusionParams()
    resp, target = _held(model, x0, x_t)
    benchmark(sample_gradients, model, t, f, resp, target)


@pytest.mark.parametrize("size", [64, 128])
def test_target_loss_and_grad(benchmark, size):
    # a perturbed prediction scored against its foreground's loss target, as
    # sample_gradients calls it; the first call builds the workspace outside
    # the timed rounds
    x0 = phantom.gen_dataset(0, size, phantom.PROFILES["flair_like"], 1, 1, 1
                             ).train_healthy[0].image
    fg = x0.fg_bits()
    y = denoise._clamp(
        x0.pixels + 0.05 * np.sin(np.arange(x0.pixels.size)).reshape(x0.pixels.shape),
        fg)
    f = FusionParams()
    target = iqa.loss_target(x0, SsimParams(), BinaryMask(fg))
    target.loss_and_grad(y, f)
    rounds = 200
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    benchmark.pedantic(target.loss_and_grad, (y, f), rounds=rounds, iterations=1)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    benchmark.extra_info["minor_faults_per_call"] = (after - before) / rounds


def test_trial_loss(benchmark, setting):
    # one backtracking trial: mix the held responses, clamp them and score
    # them against the held target
    _, _, model, x0, x_t, t = setting
    f = FusionParams()
    resp, target = _held(model, x0, x_t)

    def trial():
        return target.loss(denoise._clamp(model.mix(resp, t), target.bits), f)

    benchmark(trial)


@pytest.mark.parametrize("epochs", [1, 5])
def test_train(benchmark, setting, epochs):
    images, sched, _, _, _, _ = setting
    benchmark(lambda: train(KernelMixtureModel(T=T), images, sched,
                            TrainConfig(epochs=epochs, seed=0)))
