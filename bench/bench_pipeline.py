"""Macrobenchmarks of the fold loop: ``pipeline.ablate`` and ``pipeline.run``.

Sizes follow perfbench's ``ablate_flair`` workload: ``configs/ablate_flair.cfg``
(64 px flair-like phantoms, 8 validation and 10 test samples, the blur
baseline at sigma 4, t_test = 50) with one fold.  ``ablate`` runs the four
variants on one shared dataset; ``run`` is one variant alone, so the ratio of
the two shows what the variants share.  ``ablate`` with two workers maps each
sample for every variant of its group in the worker that reconstructed it.
``test_run_disk128_two_workers`` follows perfbench's ``disk128_w2``: one
variant over 3 folds of a 128 px flair-like dataset written to disk (1
training, 16 validation and 24 test samples) under Gaussian noise, scored by
two workers that take each fold's 40 samples in chunks.  Run from the
repository root::

    PYTHONPATH=src python -m pytest bench/bench_pipeline.py

The file name does not match ``test_*.py``, so the plain ``pytest`` run of
the test suite does not collect it.
"""

import dataclasses

import pytest

from anomap import config, datasetio, phantom, pipeline

CFG = dataclasses.replace(config.parse_file("configs/ablate_flair.cfg"), folds=1)


@pytest.fixture
def cfg(tmp_path):
    return dataclasses.replace(CFG, out=str(tmp_path / "out")).validate()


def test_ablate(benchmark, cfg):
    benchmark(pipeline.ablate, cfg)


def test_ablate_two_workers(benchmark, cfg):
    benchmark(pipeline.ablate, cfg, workers=2)


def test_run_one_variant(benchmark, cfg):
    benchmark(pipeline.run, cfg)


@pytest.fixture
def disk128(tmp_path):
    ds = phantom.gen_dataset(CFG.seed, 128, phantom.PROFILES["flair_like"],
                             1, 16, 24)
    datasetio.save_dataset(ds, tmp_path / "data")
    return dataclasses.replace(CFG, dataset_kind="disk", size=128,
                               noise="gaussian", folds=3,
                               dataset_path=str(tmp_path / "data"),
                               out=str(tmp_path / "out")).validate()


def test_run_disk128_two_workers(benchmark, disk128):
    benchmark(pipeline.run, disk128, workers=2)
