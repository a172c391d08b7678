"""Macrobenchmarks of the fold loop: ``pipeline.ablate`` and ``pipeline.run``.

Sizes follow perfbench's ``ablate_flair`` workload: ``configs/ablate_flair.cfg``
(64 px flair-like phantoms, 8 validation and 10 test samples, the blur
baseline at sigma 4, t_test = 50) with one fold.  ``ablate`` runs the four
variants on one shared dataset; ``run`` is one variant alone, so the ratio of
the two shows what the variants share.  ``ablate`` with two workers maps each
sample for every variant of its group in the worker that reconstructed it.
Run from the repository root::

    PYTHONPATH=src python -m pytest bench/bench_pipeline.py

The file name does not match ``test_*.py``, so the plain ``pytest`` run of
the test suite does not collect it.
"""

import dataclasses

import pytest

from anomap import config, pipeline

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
