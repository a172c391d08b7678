"""The benchmark's workloads and how a ``--seed`` becomes their inputs.

Each workload is one call into anomap's public API, ``pipeline.run`` or
``pipeline.ablate``, on a configuration derived from a committed config file.
The workloads are chosen so that every layer a planned optimisation targets
does most of the work in one workload and little or none in another:

* ``ablate_flair`` scores under simplex noise with the blur baseline and no
  training; simplex noise dominates, and every variant regenerates the same
  phantom datasets.  The ``fq_air`` variant covers the intensity flip.
* ``train_km`` is the only workload that trains (the kernel mixture); the
  training loop's loss, gradient and backtracking dominate.
* ``disk128_w2`` reads a 128 px dataset from disk with Gaussian noise and two
  scoring workers; it bypasses simplex and phantom entirely, and per-placement
  blur plus the median filter dominate.

Sample and fold counts are scaled down from the committed configs so that one
call takes two to three seconds and a run repeats it about ten times: calls
on a shared machine vary by up to 15%, and the median of many short calls is
steadier than that of a few long ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

# Config seeds 0 .. SEED_POOL-1 have stored reference outputs; a --seed maps
# onto that pool, so the same --seed always gives the same inputs.
SEED_POOL = 16
DEFAULT_SEED = 0
# Confirm a claimed gain on this seed; do not tune a change against it.
HELD_OUT_SEED = 13


@dataclass(frozen=True)
class DiskDataset:
    """A phantom dataset the benchmark writes to disk before the run."""

    size: int
    profile: str
    n_train: int
    n_val: int
    n_test: int


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str                  # "run" or "ablate" in anomap.pipeline
    base_config: str            # committed config, relative to the repo root
    overrides: dict = field(default_factory=dict)
    workers: int = 1
    disk: Optional[DiskDataset] = None
    why: str = ""

    @property
    def folds_per_call(self) -> int:
        folds = self.overrides["folds"]
        return 4 * folds if self.entry == "ablate" else folds


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "ablate_flair", "ablate", "configs/ablate_flair.cfg",
            overrides={"folds": 1},
            why="blur-baseline ablation under simplex noise, no training: "
                "simplex noise and phantom regeneration dominate"),
        Workload(
            "train_km", "run", "configs/default.cfg",
            overrides={"n_train": 24, "epochs": 25, "n_val": 6, "n_test": 8,
                       "folds": 1},
            why="the only workload that trains: kernel-mixture loss, "
                "gradient and backtracking dominate"),
        Workload(
            "disk128_w2", "run", "configs/ablate_flair.cfg",
            overrides={"dataset_kind": "disk", "size": 128,
                       "noise": "gaussian", "folds": 3},
            workers=2,
            disk=DiskDataset(128, "flair_like", 1, 16, 24),
            why="128 px dataset read from disk, Gaussian noise, 2 workers: "
                "no simplex or phantom; blur and median filter dominate"),
    )
}


def config_seed(seed: int) -> int:
    """The ``[run] seed`` (and disk dataset seed) for a benchmark --seed."""
    return seed % SEED_POOL
