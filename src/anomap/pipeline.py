"""Fold orchestration: dataset preparation, training, thresholding, metrics.

A "fold" in phantom mode is one generator seed.  All randomness is derived
from (config, seed), so reports are byte-identical across runs and worker
counts.  :func:`run` and :func:`ablate` share one fold loop, :func:`run_fold`,
which takes every variant of the call at once in three stages:
:func:`prepare` checks a dataset, groups the variants whose reconstructions
cannot differ and gives each group its images, flipped once for AIR;
:func:`train_group` builds one group's model; :func:`score` maps every
scored sample for every group in one ordered pass, in tasks that send back
of each map only its scores inside the sample's eroded region, then
evaluates each variant from those, so no map leaves the task that made it.
A phantom fold prepares its own dataset; a disk dataset does not depend on
the fold, so a call reads, prepares and flips it once, before any fold.
With several workers a call scores every fold in one process pool, sending
a fold's samples in chunks of :func:`chunk_size` (about
``CHUNKS_PER_WORKER`` messages per worker) rather than one message per
sample; a pool that a dead worker broke fails only the fold that was using
it, and the next fold gets a fresh one.
"""

from __future__ import annotations

import csv
import functools
import io
import logging
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from . import airprep, datasetio, denoise, diffusion, evalkit, fileio, phantom
from .config import VARIANTS, RunConfig, render
from .denoise import KernelMixtureModel, TrainConfig
from .diffusion import DiffusionSchedule
from .evalkit import EvalConfig, FoldResult
from .imagecore import BinaryMask, Image2D
from .iqa import FusionParams, SsimParams
from .phantom import Dataset, LabeledSample

log = logging.getLogger("anomap")

# a fold's scoring reaches the pool in about this many messages per worker:
# enough that the last ones leave no worker idle for long, few enough that
# the parent is not woken once per sample while every worker is busy
CHUNKS_PER_WORKER = 8


@dataclass
class FoldOutcome:
    fold: int
    result: Optional[FoldResult]
    error: Optional[str]
    flipped: bool
    loss_trace: List[float]


@dataclass
class RunReport:
    config_echo: str
    outcomes: List[FoldOutcome]
    wall_clock: float

    @property
    def complete(self) -> bool:
        return all(o.error is None for o in self.outcomes)

    def mean_std(self):
        done = [o.result for o in self.outcomes if o.result is not None]
        if not done:
            return (float("nan"),) * 4
        dices = np.array([r.dice for r in done])
        areas = np.array([r.auprc for r in done])
        return (float(dices.mean()), float(dices.std()),
                float(areas.mean()), float(areas.std()))


def load_fold_dataset(cfg: RunConfig, fold: int) -> Dataset:
    if cfg.dataset_kind == "disk":
        return datasetio.load_dataset(cfg.dataset_path)
    profile = (phantom.PROFILES[cfg.profile] if cfg.lesion_gap is None
               else phantom.profile_with_gap(cfg.profile, cfg.lesion_gap))
    fold_seed = diffusion.derive_seed(cfg.seed, fold)
    return phantom.gen_dataset(fold_seed, cfg.size, profile,
                               cfg.n_train, cfg.n_val, cfg.n_test)


def eval_config(cfg: RunConfig) -> EvalConfig:
    return EvalConfig(
        t_test=cfg.resolved_t_test(),
        ssim=SsimParams(W=cfg.ssim_window),
        fusion=FusionParams(alpha=cfg.resolved_alpha()),
        median_k=cfg.median_k,
        erosion_iters=cfg.erosion_iters,
        patch=cfg.patch(),
        noise_kind=cfg.noise,
    )


def require_workers(workers: int) -> int:
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def chunk_size(n: int, workers: int) -> int:
    """The samples per pool message when ``workers`` processes score a fold
    of ``n``: ``ceil(n / (CHUNKS_PER_WORKER * workers))``.  At ``n >=
    workers`` that leaves at least one chunk per worker."""
    return -(-n // (CHUNKS_PER_WORKER * workers))


def _scores(args):
    """A sample's in-region scores, ``anomaly_map(...).scores[region.bits]``,
    one array per member in one flat list, group by group and in each group's
    ``members`` order, from one draw of its placement noise and one
    reconstruction per group.

    Each group is ``(model, sample, ecfgs)``: its model, its own version of
    the sample (flipped or not) and its members' eval configs.
    """
    groups, sched, seed, region = args
    _, sample, ecfgs = groups[0]
    noises = evalkit.patch_noise(sample, ecfgs[0], seed)
    scores = []
    for model, sample, ecfgs in groups:
        recon = evalkit.reconstruct(model, sample, ecfgs[0], sched, noises)
        scores += [evalkit.anomaly_map(sample.image, recon, region,
                                       e).scores[region.bits] for e in ecfgs]
    return scores


def _failed(fold: int, exc: Exception) -> FoldOutcome:
    log.error("fold %d failed: %s", fold, exc)
    return FoldOutcome(fold, None, str(exc), False, [])


class Group(NamedTuple):
    """Variants whose reconstructions cannot differ and the images they see."""
    members: List[int]
    flipped: bool
    scored: List[LabeledSample]  # validation, then test
    train: List[LabeledSample]  # none for the blur baseline


@dataclass
class FoldPlan:
    """What :func:`prepare` fixes for a dataset before any model is built;
    nothing in it depends on the fold's seed."""
    cfgs: Sequence[RunConfig]
    ds: Dataset
    scored: List[LabeledSample]  # validation, then test, unflipped
    regions: Dict[str, BinaryMask]
    sched: DiffusionSchedule
    groups: List[Group]


def _each(samples, f) -> list:
    """``f(i, image)`` for each sample; an error names the sample id."""
    out = []
    for i, s in enumerate(samples):
        try:
            out.append(f(i, s.image))
        except ValueError as exc:
            raise ValueError(f"sample {s.id}: {exc}") from None
    return out


def prepare(cfgs: Sequence[RunConfig], ds: Dataset) -> FoldPlan:
    """The plan of ``ds`` for the variants ``cfgs``.  Raises on the first
    rule ``ds`` breaks, in this order:

    - an empty validation or test split, or, unless the config blurs (the
      blur baseline reads no training image), an empty training split;
    - a patch grid that does not fit or cover a scored image (the rasters
      of a disk dataset need not be ``[dataset] size``), or a blur kernel
      wider than one;
    - a training image :func:`denoise.train` cannot use;
    - an ``erosion_iters`` that empties every test sample's region;
    - test samples none of which marks a lesion pixel inside its region;
    - only with an AIR variant, validation statistics that cannot be
      computed, and, when they decide a flip, an image the flip reads whose
      foreground leaves [0, 1].

    Variants form one group when they see the same images after the flip,
    made here once, and, unless blurring, train under the same ``alpha``.
    """
    cfg = cfgs[0]
    scored = [*ds.val_abnormal, *ds.test_abnormal]
    train = ds.train_healthy if cfg.blur_sigma is None else []
    splits = [("validation", ds.val_abnormal), ("test", ds.test_abnormal)]
    if cfg.blur_sigma is None:
        splits.append(("training", train))
    for name, split in splits:
        if not split:
            raise ValueError(f"the {name} split is empty")
    patch = cfg.patch()
    _each(scored, lambda _, im: diffusion.placements(
        patch.resolve(im.height, im.width), im.height, im.width))
    if cfg.blur_sigma is not None:
        _each(scored, lambda _, im: denoise.check_blur_sigma(
            cfg.blur_sigma, im.height, im.width))
    images = [s.image for s in train]
    _each(train, lambda i, _: denoise.check_training_image(images, i))
    regions = {s.id: evalkit.eval_region(s, eval_config(cfg)) for s in scored}
    if not any(regions[s.id].count() for s in ds.test_abnormal):
        # no test pixel left to score: AUPRC would be undefined
        raise ValueError(f"erosion_iters = {cfg.erosion_iters} empties "
                         "the scored region of every test sample, "
                         f"first {ds.test_abnormal[0].id}")
    if not any((regions[s.id].bits & s.anomaly_gt.bits).any()
               for s in ds.test_abnormal):
        # no positive pixel to score: AUPRC would be undefined
        raise ValueError("no test sample marks a lesion pixel inside its "
                         "scored region")
    flip = (any(c.uses_air() for c in cfgs)
            and airprep.decide(airprep.dataset_stats(ds.val_abnormal)))
    seen = {False: scored + train}  # the images a group sees, by its flip
    if flip:
        seen[True] = [replace(s, image=im) for s, im in zip(
            seen[False], _each(seen[False],
                               lambda _, im: airprep.apply(im, True)))]
    groups = {}
    for i, c in enumerate(cfgs):
        alpha = None if c.blur_sigma is not None else c.resolved_alpha()
        groups.setdefault((c.uses_air() and flip, alpha), []).append(i)
    return FoldPlan(cfgs, ds, scored, regions,
                    diffusion.linear_schedule(cfg.T, cfg.beta_1, cfg.beta_T),
                    [Group(m, f, seen[f][:len(scored)], seen[f][len(scored):])
                     for (f, _), m in groups.items()])


def train_group(cfg: RunConfig, images: Sequence[Image2D], seed: int,
                sched: DiffusionSchedule):
    """The model of ``cfg``'s group and its training loss trace: the blur
    baseline, which reads no training image, or a kernel mixture trained on
    ``images`` (the healthy split, flipped or not) under ``cfg``'s loss
    blend."""
    if cfg.blur_sigma is not None:
        return denoise.blur_denoiser(cfg.blur_sigma), []
    ecfg = eval_config(cfg)
    tcfg = TrainConfig(epochs=cfg.epochs, learning_rate=cfg.learning_rate,
                       batch_size=cfg.batch_size, seed=seed,
                       noise_kind=cfg.noise)
    trained = denoise.train(KernelMixtureModel(T=cfg.T), images, sched, tcfg,
                            ecfg.ssim, ecfg.fusion)
    return trained.model, trained.loss_trace


def score(plan: FoldPlan, fold: int, seed: int, live: Sequence[tuple],
          mapper: Callable, dump_maps: bool) -> Dict[int, FoldOutcome]:
    """Each member's outcome, by its index in ``plan.cfgs``, for the live
    ``(group, model, loss_trace)`` triples; raises if the shared pass fails.
    Each task draws a sample's placement noise once, reconstructs it once
    per group and maps it for every member, so no reconstruction leaves the
    process that made it, and sends back of each map only its scores inside
    the sample's region, which are all that evaluation reads, so no map
    leaves it either.  ``mapper`` runs the tasks and returns their results
    in order: the built-in ``map`` in this process, or a pool's ``map``,
    which sends them in chunks (see :func:`chunk_size`).  ``dump_maps``
    rebuilds each test map from its region's scores."""
    ds = plan.ds
    members = [(i, g, loss_trace) for g, _, loss_trace in live
               for i in g.members]
    ecfgs = [[eval_config(plan.cfgs[i]) for i in g.members] for g, _, _ in live]
    tasks = [([(model, g.scored[k], e) for (g, model, _), e in zip(live, ecfgs)],
              plan.sched, seed, plan.regions[s.id])
             for k, s in enumerate(plan.scored)]
    # in order either way, so the pool never changes the results
    results = list(mapper(_scores, tasks))
    outcomes = {}
    for j, (i, g, loss_trace) in enumerate(members):
        scores = {s.id: r[j] for s, r in zip(plan.scored, results)}
        try:
            # flipping changes no sample id and no ground truth
            result = evalkit.evaluate_fold(ds.val_abnormal, ds.test_abnormal,
                                           scores, plan.regions,
                                           plan.cfgs[i].n_thresholds)
            if dump_maps:
                d = fileio.ensure_dir(Path(plan.cfgs[i].out) / "maps"
                                      / f"fold{fold}")
                for s in ds.test_abnormal:
                    bits = plan.regions[s.id].bits
                    raster = np.zeros(bits.shape)
                    raster[bits] = scores[s.id]
                    fileio.write_f32r(d / f"{s.id}.f32r", raster)
            outcomes[i] = FoldOutcome(fold, result, None, g.flipped,
                                      loss_trace)
        except Exception as exc:
            outcomes[i] = _failed(fold, exc)
    return outcomes


def run_fold(cfgs: Sequence[RunConfig], fold: int, mapper: Callable = map,
             dump_maps: bool = False,
             plan: Optional[FoldPlan] = None) -> List[FoldOutcome]:
    """One fold of every variant in ``cfgs``, which differ only in
    ``variant`` and ``out``: ``plan``, or without one :func:`prepare` of
    the fold's phantom dataset, then :func:`train_group` for each group in
    order, then :func:`score` through ``mapper``, both under the fold's
    seed.  Errors are captured, not raised:

    - an error preparing the fold (its flip too) fails every variant (a
      call raises a disk dataset's error, with its path, before any fold);
    - an error training a group's model fails only that group's variants;
    - an error in the shared scoring pass fails every live variant;
    - an error evaluating a member fails only that member.

    With ``dump_maps`` each variant's test maps go to
    ``<out>/maps/fold<k>/<id>.f32r``.
    """
    seed = diffusion.derive_seed(cfgs[0].seed, 100 + fold)
    try:
        if plan is None:
            plan = prepare(cfgs, load_fold_dataset(cfgs[0], fold))
    except Exception as exc:  # fold failures are reported, not fatal
        return [_failed(fold, exc) for _ in cfgs]
    log.info("fold %d: %d variant(s) in %d reconstruction group(s)",
             fold, len(cfgs), len(plan.groups))
    outcomes: List[Optional[FoldOutcome]] = [None] * len(cfgs)
    live = []
    for g in plan.groups:
        try:
            live.append((g, *train_group(cfgs[g.members[0]],
                                         [s.image for s in g.train], seed,
                                         plan.sched)))
        except Exception as exc:
            for i in g.members:
                outcomes[i] = _failed(fold, exc)
    if not live:
        return outcomes
    try:
        scores = score(plan, fold, seed, live, mapper, dump_maps)
    except Exception as exc:
        scores = {i: _failed(fold, exc) for g, _, _ in live for i in g.members}
    return [scores.get(i, o) for i, o in enumerate(outcomes)]


def _broken(pool: ProcessPoolExecutor) -> bool:
    """Whether a worker died and broke the pool, which then fails every
    task: one trivial task finds out."""
    try:
        pool.submit(int).result()
    except BrokenProcessPool:
        return True
    return False


def _run_variants(cfgs: Sequence[RunConfig], workers: int,
                  dump_maps: bool = False) -> List[RunReport]:
    """Every fold of every variant in ``cfgs`` through :func:`run_fold`; writes
    each variant's reports to its own ``out``.  With several workers the
    folds share one process pool, replaced only after a worker died, of at
    most one process per scored sample of a fold (its number of tasks), and
    each fold's samples reach it in chunks of :func:`chunk_size`."""
    require_workers(workers)
    start = time.monotonic()
    cfg = cfgs[0]
    # a disk dataset does not depend on the fold: read and prepare it once
    plan = None
    if cfg.dataset_kind == "disk":
        ds = datasetio.load_dataset(cfg.dataset_path)
        try:
            plan = prepare(cfgs, ds)
        except Exception as exc:
            raise ValueError(f"{cfg.dataset_path}: {exc}") from exc
    n = cfg.n_val + cfg.n_test if plan is None else len(plan.scored)
    workers = min(workers, n)
    outs = [fileio.ensure_dir(c.out) for c in cfgs]
    by_fold, pool, mapper = [], None, map
    try:
        for fold in range(cfg.folds):
            if workers > 1 and (pool is None or _broken(pool)):
                if pool is not None:
                    pool.shutdown()
                pool = ProcessPoolExecutor(workers)
                mapper = functools.partial(pool.map,
                                           chunksize=chunk_size(n, workers))
            by_fold.append(run_fold(cfgs, fold, mapper, dump_maps, plan))
    finally:
        if pool is not None:
            pool.shutdown()
    wall = time.monotonic() - start
    reports = []
    for c, out, outcomes in zip(cfgs, outs, zip(*by_fold)):
        report = RunReport(render(c), list(outcomes), wall)
        write_report(report, out)
        reports.append(report)
    return reports


def run(cfg: RunConfig, workers: int = 1, dump_maps: bool = False) -> RunReport:
    """Every fold of ``cfg``'s variant; reports go to ``cfg.out``."""
    return _run_variants([cfg], workers, dump_maps)[0]


def _write_csv(path: Path, rows) -> None:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    path.write_text(buf.getvalue(), encoding="utf-8")


def write_report(report: RunReport, out_dir) -> None:
    out_dir = Path(out_dir)
    rows = [["fold", "dice", "auprc", "threshold"]]
    for o in report.outcomes:
        if o.result is None:
            rows.append([o.fold, "error", "error", ""])
        else:
            rows.append([o.fold, f"{o.result.dice:.6f}", f"{o.result.auprc:.6f}",
                         f"{o.result.threshold:.6g}"])
    dm, dsd, am, asd = report.mean_std()
    rows.append(["mean", f"{dm:.6f}", f"{am:.6f}", ""])
    rows.append(["std", f"{dsd:.6f}", f"{asd:.6f}", ""])
    _write_csv(out_dir / "report.csv", rows)
    _write_csv(out_dir / "per_sample.csv", [["fold", "sample_id", "dice"]] + [
        [o.fold, sid, f"{d:.6f}"] for o in report.outcomes if o.result is not None
        for sid, d in zip(o.result.per_sample_ids, o.result.per_sample_dice)])
    (out_dir / "config_echo.cfg").write_text(report.config_echo, encoding="utf-8")


def ablate(cfg: RunConfig, workers: int = 1, dump_maps: bool = False) -> dict:
    """Run the four loss/pre-processing variants with shared seeds and folds.

    One pass over the folds serves all four (see :func:`prepare` for what
    they share); each variant's directory under ``cfg.out`` holds exactly
    the reports, and with ``dump_maps`` the maps, that a separate
    :func:`run` of that variant writes.
    """
    cfgs = [replace(cfg, variant=v, out=str(Path(cfg.out) / v)) for v in VARIANTS]
    reports = dict(zip(VARIANTS, _run_variants(cfgs, workers, dump_maps)))
    _write_csv(Path(cfg.out) / "ablate.csv",
               [["variant", "dice_mean", "dice_std", "auprc_mean", "auprc_std"]]
               + [[v, *(f"{x:.6f}" for x in r.mean_std())]
                  for v, r in reports.items()])
    return reports
