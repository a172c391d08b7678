"""Fold orchestration: dataset preparation, training, thresholding, metrics.

A "fold" in phantom mode is one generator seed; each fold prepares its data
(optionally applying the intensity-flip decision derived from the unhealthy
validation split), trains the kernel-mixture reconstruction model on the
healthy split under the variant's loss blend, picks the binarization
threshold on validation, and evaluates on test.  All randomness is derived
from (config, seed), so reports are byte-identical across runs and worker
counts.

:func:`run` and :func:`ablate` share one fold loop, :func:`run_fold`, which
takes every variant of the call at once; a run is the one-variant case.
With several workers a call opens one process pool and scores every fold
in it; a pool that a dead worker broke fails only the fold that was using
it, and the next fold gets a fresh one.
"""

from __future__ import annotations

import csv
import io
import logging
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from . import airprep, datasetio, denoise, diffusion, evalkit, fileio, phantom
from .config import VARIANTS, RunConfig, render
from .denoise import KernelMixtureModel, TrainConfig
from .evalkit import EvalConfig, FoldResult
from .iqa import FusionParams, SsimParams
from .phantom import Dataset, LabeledSample

log = logging.getLogger("anomap")


@dataclass
class FoldOutcome:
    fold: int
    result: Optional[FoldResult]
    error: Optional[str]
    stats: Optional[airprep.DatasetStats]
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


def build_profile(cfg: RunConfig) -> phantom.ModalityProfile:
    if cfg.lesion_gap is not None:
        return phantom.profile_with_gap(cfg.profile, cfg.lesion_gap)
    return phantom.PROFILES[cfg.profile]


def load_fold_dataset(cfg: RunConfig, fold: int) -> Dataset:
    if cfg.dataset_kind == "disk":
        return datasetio.load_dataset(cfg.dataset_path)
    fold_seed = diffusion.derive_seed(cfg.seed, fold)
    return phantom.gen_dataset(fold_seed, cfg.size, build_profile(cfg),
                               cfg.n_train, cfg.n_val, cfg.n_test)


def eval_config(cfg: RunConfig) -> EvalConfig:
    return EvalConfig(
        t_test=cfg.resolved_t_test(),
        ssim=SsimParams(W=cfg.ssim_window),
        fusion=FusionParams(alpha=cfg.resolved_alpha()),
        median_k=cfg.median_k,
        erosion_iters=cfg.erosion_iters,
        n_thresholds=cfg.n_thresholds,
        patch=cfg.patch(),
        noise_kind=cfg.noise,
    )


def _apply_decision(samples, flip: bool) -> List[LabeledSample]:
    return [replace(s, image=airprep.apply(s.image, flip)) for s in samples]


def require_workers(workers: int) -> int:
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def _maps(args):
    """A sample's anomaly maps, one list per group with one map per member,
    from one draw of its placement noise and one reconstruction per group.

    Each group is ``(model, sample, ecfgs)``: its model, its own version of
    the sample (flipped or not) and its members' eval configs.
    """
    groups, sched, seed, region = args
    _, sample, ecfgs = groups[0]
    noises = evalkit.patch_noise(sample, ecfgs[0], seed)
    maps = []
    for model, sample, ecfgs in groups:
        recon = evalkit.reconstruct(model, sample, ecfgs[0], sched, noises)
        maps.append([evalkit.anomaly_map(sample.image, recon, region, e)
                     for e in ecfgs])
    return maps


def _in_order(pool, fn, args) -> list:
    """``fn`` over ``args`` in order, in the pool's workers when there is one;
    parallelism never changes the results."""
    if pool is None:
        return [fn(a) for a in args]
    return list(pool.map(fn, args))


def _failed(fold: int, exc: Exception) -> FoldOutcome:
    log.error("fold %d failed: %s", fold, exc)
    return FoldOutcome(fold, None, str(exc), None, False, [])


def _model(cfg: RunConfig, ecfg: EvalConfig, train_set, fold_seed: int, sched):
    """The reconstruction model and its training loss trace: the blur
    baseline, or a kernel mixture trained under the variant's loss blend."""
    if cfg.blur_sigma is not None:
        return denoise.blur_denoiser(cfg.blur_sigma), []
    tcfg = TrainConfig(epochs=cfg.epochs, learning_rate=cfg.learning_rate,
                       batch_size=cfg.batch_size, seed=fold_seed,
                       noise_kind=cfg.noise)
    trained = denoise.train(KernelMixtureModel(T=cfg.T),
                            [s.image for s in train_set], sched, tcfg,
                            ecfg.ssim, ecfg.fusion)
    return trained.model, trained.loss_trace


def run_fold(cfgs: Sequence[RunConfig], fold: int,
             pool: Optional[ProcessPoolExecutor] = None,
             dump_maps: bool = False,
             dataset: Optional[Dataset] = None) -> List[FoldOutcome]:
    """One fold of every variant in ``cfgs``, which differ only in
    ``variant`` and ``out``; stage errors are captured, not raised.

    The variants share the fold's dataset (``dataset`` if given, else
    built from the first config), its AIR statistics and flip decision, and
    each scored sample's eroded region.  Variants whose reconstructions
    cannot differ form a group: the same images after the flip decision and
    the same model, which for a trained model means the same loss ``alpha``
    (the blur baseline does not depend on the variant at all).

    Every group first builds its model, in group order; a training error
    fails only that group's variants.  The fold then makes one ordered pass
    over its scored samples, in ``pool``'s workers when there is one, else
    in this process.  Each task draws the sample's placement noise once,
    reconstructs the sample once per live group from that group's images
    and model, and maps it for every member, so no reconstruction leaves
    the process that made it.  The pass is one stage: an error inside it
    fails every variant of the fold that was still live.  The members are
    then evaluated one at a time from those maps, all on the fold's own
    splits: flipping changes no sample id and no ground truth.
    With ``dump_maps`` each variant's test maps go to
    ``<out>/maps/fold<k>/<id>.f32r``.
    """
    cfg = cfgs[0]
    try:
        ds = dataset if dataset is not None else load_fold_dataset(cfg, fold)
        stats = airprep.dataset_stats(ds.val_abnormal)
        scored = [*ds.val_abnormal, *ds.test_abnormal]
        regions = {s.id: evalkit.eval_region(s, eval_config(cfg)) for s in scored}
        if ds.test_abnormal and not any(regions[s.id].count()
                                        for s in ds.test_abnormal):
            # no test pixel left to score: AUPRC would be undefined
            raise ValueError(f"erosion_iters = {cfg.erosion_iters} empties "
                             "the scored region of every test sample, "
                             f"first {ds.test_abnormal[0].id}")
        fold_seed = diffusion.derive_seed(cfg.seed, 100 + fold)
        sched = diffusion.linear_schedule(cfg.T, cfg.beta_1, cfg.beta_T)
    except Exception as exc:  # fold failures are reported, not fatal
        return [_failed(fold, exc) for _ in cfgs]

    flip = any(c.uses_air() for c in cfgs) and airprep.decide(stats)
    groups = {}
    for i, c in enumerate(cfgs):
        alpha = None if c.blur_sigma is not None else c.resolved_alpha()
        groups.setdefault((c.uses_air() and flip, alpha), []).append(i)
    log.info("fold %d: %d variant(s) in %d reconstruction group(s)",
             fold, len(cfgs), len(groups))

    outcomes: List[Optional[FoldOutcome]] = [None] * len(cfgs)
    live = []  # (members, ecfgs, flipped, model, loss trace, scored samples)
    for (flipped, _), members in groups.items():
        try:
            ecfgs = [eval_config(cfgs[i]) for i in members]
            train_set, samples = ds.train_healthy, scored
            if flipped:
                train_set, samples = (_apply_decision(s, flip)
                                      for s in (train_set, samples))
            model, loss_trace = _model(cfgs[members[0]], ecfgs[0], train_set,
                                       fold_seed, sched)
        except Exception as exc:
            for i in members:
                outcomes[i] = _failed(fold, exc)
            continue
        live.append((members, ecfgs, flipped, model, loss_trace, samples))
    if not live:
        return outcomes

    try:
        # per scored sample: each live group's model, its version of the
        # sample and its members' eval configs
        tasks = [([(model, samples[k], ecfgs)
                   for _, ecfgs, _, model, _, samples in live],
                  sched, fold_seed, regions[s.id])
                 for k, s in enumerate(scored)]
        per_sample = _in_order(pool, _maps, tasks)
    except Exception as exc:
        for members, *_ in live:
            for i in members:
                outcomes[i] = _failed(fold, exc)
        return outcomes

    for g, (members, ecfgs, flipped, _, loss_trace, _) in enumerate(live):
        for j, (i, ecfg) in enumerate(zip(members, ecfgs)):
            c = cfgs[i]
            try:
                maps = {s.id: m[g][j] for s, m in zip(scored, per_sample)}
                result = evalkit.evaluate_fold(ds.val_abnormal, ds.test_abnormal,
                                               maps, regions, ecfg.n_thresholds)
                if dump_maps:
                    d = fileio.ensure_dir(Path(c.out) / "maps" / f"fold{fold}")
                    for s in ds.test_abnormal:
                        fileio.write_f32r(d / f"{s.id}.f32r", maps[s.id].scores)
                outcomes[i] = FoldOutcome(fold, result, None, stats, flipped,
                                          loss_trace)
            except Exception as exc:
                outcomes[i] = _failed(fold, exc)
    return outcomes


def _broken(pool: ProcessPoolExecutor) -> bool:
    """Whether a worker died and broke the pool, which then fails every
    task: one trivial task finds out."""
    try:
        pool.submit(int).result()
    except BrokenProcessPool:
        return True
    return False


def _require_patches_fit(cfg: RunConfig, ds: Dataset) -> None:
    """Reject a configured patch grid that does not fit or cover a scored
    image of a disk dataset, whose rasters ``[dataset] size`` does not
    describe."""
    patch = cfg.patch()
    for s in (*ds.val_abnormal, *ds.test_abnormal):
        img = s.image
        try:
            diffusion.placements(patch.resolve(img.height, img.width),
                                 img.height, img.width)
        except ValueError as exc:
            raise ValueError(
                f"{cfg.dataset_path}: sample {s.id}: {exc}") from None


def _require_trainable(cfg: RunConfig, ds: Dataset) -> None:
    """Reject a disk dataset's training split that :func:`denoise.train`
    cannot use, which would otherwise fail every fold and group alike."""
    images = [s.image for s in ds.train_healthy]
    if not images:
        raise ValueError(f"{cfg.dataset_path}: the training split is empty")
    for i, s in enumerate(ds.train_healthy):
        try:
            denoise.check_training_image(images, i)
        except ValueError as exc:
            raise ValueError(
                f"{cfg.dataset_path}: sample {s.id}: {exc}") from None


def _run_variants(cfgs: Sequence[RunConfig], workers: int,
                  dump_maps: bool = False) -> List[RunReport]:
    """Every fold of every variant in ``cfgs`` through :func:`run_fold`; writes
    each variant's reports to its own ``out``.  With several workers the
    folds share one process pool, replaced only after a worker died."""
    require_workers(workers)
    start = time.monotonic()
    cfg = cfgs[0]
    # a disk dataset does not depend on the fold: read it once per run
    dataset = None
    if cfg.dataset_kind == "disk":
        dataset = datasetio.load_dataset(cfg.dataset_path)
        _require_patches_fit(cfg, dataset)
        if cfg.blur_sigma is None:  # the blur baseline ignores the train split
            _require_trainable(cfg, dataset)
    outs = [fileio.ensure_dir(c.out) for c in cfgs]
    by_fold, pool = [], None
    try:
        for fold in range(cfg.folds):
            if workers > 1 and (pool is None or _broken(pool)):
                if pool is not None:
                    pool.shutdown()
                pool = ProcessPoolExecutor(workers)
            by_fold.append(run_fold(cfgs, fold, pool, dump_maps, dataset))
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


def write_report(report: RunReport, out_dir) -> None:
    out_dir = Path(out_dir)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["fold", "dice", "auprc", "threshold"])
    for o in report.outcomes:
        if o.result is None:
            w.writerow([o.fold, "error", "error", ""])
        else:
            w.writerow([o.fold, f"{o.result.dice:.6f}", f"{o.result.auprc:.6f}",
                        f"{o.result.threshold:.6g}"])
    dm, dsd, am, asd = report.mean_std()
    w.writerow(["mean", f"{dm:.6f}", f"{am:.6f}", ""])
    w.writerow(["std", f"{dsd:.6f}", f"{asd:.6f}", ""])
    (out_dir / "report.csv").write_text(buf.getvalue(), encoding="utf-8")

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["fold", "sample_id", "dice"])
    for o in report.outcomes:
        if o.result is None:
            continue
        for sid, d in zip(o.result.per_sample_ids, o.result.per_sample_dice):
            w.writerow([o.fold, sid, f"{d:.6f}"])
    (out_dir / "per_sample.csv").write_text(buf.getvalue(), encoding="utf-8")

    (out_dir / "config_echo.cfg").write_text(report.config_echo, encoding="utf-8")


def ablate(cfg: RunConfig, workers: int = 1, dump_maps: bool = False) -> dict:
    """Run the four loss/pre-processing variants with shared seeds and folds.

    One pass over the folds serves all four (see :func:`run_fold` for what
    they share); each variant's directory under ``cfg.out`` holds exactly
    the reports, and with ``dump_maps`` the maps, that a separate
    :func:`run` of that variant writes.
    """
    cfgs = [replace(cfg, variant=v, out=str(Path(cfg.out) / v)) for v in VARIANTS]
    reports = dict(zip(VARIANTS, _run_variants(cfgs, workers, dump_maps)))

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["variant", "dice_mean", "dice_std", "auprc_mean", "auprc_std"])
    for variant, report in reports.items():
        dm, dsd, am, asd = report.mean_std()
        w.writerow([variant, f"{dm:.6f}", f"{dsd:.6f}", f"{am:.6f}", f"{asd:.6f}"])
    (Path(cfg.out) / "ablate.csv").write_text(buf.getvalue(), encoding="utf-8")
    return reports
