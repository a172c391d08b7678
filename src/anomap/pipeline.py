"""Fold orchestration: dataset preparation, training, thresholding, metrics.

A "fold" in phantom mode is one generator seed; each fold prepares its data
(optionally applying the intensity-flip decision derived from the unhealthy
validation split), trains the kernel-mixture reconstruction model on the
healthy split under the variant's loss blend, picks the binarization
threshold on validation, and evaluates on test.  All randomness is derived
from (config, seed), so reports are byte-identical across runs and worker
counts.
"""

from __future__ import annotations

import csv
import io
import logging
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import airprep, datasetio, denoise, diffusion, evalkit, fileio, phantom
from .config import RunConfig, render
from .denoise import KernelMixtureModel, TrainConfig
from .diffusion import PatchSpec
from .evalkit import EvalConfig, FoldResult
from .imagecore import Image2D
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


def patch_spec(cfg: RunConfig) -> PatchSpec:
    default = PatchSpec.default_for(cfg.size, cfg.size)
    return PatchSpec(cfg.patch_h or default.patch_h,
                     cfg.patch_w or default.patch_w,
                     cfg.stride_h or default.stride_h,
                     cfg.stride_w or default.stride_w)


def eval_config(cfg: RunConfig) -> EvalConfig:
    return EvalConfig(
        t_test=cfg.resolved_t_test(),
        ssim=SsimParams(W=cfg.ssim_window),
        fusion=FusionParams(alpha=cfg.resolved_alpha()),
        median_k=cfg.median_k,
        erosion_iters=cfg.erosion_iters,
        n_thresholds=cfg.n_thresholds,
        patch=patch_spec(cfg),
        noise_kind=cfg.noise,
    )


def _apply_decision(samples, decision) -> List[LabeledSample]:
    out = []
    for s in samples:
        img = airprep.apply(s.image, decision)
        out.append(LabeledSample(s.id, img, s.foreground, s.anomaly_gt, s.profile))
    return out


def _score_one(args):
    model, sample, ecfg, sched, seed = args
    amap = evalkit.score_sample(model, sample, ecfg, sched, seed)
    return amap


def _score_all(model, samples, ecfg, sched, seed, workers: int):
    """Score samples in order; parallelism never changes the results."""
    if workers <= 1:
        return [evalkit.score_sample(model, s, ecfg, sched, seed)
                for s in samples]
    args = [(model, s, ecfg, sched, seed) for s in samples]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_score_one, args))


def run_fold(cfg: RunConfig, fold: int, workers: int = 1,
             dump_dir=None) -> FoldOutcome:
    """Execute one fold end to end; stage errors are captured, not raised."""
    try:
        ds = load_fold_dataset(cfg, fold)
        fold_seed = diffusion.derive_seed(cfg.seed, 100 + fold)
        sched = diffusion.linear_schedule(cfg.T, cfg.beta_1, cfg.beta_T)

        stats = airprep.dataset_stats(ds.val_abnormal)
        flipped = False
        train_set, val_set, test_set = (ds.train_healthy, ds.val_abnormal,
                                        ds.test_abnormal)
        if cfg.uses_air():
            decision = airprep.decide(stats)
            flipped = decision.flip
            if flipped:
                train_set = _apply_decision(train_set, decision)
                val_set = _apply_decision(val_set, decision)
                test_set = _apply_decision(test_set, decision)

        ecfg = eval_config(cfg)
        alpha = cfg.resolved_alpha()
        loss_trace: List[float] = []
        if cfg.blur_sigma is not None:
            model = denoise.blur_denoiser(cfg.blur_sigma)
        else:
            model = KernelMixtureModel(T=cfg.T)
            tcfg = TrainConfig(epochs=cfg.epochs, learning_rate=cfg.learning_rate,
                               batch_size=cfg.batch_size, seed=fold_seed,
                               noise_kind=cfg.noise)
            trained = denoise.train(model, [s.image for s in train_set], sched,
                                    tcfg, ecfg.ssim, FusionParams(alpha=alpha))
            model = trained.model
            loss_trace = trained.loss_trace

        cache = dict(zip(
            (s.id for s in [*val_set, *test_set]),
            _score_all(model, [*val_set, *test_set], ecfg, sched, fold_seed,
                       workers)))

        def cached(_model, sample, _ecfg, _sched, _seed):
            return cache[sample.id]

        result, test_maps = evalkit.evaluate_fold(
            model, val_set, test_set, ecfg, sched, fold_seed,
            score_fn=cached, return_maps=True)

        if dump_dir is not None:
            d = fileio.ensure_dir(Path(dump_dir) / f"fold{fold}")
            for s, amap in zip(test_set, test_maps):
                fileio.write_f32r(d / f"{s.id}.f32r", amap.scores)

        return FoldOutcome(fold, result, None, stats, flipped, loss_trace)
    except Exception as exc:  # fold failures are reported, not fatal
        log.error("fold %d failed: %s", fold, exc)
        return FoldOutcome(fold, None, str(exc), None, False, [])


def run(cfg: RunConfig, workers: int = 1, dump_maps: bool = False) -> RunReport:
    start = time.monotonic()
    out = fileio.ensure_dir(cfg.out)
    dump_dir = out / "maps" if dump_maps else None
    outcomes = [run_fold(cfg, fold, workers, dump_dir)
                for fold in range(cfg.folds)]
    report = RunReport(render(cfg), outcomes, time.monotonic() - start)
    write_report(report, out)
    return report


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


def ablate(cfg: RunConfig, workers: int = 1) -> dict:
    """Run the four loss/pre-processing variants with shared seeds and folds."""
    from dataclasses import replace

    out = fileio.ensure_dir(cfg.out)
    reports = {}
    for variant in ("l1", "ssim", "fq", "fq_air"):
        vcfg = replace(cfg, variant=variant, out=str(Path(cfg.out) / variant))
        log.info("ablation variant %s", variant)
        reports[variant] = run(vcfg, workers=workers)

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["variant", "dice_mean", "dice_std", "auprc_mean", "auprc_std"])
    for variant, report in reports.items():
        dm, dsd, am, asd = report.mean_std()
        w.writerow([variant, f"{dm:.6f}", f"{dsd:.6f}", f"{am:.6f}", f"{asd:.6f}"])
    (out / "ablate.csv").write_text(buf.getvalue(), encoding="utf-8")
    return reports
