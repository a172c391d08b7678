"""End-to-end acceptance gate.

Each test covers one headline guarantee and prints a single PASS/FAIL line,
so the suite doubles as a checklist when run with ``pytest -v``.
"""

import time

import numpy as np
import pytest

from anomap import config, denoise, evalkit, iqa, phantom, pipeline
from anomap.airprep import DatasetStats, verify_air_monotone
from anomap.denoise import (KernelMixtureModel, OracleDenoiser, TrainConfig,
                            blur_denoiser, train)
from anomap.diffusion import (PatchSpec, derive_seed, forward_noise,
                              linear_schedule, make_field,
                              reconstruct_patched)
from anomap.evalkit import EvalConfig
from anomap.imagecore import AnomalyMap, BinaryMask, Image2D, window_stats
from anomap.iqa import (FusionParams, SsimParams, fusion_loss,
                        fusion_loss_grad, ssim_map)


def _report(name: str, ok: bool) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_01_ssim_oracle_equivalence():
    start = time.monotonic()
    p = SsimParams()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(50):
        x = Image2D(rng.uniform(0, 1, (16, 16)))
        y = Image2D(rng.uniform(0, 1, (16, 16)))
        smap = ssim_map(x, y, p)
        for row in range(16):
            for col in range(16):
                ws = window_stats(x, y, row, col, p.W)
                num = (2 * ws.mean_x * ws.mean_y + p.C1) * (2 * ws.cov_xy + p.C2)
                den = ((ws.mean_x ** 2 + ws.mean_y ** 2 + p.C1)
                       * (ws.var_x + ws.var_y + p.C2))
                worst = max(worst, abs(smap[row, col] - num / den))
    elapsed = time.monotonic() - start
    _report("ssim oracle equivalence",
            worst < 1e-10 and elapsed < 5.0)


def test_02_ssim_closed_forms():
    p = SsimParams()
    zero = Image2D(np.zeros((8, 8)))
    one = Image2D(np.ones((8, 8)))
    expect = p.C1 * p.C2 / ((1.0 + p.C1) * p.C2)
    const_ok = bool(np.all(np.abs(ssim_map(zero, one, p) - expect) < 1e-12))
    identity_ok = True
    for seed in range(5):
        x = Image2D(np.random.default_rng(seed).uniform(0, 1, (16, 16)))
        identity_ok = identity_ok and bool(np.all(ssim_map(x, x, p) == 1.0))
    _report("ssim closed forms", const_ok and identity_ok)


def test_03_fusion_gradient_matches_finite_differences():
    start = time.monotonic()
    p, f = SsimParams(), FusionParams()
    rng = np.random.default_rng(1)
    h = 1e-4
    ok = True
    for _ in range(5):
        x = Image2D(rng.uniform(0, 1, (8, 8)))
        y0 = rng.uniform(0, 1, (8, 8))
        g = fusion_loss_grad(x, Image2D(y0), p, f)
        pix = rng.integers(0, 8, size=(20, 2))
        for i, j in pix:
            yp = y0.copy(); yp[i, j] += h
            ym = y0.copy(); ym[i, j] -= h
            fd = (fusion_loss(x, Image2D(yp), p, f)
                  - fusion_loss(x, Image2D(ym), p, f)) / (2 * h)
            rel = abs(g[i, j] - fd) / max(abs(fd), 1e-8)
            ok = ok and rel < 1e-4
    elapsed = time.monotonic() - start
    _report("fusion gradient check", ok and elapsed < 30.0)


def test_04_intensity_flip_never_decreases_air():
    start = time.monotonic()
    rng = np.random.default_rng(2)
    ok = True
    for _ in range(10000):
        mu_n = rng.uniform(0.5 + 1e-6, 1.0 - 2e-6)
        mu_a = rng.uniform(mu_n + 1e-6, 1.0 - 1e-6)
        rep = verify_air_monotone(DatasetStats(mu_n, mu_a, 1, 1))
        ok = ok and rep.holds and rep.air_after > rep.air_before
    # dark-profile branch: the transform is identity, ratio exactly unchanged
    for _ in range(100):
        mu_n = rng.uniform(0.01, 0.49)
        mu_a = rng.uniform(mu_n + 1e-6, 0.5)
        rep = verify_air_monotone(DatasetStats(mu_n, mu_a, 1, 1))
        ok = ok and rep.holds and rep.air_after == rep.air_before
    elapsed = time.monotonic() - start
    _report("intensity-flip ratio theorem", ok and elapsed < 1.0)


def test_05_forward_corruption_statistics():
    # single-step schedule with beta = 0.36 puts the signal factor at 0.64
    sched = linear_schedule(1, 0.36, 0.36)
    assert sched.alpha_bar(1) == pytest.approx(0.64)
    x0_val = 0.7
    x0 = Image2D(np.full((32, 32), x0_val))
    n = 10000
    samples = np.empty(n)
    for i in range(n):
        noise = make_field("gaussian", derive_seed(3, i), 32, 32)
        samples[i] = forward_noise(x0, 1, noise, sched).pixels[16, 16]
    target_mean = 0.8 * x0_val
    mean_tol = 3.0 * 0.6 / np.sqrt(n)
    mean_ok = abs(samples.mean() - target_mean) < mean_tol
    var_ok = abs(samples.var() - 0.36) < 0.05 * 0.36
    _report("forward corruption statistics", mean_ok and var_ok)


def test_06_metric_oracles():
    rng = np.random.default_rng(4)
    ok = True
    # dice against an explicit set-intersection computation
    for _ in range(20):
        a = rng.uniform(size=(6, 6)) > 0.5
        b = rng.uniform(size=(6, 6)) > 0.5
        denom = int(a.sum() + b.sum())
        expect = 1.0 if denom == 0 else 2.0 * int((a & b).sum()) / denom
        ok = ok and evalkit.dice(BinaryMask(a), BinaryMask(b)) == expect
    # threshold search against brute force on tie-heavy instances
    levels = np.linspace(0.0, 1.0, 6)
    for _ in range(20):
        maps = [AnomalyMap(rng.choice(levels, size=(5, 5))) for _ in range(2)]
        gts = [BinaryMask(rng.uniform(size=(5, 5)) > 0.6) for _ in range(2)]
        regions = [BinaryMask(np.ones((5, 5), dtype=bool)) for _ in range(2)]
        grid = np.linspace(0.0, 1.0, 17)
        best_brute, thr_brute = -1.0, 0.0
        for thr in grid:
            tp = pred = pos = 0
            for amap, gt in zip(maps, gts):
                p = amap.scores >= thr
                tp += int((p & gt.bits).sum())
                pred += int(p.sum())
                pos += gt.count()
            d = 1.0 if pred + pos == 0 else 2.0 * tp / (pred + pos)
            if d >= best_brute:
                best_brute, thr_brute = d, thr
        ok = ok and evalkit.greedy_threshold(maps, gts, regions, grid) == thr_brute
    # three-point precision-recall area by hand: 1/2 * 1 + 1/2 * 2/3 = 5/6
    area = evalkit.auprc([AnomalyMap(np.array([[0.9, 0.8, 0.7]]))],
                         [BinaryMask(np.array([[True, False, True]]))],
                         [BinaryMask(np.ones((1, 3), dtype=bool))])
    ok = ok and abs(area - 5.0 / 6.0) < 1e-12
    _report("metric oracles", ok)


def test_07_patch_identity():
    sample = phantom.gen_abnormal(5, 64, phantom.PROFILES["flair_like"])
    model = OracleDenoiser(sample.image)
    sched = linear_schedule(1000, 1e-4, 0.02)
    rng = np.random.default_rng(6)
    ok = True
    for _ in range(10):
        ph = int(rng.integers(8, 65))
        pw = int(rng.integers(8, 65))
        spec = PatchSpec(ph, pw, int(rng.integers(max(1, ph // 2), ph + 1)),
                         int(rng.integers(max(1, pw // 2), pw + 1)))
        out = reconstruct_patched(model, sample.image, 750, sched, spec, 7)
        ok = ok and bool(np.array_equal(out.pixels, sample.image.pixels))
    _report("patch identity", ok)


def test_08_ssim_map_beats_intensity_map():
    # subtle-lesion phantoms reconstructed by a mild blur at a low corruption
    # step: pure-SSIM scoring finds a better pooled-Dice operating point than
    # pure-intensity scoring from the same reconstruction
    prof = phantom.profile_with_gap("flair_like", 0.05)
    sched = linear_schedule(1000, 1e-4, 0.02)
    model = blur_denoiser(1.0)
    p = SsimParams(W=11)
    cfg = EvalConfig()
    wins = 0
    for seed in range(5):
        ds = phantom.gen_dataset(seed, 64, prof, 1, 1, 8)
        by_alpha = {}
        gts = [s.anomaly_gt for s in ds.test_abnormal]
        regions = [evalkit.eval_region(s, cfg) for s in ds.test_abnormal]
        recons = [reconstruct_patched(model, s.image, 50, sched,
                                      PatchSpec.default_for(64, 64),
                                      evalkit.sample_seed(seed, s.id))
                  for s in ds.test_abnormal]
        for alpha in (1.0, 0.0):
            maps = [iqa.fusion_anomaly_map(s.image, r, p, FusionParams(alpha))
                    for s, r in zip(ds.test_abnormal, recons)]
            grid = evalkit.default_grid(maps)
            curve = evalkit.pooled_dice_curve(maps, gts, regions, grid)
            by_alpha[alpha] = float(curve.max())
        wins += by_alpha[1.0] > by_alpha[0.0]
    _report(f"ssim map beats intensity map ({wins}/5 seeds)", wins >= 4)


def test_09_variant_ablation_ordering(tmp_path):
    start = time.monotonic()
    cfg = config.RunConfig(n_train=2, n_val=8, n_test=10, folds=5, seed=0,
                           profile="flair_like", lesion_gap=0.1,
                           blur_sigma=4.0, t_test=50, ssim_window=11,
                           out=str(tmp_path / "ablate")).validate()
    reports = pipeline.ablate(cfg)
    dices = {v: [o.result.dice for o in r.outcomes]
             for v, r in reports.items()}
    n_l1 = sum(l <= f for l, f in zip(dices["l1"], dices["fq"]))
    n_air = sum(f <= a for f, a in zip(dices["fq"], dices["fq_air"]))
    elapsed = time.monotonic() - start
    _report(f"ablation ordering (l1<=fq {n_l1}/5, fq<=fq_air {n_air}/5)",
            n_l1 >= 4 and n_air >= 4 and elapsed < 3600.0)


def _heldout_loss(model, imgs, base_seed, sched, p, f):
    rng = np.random.default_rng(base_seed)
    total = 0.0
    for i, x0 in enumerate(imgs):
        t = int(rng.integers(1, sched.T + 1))
        noise = make_field("simplex", derive_seed(base_seed, 500 + i),
                           x0.width, x0.height)
        y = model.denoise(forward_noise(x0, t, noise, sched), t)
        total += fusion_loss(x0, y, p, f, BinaryMask(x0.fg_bits()))
    return total / len(imgs)


def test_10_training_sanity():
    sched = linear_schedule(1000, 1e-4, 0.02)
    p, f = SsimParams(), FusionParams()
    prof = phantom.PROFILES["flair_like"]
    improved = windows_ok = 0
    for seed in range(5):
        ds = phantom.gen_dataset(seed, 64, prof, 8, 1, 1)
        train_imgs = [s.image for s in ds.train_healthy[:4]]
        held_imgs = [s.image for s in ds.train_healthy[4:]]
        res = train(KernelMixtureModel(T=1000), train_imgs, sched,
                    TrainConfig(epochs=60, seed=seed), p, f)
        untrained = KernelMixtureModel(T=1000)
        lu = _heldout_loss(untrained, held_imgs, 1000 + seed, sched, p, f)
        lt = _heldout_loss(res.model, held_imgs, 1000 + seed, sched, p, f)
        improved += lt < lu
        w = np.array(res.loss_trace).reshape(3, 20).mean(axis=1)
        windows_ok += all(w[k + 1] <= w[k] * 1.05 for k in range(2))
    _report(f"training sanity (improved {improved}/5, windows {windows_ok}/5)",
            improved == 5 and windows_ok == 5)


def test_11_run_determinism(tmp_path):
    base = config.RunConfig(size=32, n_train=4, n_val=2, n_test=2, epochs=5,
                            folds=2, seed=3)
    digests = []
    for name, workers in (("a", 1), ("b", 1), ("c", 2)):
        from dataclasses import replace
        cfg = replace(base, out=str(tmp_path / name)).validate()
        pipeline.run(cfg, workers=workers)
        digests.append((tmp_path / name / "report.csv").read_bytes())
    _report("run determinism across repeats and workers",
            digests[0] == digests[1] == digests[2])
