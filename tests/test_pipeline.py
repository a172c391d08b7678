"""The shared fold loop: ``ablate`` equals four separate ``run`` calls, with
or without pool workers; each fold's dataset and regions are computed once,
each group of variants that share a model and images builds its model once,
and the fold makes one pass over its samples in which each sample's patch
noise is drawn once and the sample is reconstructed once per group, in the
same task that maps it for every member.  A call scores every fold in one
process pool, which takes each fold's samples in chunks."""

import os
import pickle
from dataclasses import replace

import numpy as np
import pytest

from anomap import (airprep, cli, config, datasetio, denoise, diffusion,
                    evalkit, fileio, imagecore, phantom, pipeline)
from anomap.config import VARIANTS

REPORTS = ("report.csv", "per_sample.csv", "config_echo.cfg")

BLUR = config.RunConfig(size=32, n_train=1, n_val=3, n_test=3, folds=2,
                        seed=4, blur_sigma=2.0, t_test=50, ssim_window=7)
TRAINED = config.RunConfig(size=32, n_train=3, n_val=2, n_test=2, folds=2,
                           seed=1, epochs=2, batch_size=2)


def _read(d):
    return {name: (d / name).read_bytes() for name in REPORTS}


def _counting(monkeypatch, owner, name):
    calls = []
    orig = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _assert_ablate_equals_runs(cfg, tmp_path, workers):
    out = tmp_path / "ablate"
    reports = pipeline.ablate(replace(cfg, out=str(out)).validate(),
                              workers=workers)
    assert list(reports) == list(VARIANTS)
    assert all(r.complete for r in reports.values())
    written = {v: _read(out / v) for v in VARIANTS}
    # a standalone run of each variant, into the same directory so that the
    # echoed config is the same text
    for v in VARIANTS:
        pipeline.run(replace(cfg, variant=v, out=str(out / v)).validate())
        assert _read(out / v) == written[v], v
    return reports


@pytest.mark.parametrize("workers", [1, 2])
def test_ablate_equals_separate_runs_blur_flip(tmp_path, workers):
    reports = _assert_ablate_equals_runs(BLUR, tmp_path, workers)
    assert all(o.flipped for o in reports["fq_air"].outcomes)


@pytest.mark.parametrize("workers", [1, 2])
def test_ablate_equals_separate_runs_blur_no_flip(tmp_path, workers):
    cfg = replace(BLUR, profile="t2_like")
    reports = _assert_ablate_equals_runs(cfg, tmp_path, workers)
    # unflipped, fq_air shares fq's reconstructions and maps
    assert not any(o.flipped for o in reports["fq_air"].outcomes)
    assert ([o.result for o in reports["fq_air"].outcomes]
            == [o.result for o in reports["fq"].outcomes])


@pytest.mark.parametrize("profile", ["flair_like", "t2_like"])
def test_ablate_equals_separate_runs_trained(tmp_path, profile):
    _assert_ablate_equals_runs(replace(TRAINED, profile=profile), tmp_path, 1)


@pytest.mark.parametrize("cfg, profile, groups", [
    (BLUR, "flair_like", 2),     # {l1, ssim, fq} and the flipped fq_air
    (BLUR, "t2_like", 1),        # all four: the blur model is shared
    (TRAINED, "flair_like", 4),  # one training per alpha, fq_air flipped
    (TRAINED, "t2_like", 3),     # fq and the unflipped fq_air share alpha
])
def test_ablate_trains_and_reconstructs_once_per_group(tmp_path, monkeypatch,
                                                       cfg, profile, groups):
    cfg = replace(cfg, profile=profile, out=str(tmp_path / "a")).validate()
    trains = _counting(monkeypatch, denoise, "train")
    recons = _counting(monkeypatch, evalkit, "reconstruct")
    gens = _counting(monkeypatch, pipeline, "load_fold_dataset")
    erosions = _counting(monkeypatch, imagecore, "erode")
    pipeline.ablate(cfg)
    scored = cfg.n_val + cfg.n_test
    assert len(trains) == (0 if cfg.blur_sigma else groups * cfg.folds)
    assert len(recons) == groups * cfg.folds * scored
    assert len(gens) == cfg.folds
    assert len(erosions) == cfg.folds * scored


@pytest.mark.parametrize("cfg", [BLUR, TRAINED])  # 2 and 4 groups
def test_patch_noise_is_drawn_once_per_sample_and_fold(monkeypatch, tmp_path,
                                                       cfg):
    cfg = replace(cfg, profile="flair_like", out=str(tmp_path / "a")).validate()
    draws = _counting(monkeypatch, diffusion, "make_fields")
    pipeline.ablate(cfg)
    # training draws whole-image fields; scoring draws patch-sized ones
    patch = cfg.size // 2
    placed = [a for a in draws if a[2:] == (patch, patch)]
    assert len(placed) == cfg.folds * (cfg.n_val + cfg.n_test)
    assert len(draws) - len(placed) == (
        0 if cfg.blur_sigma else 4 * cfg.folds * cfg.n_train)


def _recording(monkeypatch, owner, name):
    """Each call's arguments and result."""
    calls = []
    orig = getattr(owner, name)

    def recorded(*args):
        calls.append((args, orig(*args)))
        return calls[-1][1]

    monkeypatch.setattr(owner, name, recorded)
    return calls


@pytest.mark.parametrize("cfg, call, groups", [
    (BLUR, pipeline.ablate, 2),  # {l1, ssim, fq} and the flipped fq_air
    (TRAINED, pipeline.run, 1),  # one trained member
], ids=["blur_ablate", "trained_run"])
def test_scores_task_returns_one_region_score_array_per_member(
        tmp_path, monkeypatch, cfg, call, groups):
    cfg = replace(cfg, profile="flair_like", out=str(tmp_path / "a")).validate()
    plans = _recording(monkeypatch, pipeline, "prepare")
    tasks = _recording(monkeypatch, pipeline, "_scores")
    call(cfg)
    assert len(plans) == cfg.folds
    n = cfg.n_val + cfg.n_test
    assert len(tasks) == cfg.folds * n
    for f, (_, plan) in enumerate(plans):
        assert len(plan.groups) == groups
        order = [pipeline.eval_config(plan.cfgs[i])
                 for g in plan.groups for i in g.members]
        for s, ((args,), scores) in zip(plan.scored, tasks[f * n:(f + 1) * n]):
            model_groups, sched, seed, region = args
            assert region is plan.regions[s.id]
            assert isinstance(scores, list) and len(scores) == len(order)
            # (group, member) order, each the one-sample reference chain's
            # scores inside the region
            expect = [evalkit.score_sample(model, sample, e, sched, seed)
                      .scores[region.bits]
                      for model, sample, ecfgs in model_groups for e in ecfgs]
            assert [e for _, _, ecfgs in model_groups for e in ecfgs] == order
            for got, want in zip(scores, expect):
                assert got.dtype == np.float64 and got.ndim == 1
                assert got.size == plan.regions[s.id].count()
                assert got.tobytes() == want.tobytes()


def test_flipped_group_error_fails_every_variant_of_its_fold(monkeypatch,
                                                            tmp_path):
    cfg = replace(BLUR, out=str(tmp_path / "a")).validate()
    expect = pipeline.ablate(cfg)

    class Flipped(phantom.LabeledSample):
        pass

    real_prepare, real_recon = pipeline.prepare, evalkit.reconstruct

    def prepare(*args):
        # retag the flipped group's scored samples
        plan = real_prepare(*args)
        return replace(plan, groups=[
            g._replace(scored=[Flipped(s.id, s.image, s.anomaly_gt)
                               for s in g.scored]) if g.flipped else g
            for g in plan.groups])

    raised = []

    def reconstruct(model, sample, *args):
        # the first reconstruction of a flipped sample, in fold 0, fails
        if isinstance(sample, Flipped) and not raised:
            raised.append(sample.id)
            raise RuntimeError("flipped reconstruction failed")
        return real_recon(model, sample, *args)

    monkeypatch.setattr(pipeline, "prepare", prepare)
    monkeypatch.setattr(evalkit, "reconstruct", reconstruct)
    reports = pipeline.ablate(cfg)
    assert raised
    for v in VARIANTS:
        first, second = reports[v].outcomes
        assert first.result is None
        assert first.error == "flipped reconstruction failed"
        assert second.error is None
        assert second.result == expect[v].outcomes[1].result


def test_training_error_fails_only_its_group(monkeypatch, tmp_path):
    cfg = replace(TRAINED, out=str(tmp_path / "a")).validate()
    expect = pipeline.ablate(cfg)
    real = denoise.train

    def train(m, data, sched, tcfg, p, f):
        if f.alpha == 0.0:  # only l1 trains at alpha 0
            raise RuntimeError("l1 training failed")
        return real(m, data, sched, tcfg, p, f)

    monkeypatch.setattr(denoise, "train", train)
    reports = pipeline.ablate(cfg)
    assert ([o.error for o in reports["l1"].outcomes]
            == ["l1 training failed"] * cfg.folds)
    for v in VARIANTS[1:]:
        assert ([o.result for o in reports[v].outcomes]
                == [o.result for o in expect[v].outcomes]), v


def test_evaluation_error_fails_only_its_member(monkeypatch, tmp_path):
    # t2_like: one blur group whose four members share every map
    cfg = replace(BLUR, profile="t2_like", out=str(tmp_path / "a")).validate()
    expect = pipeline.ablate(cfg)
    real = evalkit.evaluate_fold
    calls = []

    def evaluate_fold(*args):
        calls.append(args)
        if len(calls) == 1:
            raise RuntimeError("evaluation failed")
        return real(*args)

    monkeypatch.setattr(evalkit, "evaluate_fold", evaluate_fold)
    reports = pipeline.ablate(cfg)
    for v in VARIANTS:
        for fold, (got, want) in enumerate(zip(reports[v].outcomes,
                                               expect[v].outcomes)):
            if (v, fold) == ("l1", 0):
                assert got.result is None and got.error == "evaluation failed"
            else:
                assert got.error is None and got.result == want.result


def test_train_group_gives_the_same_bits_on_unpickled_arguments():
    # a pool worker would train from pickled copies of a group's arguments
    cfgs = [replace(TRAINED, variant=v).validate() for v in VARIANTS]
    plan = pipeline.prepare(cfgs, pipeline.load_fold_dataset(TRAINED, 0))
    seed = diffusion.derive_seed(TRAINED.seed, 100)
    assert len(plan.groups) == 4
    for g in plan.groups:
        args = (cfgs[g.members[0]], [s.image for s in g.train], seed,
                plan.sched)
        model, trace = pipeline.train_group(*args)
        model2, trace2 = pipeline.train_group(*pickle.loads(pickle.dumps(args)))
        assert model.weights.tobytes() == model2.weights.tobytes()
        assert model.biases.tobytes() == model2.biases.tobytes()
        assert np.array(trace).tobytes() == np.array(trace2).tobytes()
        assert len(trace) == TRAINED.epochs


def test_disk_dataset_is_read_once_per_run(tmp_path, monkeypatch):
    cfg = replace(BLUR, folds=3).validate()
    datasetio.save_dataset(pipeline.load_fold_dataset(cfg, 0), tmp_path / "ds")
    disk = replace(cfg, dataset_kind="disk", dataset_path=str(tmp_path / "ds"),
                   out=str(tmp_path / "out")).validate()
    loads = _counting(monkeypatch, datasetio, "load_dataset")
    report = pipeline.run(disk)
    assert len(loads) == 1
    assert report.complete and len(report.outcomes) == 3


@pytest.mark.parametrize("variant, stats", [("fq", 0), ("fq_air", 1)])
def test_disk_dataset_is_prepared_once_per_run(tmp_path, monkeypatch,
                                               variant, stats):
    # regions and statistics hold for every fold; only an AIR call needs
    # the statistics
    cfg = replace(BLUR, folds=3).validate()
    datasetio.save_dataset(pipeline.load_fold_dataset(cfg, 0), tmp_path / "ds")
    disk = replace(cfg, dataset_kind="disk", dataset_path=str(tmp_path / "ds"),
                   variant=variant, out=str(tmp_path / "out")).validate()
    erosions = _counting(monkeypatch, imagecore, "erode")
    computed = _counting(monkeypatch, airprep, "dataset_stats")
    report = pipeline.run(disk)
    assert len(erosions) == cfg.n_val + cfg.n_test
    assert len(computed) == stats
    assert report.complete and len(report.outcomes) == 3


@pytest.mark.parametrize("cfg, entry", [(BLUR, "run"), (TRAINED, "ablate")],
                         ids=["blur_run", "trained_ablate"])
def test_disk_flip_is_applied_once_per_image_per_call(tmp_path, monkeypatch,
                                                      cfg, entry):
    # the flip depends on the dataset, not the fold: each image it reads
    # (scored, then training unless blurring) is flipped once per call
    cfg = replace(cfg, folds=3).validate()
    datasetio.save_dataset(pipeline.load_fold_dataset(cfg, 0), tmp_path / "ds")
    disk = replace(cfg, dataset_kind="disk", dataset_path=str(tmp_path / "ds"),
                   variant="fq_air", out=str(tmp_path / "out")).validate()
    applied = _counting(monkeypatch, airprep, "apply")
    reports = getattr(pipeline, entry)(disk)
    if entry == "run":
        reports = {"fq_air": reports}
    assert all(o.flipped for o in reports["fq_air"].outcomes)
    images = cfg.n_val + cfg.n_test + (0 if cfg.blur_sigma else cfg.n_train)
    assert len(applied) == images
    assert all(len(r.outcomes) == 3 and r.complete for r in reports.values())


def test_disk_patches_follow_the_image_not_the_config_size(tmp_path):
    # unset patch and stride values come from the 64 px rasters; the
    # config's size (here 32) does not describe a disk dataset
    cfg = replace(BLUR, size=64, folds=1).validate()
    datasetio.save_dataset(pipeline.load_fold_dataset(cfg, 0), tmp_path / "ds")
    written = []
    for size in (32, 64):
        out = tmp_path / f"size{size}"
        pipeline.run(replace(cfg, size=size, dataset_kind="disk",
                             dataset_path=str(tmp_path / "ds"),
                             out=str(out)).validate())
        written.append({name: (out / name).read_bytes()
                        for name in ("report.csv", "per_sample.csv")})
    assert written[0] == written[1]


def _disk_config(tmp_path, **overrides):
    """A 64 px dataset saved to disk and a config that reads it."""
    cfg = replace(BLUR, size=64, folds=1).validate()
    datasetio.save_dataset(pipeline.load_fold_dataset(cfg, 0), tmp_path / "ds")
    return replace(cfg, dataset_kind="disk", dataset_path=str(tmp_path / "ds"),
                   out=str(tmp_path / "out"), **overrides).validate()


def test_disk_patch_is_bounded_by_the_image_not_the_config_size(tmp_path):
    # 40 px exceeds size = 32 but fits the 64 px rasters
    report = pipeline.run(_disk_config(tmp_path, size=32, patch_h=40))
    assert report.complete


def test_disk_patch_larger_than_an_image_fails_before_any_fold(tmp_path,
                                                              monkeypatch):
    # size = 128 admits patch_h = 100, but the rasters are 64 px high
    cfg = _disk_config(tmp_path, size=128, patch_h=100)
    folds = _counting(monkeypatch, pipeline, "run_fold")
    with pytest.raises(ValueError) as exc:
        pipeline.ablate(cfg)
    message = str(exc.value)
    assert str(tmp_path / "ds") in message
    assert "val-000" in message and "height" in message
    assert "patch_h = 100" in message
    assert not folds and not (tmp_path / "out").exists()


def test_patch_larger_than_the_image_gives_one_rule_text(tmp_path):
    # the rule lives in diffusion.placements; parse and run only add context
    rule = "patch_h = 65 exceeds the height, 64 px"
    with pytest.raises(ValueError, match=f"^{rule}$"):
        diffusion.placements(diffusion.PatchSpec(65, 32, 16, 16), 64, 64)
    with pytest.raises(config.ConfigError) as exc:
        config.parse("[dataset]\nsize = 64\n[diffusion]\npatch_h = 65\n")
    assert str(exc.value) == f"<config>: {rule}"
    with pytest.raises(ValueError) as exc:
        pipeline.run(_disk_config(tmp_path, size=128, patch_h=65))
    assert str(exc.value) == f"{tmp_path / 'ds'}: sample val-000: {rule}"


def test_disk_blur_wider_than_an_image_fails_before_any_fold(tmp_path,
                                                             monkeypatch):
    # size = 128 admits blur_sigma = 30, but the rasters are 64 px a side
    cfg = _disk_config(tmp_path, size=128, blur_sigma=30.0)
    folds = _counting(monkeypatch, pipeline, "run_fold")
    with pytest.raises(ValueError) as exc:
        pipeline.run(cfg)
    assert str(exc.value) == (
        f"{tmp_path / 'ds'}: sample val-000: blur_sigma = 30.0 gives a kernel "
        "radius of 90 px, above the larger image side, 64 px")
    assert not folds and not (tmp_path / "out").exists()


def test_repeated_manifest_id_fails_before_any_fold(tmp_path, monkeypatch):
    cfg = _disk_config(tmp_path)
    manifest = tmp_path / "ds" / "dataset.tsv"
    with open(manifest, "a", encoding="utf-8") as f:
        f.write("val-000\ttest\tflair_like\n")
    folds = _counting(monkeypatch, pipeline, "run_fold")
    with pytest.raises(ValueError, match="sample id 'val-000' repeats line"):
        pipeline.run(cfg)
    assert not folds and not (tmp_path / "out").exists()


def test_disk_patch_grid_with_gaps_fails_before_any_fold(tmp_path,
                                                        monkeypatch):
    # rows [0, 20, 40, 48] of a 64 px raster leave rows 16-19 and 36-39
    cfg = _disk_config(tmp_path, patch_h=16, stride_h=20)
    folds = _counting(monkeypatch, pipeline, "run_fold")
    with pytest.raises(ValueError) as exc:
        pipeline.ablate(cfg)
    message = str(exc.value)
    assert str(tmp_path / "ds") in message and "val-000" in message
    for part in ("height", "patch_h = 16", "stride_h = 20", "64 px"):
        assert part in message
    assert not folds and not (tmp_path / "out").exists()


def _disk_training_split(tmp_path, pixels, fg_bits):
    """A trained config reading a 3-image training split whose second image
    (``train-001``) is replaced by ``pixels`` under the mask ``fg_bits``."""
    cfg = replace(TRAINED, size=32, folds=2).validate()
    root = tmp_path / "ds"
    datasetio.save_dataset(pipeline.load_fold_dataset(cfg, 0), root)
    fileio.write_f32r(root / "train" / "train-001.f32r", pixels)
    fileio.write_pgm_mask(root / "train" / "train-001.fg.pgm",
                          imagecore.BinaryMask(fg_bits))
    fileio.write_pgm_mask(root / "train" / "train-001.gt.pgm",
                          imagecore.BinaryMask(np.zeros_like(fg_bits)))
    return replace(cfg, dataset_kind="disk", dataset_path=str(root),
                   out=str(tmp_path / "out")).validate()


@pytest.mark.parametrize("shape, fg, problem", [
    ((24, 32), True, "training image 1 is 32x24 px, training image 0 is "
                     "32x32 px"),
    ((32, 32), False, "training image 1 has an empty foreground"),
], ids=["mixed_size", "empty_foreground"])
def test_unusable_disk_training_split_fails_before_any_fold(
        tmp_path, monkeypatch, shape, fg, problem):
    cfg = _disk_training_split(tmp_path, np.zeros(shape),
                               np.full(shape, fg))
    folds = _counting(monkeypatch, pipeline, "run_fold")
    for entry in (pipeline.run, pipeline.ablate):
        with pytest.raises(ValueError) as exc:
            entry(cfg)
        assert str(exc.value) == (f"{tmp_path / 'ds'}: sample train-001: "
                                  f"{problem}")
    assert not folds and not (tmp_path / "out").exists()


def test_empty_disk_training_split_fails_before_any_fold(tmp_path,
                                                       monkeypatch):
    cfg = _disk_training_split(tmp_path, np.zeros((32, 32)),
                               np.ones((32, 32), bool))
    manifest = tmp_path / "ds" / "dataset.tsv"
    rows = manifest.read_text(encoding="utf-8").splitlines(keepends=True)
    manifest.write_text("".join(r for r in rows if r.split()[1] != "train"),
                        encoding="utf-8")
    folds = _counting(monkeypatch, pipeline, "run_fold")
    with pytest.raises(ValueError, match="the training split is empty$"):
        pipeline.run(cfg)
    assert not folds


def test_blur_baseline_ignores_the_disk_training_split(tmp_path):
    cfg = _disk_training_split(tmp_path, np.zeros((24, 32)),
                               np.zeros((24, 32), bool))
    assert pipeline.run(replace(cfg, blur_sigma=2.0).validate()).complete
    # an unnormalized training image would fail the flip of fq_air's group
    cfg = _disk_training_split(tmp_path, np.full((32, 32), 2.0),
                               np.ones((32, 32), bool))
    cfg = replace(cfg, blur_sigma=2.0, variant="fq_air").validate()
    report = pipeline.run(cfg)
    assert report.complete and all(o.flipped for o in report.outcomes)
    assert all(r.complete for r in pipeline.ablate(cfg).values())


@pytest.mark.parametrize("split, name", [("val", "validation"),
                                         ("test", "test")])
def test_empty_disk_scored_split_fails_before_any_fold(tmp_path, monkeypatch,
                                                       split, name):
    cfg = _disk_config(tmp_path)
    manifest = tmp_path / "ds" / "dataset.tsv"
    rows = manifest.read_text(encoding="utf-8").splitlines(keepends=True)
    manifest.write_text("".join(r for r in rows if r.split()[1] != split),
                        encoding="utf-8")
    folds = _counting(monkeypatch, pipeline, "run_fold")
    for entry in (pipeline.run, pipeline.ablate):
        with pytest.raises(ValueError) as exc:
            entry(cfg)
        assert str(exc.value) == f"{tmp_path / 'ds'}: the {name} split is empty"
    assert not folds and not (tmp_path / "out").exists()


def test_unnormalized_disk_image_fails_the_air_flip_before_any_fold(
        tmp_path, monkeypatch):
    cfg = _disk_training_split(tmp_path, np.full((32, 32), 2.0),
                               np.ones((32, 32), bool))
    folds = _counting(monkeypatch, pipeline, "run_fold")
    for entry, c in ((pipeline.run, replace(cfg, variant="fq_air")),
                     (pipeline.ablate, cfg)):
        with pytest.raises(ValueError) as exc:
            entry(c.validate())
        assert str(exc.value) == (f"{tmp_path / 'ds'}: sample train-001: "
                                  "apply requires normalized input")
    assert not folds and not (tmp_path / "out").exists()
    # without an AIR variant nothing flips, and the image trains as it is
    assert pipeline.run(cfg).complete


def test_unnormalized_scored_disk_image_fails_the_blur_air_flip(tmp_path):
    cfg = replace(_disk_config(tmp_path), variant="fq_air").validate()
    path = tmp_path / "ds" / "test" / "test-001.f32r"
    pixels = fileio.read_f32r(path)
    pixels[pixels > 0.0] = 2.0
    fileio.write_f32r(path, pixels)
    with pytest.raises(ValueError, match=": sample test-001: apply requires "
                                         "normalized input$"):
        pipeline.run(cfg)
    assert pipeline.run(replace(cfg, variant="fq").validate()).complete


def _lesion_free_validation(tmp_path, **overrides):
    """:func:`_disk_config` with every validation lesion mask cleared."""
    cfg = _disk_config(tmp_path, **overrides)
    for path in (tmp_path / "ds" / "val").glob("*.gt.pgm"):
        fileio.write_pgm_mask(path, imagecore.BinaryMask(np.zeros((64, 64), bool)))
    return cfg


def test_air_call_on_disk_validation_without_lesions_fails_before_any_fold(
        tmp_path, monkeypatch):
    cfg = _lesion_free_validation(tmp_path, variant="fq_air")
    folds = _counting(monkeypatch, pipeline, "run_fold")
    with pytest.raises(ValueError) as exc:
        pipeline.run(cfg)
    assert str(exc.value) == (f"{tmp_path / 'ds'}: "
                              "stats require unhealthy validation data")
    assert not folds


def test_plain_call_on_disk_validation_without_lesions_runs_every_fold(
        tmp_path):
    # no AIR variant, so no statistics to compute
    report = pipeline.run(_lesion_free_validation(tmp_path, folds=3))
    assert report.complete and len(report.outcomes) == 3


def test_stride_beyond_the_patch_that_still_covers_runs(tmp_path):
    # 32 px rows: starts [0, 16] with patch 16 at stride 20
    cfg = replace(BLUR, folds=1, patch_h=16, stride_h=20,
                  out=str(tmp_path / "out")).validate()
    assert pipeline.run(cfg).complete


def test_erosion_that_empties_every_region_names_a_sample(tmp_path):
    cfg = replace(BLUR, folds=1, erosion_iters=40,
                  out=str(tmp_path / "out")).validate()
    for report in pipeline.ablate(cfg).values():
        (outcome,) = report.outcomes
        assert outcome.result is None
        assert "erosion_iters = 40" in outcome.error
        assert "test-000" in outcome.error


def test_disk_erosion_that_empties_every_region_fails_before_any_fold(
        tmp_path, monkeypatch):
    cfg = _disk_config(tmp_path, erosion_iters=40)
    folds = _counting(monkeypatch, pipeline, "run_fold")
    for entry in (pipeline.run, pipeline.ablate):
        with pytest.raises(ValueError) as exc:
            entry(cfg)
        assert str(exc.value) == (
            f"{tmp_path / 'ds'}: erosion_iters = 40 empties the scored region "
            "of every test sample, first test-000")
    assert not folds and not (tmp_path / "out").exists()


def test_disk_test_split_without_a_lesion_fails_before_any_fold(
        tmp_path, monkeypatch):
    cfg = _disk_config(tmp_path)
    for path in (tmp_path / "ds" / "test").glob("*.gt.pgm"):
        fileio.write_pgm_mask(path, imagecore.BinaryMask(np.zeros((64, 64), bool)))
    folds = _counting(monkeypatch, pipeline, "run_fold")
    for entry in (pipeline.run, pipeline.ablate):
        with pytest.raises(ValueError) as exc:
            entry(cfg)
        assert str(exc.value) == (f"{tmp_path / 'ds'}: no test sample marks "
                                  "a lesion pixel inside its scored region")
    assert not folds and not (tmp_path / "out").exists()


def test_lesions_only_outside_the_scored_regions_are_rejected(tmp_path):
    # each test lesion keeps its pixels, but only where the eroded region
    # no longer reaches
    cfg = replace(BLUR, folds=1, out=str(tmp_path / "out")).validate()
    ds = pipeline.load_fold_dataset(cfg, 0)
    regions = [evalkit.eval_region(s, pipeline.eval_config(cfg))
               for s in ds.test_abnormal]
    test = [replace(s, anomaly_gt=imagecore.BinaryMask(
                s.foreground.bits & ~r.bits))
            for s, r in zip(ds.test_abnormal, regions)]
    assert all(s.anomaly_gt.count() for s in test)
    with pytest.raises(ValueError, match="^no test sample marks a lesion "
                                         "pixel inside its scored region$"):
        pipeline.prepare([cfg], replace(ds, test_abnormal=test))


def test_missing_disk_dataset_is_reported_with_its_path(tmp_path):
    cfg = replace(BLUR, dataset_kind="disk", dataset_path=str(tmp_path / "none"),
                  out=str(tmp_path / "out")).validate()
    with pytest.raises(FileNotFoundError, match="dataset.tsv"):
        pipeline.run(cfg)


@pytest.mark.parametrize("workers", [0, -2])
def test_workers_below_one_are_rejected(tmp_path, workers):
    cfg = replace(BLUR, out=str(tmp_path / "out")).validate()
    for entry in (pipeline.run, pipeline.ablate):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            entry(cfg, workers=workers)
    assert not (tmp_path / "out").exists()
    for command in ("run", "ablate", "phantom"):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args([command, "--workers", str(workers)])
        assert exc.value.code == 2
    assert cli.build_parser().parse_args(["run", "--workers", "2"]).workers == 2


def _counting_pools(monkeypatch):
    built = []
    real = pipeline.ProcessPoolExecutor

    def counted(*args, **kwargs):
        pool = real(*args, **kwargs)
        built.append(pool)
        return pool

    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", counted)
    return built


@pytest.mark.parametrize("entry", ["run", "ablate"])
def test_one_pool_per_call_and_reports_equal_one_worker(tmp_path, monkeypatch,
                                                        entry):
    cfg = replace(BLUR, folds=3, out=str(tmp_path / "out")).validate()
    call = getattr(pipeline, entry)
    dirs = [tmp_path / "out"]
    if entry == "ablate":
        dirs = [tmp_path / "out" / v for v in VARIANTS]
    call(cfg, workers=1)
    one = [_read(d) for d in dirs]
    pools = _counting_pools(monkeypatch)
    call(cfg, workers=2)
    assert len(pools) == 1
    assert [_read(d) for d in dirs] == one


@pytest.mark.parametrize("workers", [1, 2, 3, 8, 16])
def test_chunk_size_sends_every_sample_in_at_least_one_chunk_per_worker(
        workers):
    for n in range(1, 200):
        c = pipeline.chunk_size(n, workers)
        chunks = -(-n // c)
        assert c >= 1
        assert chunks <= pipeline.CHUNKS_PER_WORKER * workers
        assert chunks >= min(n, workers)
        if n <= pipeline.CHUNKS_PER_WORKER * workers:
            assert c == 1  # one sample per message, as many as there are


def test_chunk_size_at_its_edges():
    assert pipeline.chunk_size(1, 1) == 1
    assert pipeline.chunk_size(1, 4) == 1  # fewer samples than workers
    assert pipeline.chunk_size(3, 8) == 1
    assert pipeline.chunk_size(40, 2) == 3  # 14 chunks, the last of 1
    assert pipeline.chunk_size(17, 2) == 2  # not a multiple of the chunk
    assert pipeline.chunk_size(16, 2) == 1


def _recording_chunks(monkeypatch):
    """Pools whose ``map`` records the chunk size it was given."""
    sizes = []

    class Recording(pipeline.ProcessPoolExecutor):
        def map(self, fn, *iterables, chunksize=1, **kwargs):
            sizes.append(chunksize)
            return super().map(fn, *iterables, chunksize=chunksize, **kwargs)

    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", Recording)
    return sizes


def _scored_25(tmp_path, disk):
    """A 2-fold blur config of 12 validation and 13 test samples: 25 per
    fold, which 2 or 3 workers take in chunks of 2, the last one short."""
    cfg = replace(BLUR, n_val=12, n_test=13, out=str(tmp_path / "out"))
    if disk:
        datasetio.save_dataset(pipeline.load_fold_dataset(cfg, 0),
                               tmp_path / "ds")
        cfg = replace(cfg, dataset_kind="disk", dataset_path=str(tmp_path / "ds"))
    return cfg.validate()


@pytest.mark.parametrize("disk", [False, True])
@pytest.mark.parametrize("entry", ["run", "ablate"])
def test_chunked_pool_reports_equal_one_worker(tmp_path, monkeypatch, disk,
                                               entry):
    cfg = _scored_25(tmp_path, disk)
    dirs = [tmp_path / "out"]
    if entry == "ablate":
        dirs = [tmp_path / "out" / v for v in VARIANTS]
    call = getattr(pipeline, entry)
    sizes = _recording_chunks(monkeypatch)
    call(cfg, workers=1)
    assert sizes == []  # one worker takes the built-in map
    one = [_read(d) for d in dirs]
    for workers in (2, 3):
        assert pipeline.chunk_size(25, workers) == 2
        call(cfg, workers=workers)
        assert sizes == [2] * cfg.folds
        assert [_read(d) for d in dirs] == one, workers
        sizes.clear()


@pytest.mark.parametrize("disk", [False, True])
def test_pool_never_outnumbers_a_folds_scored_samples(tmp_path, monkeypatch,
                                                      disk):
    # 3 validation + 3 test samples; a disk dataset's splits come from its
    # files, not from the n_val and n_test it leaves unread
    cfg = (_disk_config(tmp_path, n_val=1, n_test=1) if disk
           else replace(BLUR, folds=1, out=str(tmp_path / "out")).validate())
    sizes = []
    real = pipeline.ProcessPoolExecutor
    monkeypatch.setattr(pipeline, "ProcessPoolExecutor",
                        lambda n: sizes.append(n) or real(n))
    pipeline.run(cfg, workers=8)
    assert sizes == [6]


def test_dead_worker_fails_only_its_fold(tmp_path, monkeypatch):
    cfg = replace(BLUR, out=str(tmp_path / "out")).validate()
    pipeline.run(cfg)
    expect = (tmp_path / "out" / "report.csv").read_text().splitlines()
    pools = _counting_pools(monkeypatch)
    flag = tmp_path / "died"
    real = evalkit.reconstruct

    def dies_once(*args, **kwargs):
        # patched before the workers fork: the first call in any worker exits
        if not flag.exists():
            flag.touch()
            os._exit(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(evalkit, "reconstruct", dies_once)
    report = pipeline.run(cfg, workers=2)
    first, second = report.outcomes
    assert first.result is None and "process" in first.error.lower()
    assert second.error is None
    assert len(pools) == 2  # the broken pool is replaced for fold 1
    rows = (tmp_path / "out" / "report.csv").read_text().splitlines()
    assert rows[1] == "0,error,error,"
    assert rows[2] == expect[2]
