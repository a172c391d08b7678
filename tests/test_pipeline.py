"""The shared fold loop: ``ablate`` equals four separate ``run`` calls, and
each fold's dataset, regions and reconstructions are computed once; a call
scores every fold in one process pool."""

import os
from dataclasses import replace

import pytest

from anomap import cli, config, datasetio, denoise, evalkit, imagecore, pipeline
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


def test_ablate_equals_separate_runs_blur_no_flip(tmp_path):
    cfg = replace(BLUR, profile="t2_like")
    reports = _assert_ablate_equals_runs(cfg, tmp_path, 1)
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


def test_disk_dataset_is_read_once_per_run(tmp_path, monkeypatch):
    cfg = replace(BLUR, folds=3).validate()
    datasetio.save_dataset(pipeline.load_fold_dataset(cfg, 0), tmp_path / "ds")
    disk = replace(cfg, dataset_kind="disk", dataset_path=str(tmp_path / "ds"),
                   out=str(tmp_path / "out")).validate()
    loads = _counting(monkeypatch, datasetio, "load_dataset")
    report = pipeline.run(disk)
    assert len(loads) == 1
    assert report.complete and len(report.outcomes) == 3


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
