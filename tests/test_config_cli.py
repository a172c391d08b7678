import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from anomap import cli, config, denoise, diffusion, evalkit, fileio, pipeline
from anomap.imagecore import BinaryMask

REPO = Path(__file__).resolve().parent.parent


def test_defaults_validate():
    cfg = config.RunConfig().validate()
    assert cfg.variant == "fq"
    assert cfg.resolved_t_test() == 750
    assert config.RunConfig(profile="t2_like").resolved_t_test() == 500
    assert config.RunConfig(t_test=123).resolved_t_test() == 123


def test_variant_resolves_alpha_and_air():
    assert config.RunConfig(variant="l1").resolved_alpha() == 0.0
    assert config.RunConfig(variant="ssim").resolved_alpha() == 1.0
    assert config.RunConfig(variant="fq").resolved_alpha() == 0.84
    assert config.RunConfig(variant="fq_air").uses_air()
    assert not config.RunConfig(variant="fq").uses_air()


def test_parse_sections_and_values():
    cfg = config.parse("""
[dataset]
profile = t2_like
n_train = 12
lesion_gap = 0.15
[train]
epochs = 7
[eval]
blur_sigma = none
[run]
seed = 42
""")
    assert cfg.profile == "t2_like"
    assert cfg.n_train == 12
    assert cfg.lesion_gap == 0.15
    assert cfg.epochs == 7
    assert cfg.blur_sigma is None
    assert cfg.seed == 42


def test_parse_reports_line_numbers():
    with pytest.raises(config.ConfigError, match=":2: unknown section"):
        config.parse("\n[nope]\n")
    with pytest.raises(config.ConfigError, match=":3: unknown key"):
        config.parse("\n[train]\nbogus = 1\n")
    with pytest.raises(config.ConfigError, match=":1: key outside"):
        config.parse("epochs = 1\n")
    with pytest.raises(config.ConfigError, match=":2: expected key"):
        config.parse("[train]\nepochs\n")
    with pytest.raises(config.ConfigError, match="bad value"):
        config.parse("[train]\nepochs = many\n")


def test_parse_rejects_a_key_given_twice_in_a_section():
    with pytest.raises(config.ConfigError) as exc:
        config.parse("[run]\nseed = 1\nseed = 2\n", source="a.cfg")
    assert str(exc.value) == "a.cfg:3: key 'seed' in [run] repeats line 2"
    # a repeated section header may add keys, but not repeat one
    text = "[run]\nseed = 1\n[train]\nepochs = 2\n[run]\nfolds = 2\n"
    assert config.parse(text).folds == 2
    with pytest.raises(config.ConfigError) as exc:
        config.parse(text + "seed = 2\n")
    assert str(exc.value) == "<config>:7: key 'seed' in [run] repeats line 2"


def test_validation_errors():
    with pytest.raises(ValueError):
        config.RunConfig(variant="l2").validate()
    with pytest.raises(ValueError):
        config.RunConfig(dataset_kind="disk").validate()
    with pytest.raises(ValueError):
        config.RunConfig(profile="ct").validate()
    with pytest.raises(ValueError):
        config.RunConfig(size=16).validate()
    with pytest.raises(ValueError):
        config.RunConfig(lesion_gap=-0.1).validate()
    with pytest.raises(ValueError, match="n_thresholds"):
        config.RunConfig(n_thresholds=1).validate()
    with pytest.raises(config.ConfigError, match="n_thresholds"):
        config.parse("[eval]\nn_thresholds = 1\n")
    for key, bad in (("patch_h", 65), ("patch_w", 100), ("patch_h", 0),
                     ("patch_w", -1)):
        with pytest.raises(ValueError, match=key):
            config.RunConfig(size=64, **{key: bad}).validate()
    for key in ("stride_h", "stride_w"):
        with pytest.raises(ValueError, match=key):
            config.RunConfig(**{key: 0}).validate()
    with pytest.raises(config.ConfigError, match="patch_h"):
        config.parse("[diffusion]\npatch_h = 100\n")
    # a 1 px patch covers only at stride 1; at the default 16 it leaves gaps
    config.RunConfig(size=64, patch_h=64, patch_w=1, stride_h=1,
                     stride_w=1).validate()


def test_negative_seed_is_rejected():
    # SeedSequence would reject it in every fold
    with pytest.raises(ValueError, match="seed = -1"):
        config.RunConfig(seed=-1).validate()
    with pytest.raises(config.ConfigError, match="seed"):
        config.parse("[run]\nseed = -3\n")
    config.RunConfig(seed=0).validate()


@pytest.mark.parametrize("key", ["n_train", "n_val", "n_test"])
def test_phantom_split_counts_below_one_are_rejected(key):
    with pytest.raises(config.ConfigError, match=f"{key} = 0"):
        config.parse(f"[dataset]\n{key} = 0\n")
    with pytest.raises(ValueError, match=key):
        config.RunConfig(**{key: -2}).validate()
    # a disk dataset takes its splits from the files
    config.RunConfig(dataset_kind="disk", dataset_path="ds",
                     **{key: 0}).validate()


def test_patch_grid_with_gaps_is_rejected_at_parse_time():
    # rows [0, 20, 40, 48] leave rows 16-19 and 36-39 unscored
    with pytest.raises(config.ConfigError) as exc:
        config.parse("[dataset]\nsize = 64\n"
                     "[diffusion]\npatch_h = 16\nstride_h = 20\n")
    message = str(exc.value)
    for part in ("height", "patch_h = 16", "stride_h = 20", "64 px"):
        assert part in message
    # the default stride, a quarter of the size, under a smaller patch
    with pytest.raises(ValueError, match="patch_w = 8 at stride_w = 16"):
        config.RunConfig(size=64, patch_w=8).validate()
    # a disk dataset's grid is checked once its rasters are read
    config.RunConfig(dataset_kind="disk", dataset_path="ds", size=64,
                     patch_h=16, stride_h=20).validate()


@pytest.mark.parametrize("sigma, radius", [(21.4, 65), (1e9, 3000000000)])
def test_validate_rejects_a_blur_kernel_wider_than_the_phantom(sigma, radius):
    # ceil(3 * sigma) above the 64 px side; at 1e9 building the kernel
    # would ask numpy for 48 GB
    with pytest.raises(ValueError, match=(
            f"^blur_sigma = {sigma} gives a kernel radius of {radius} px, "
            "above the larger image side, 64 px$")):
        config.RunConfig(size=64, blur_sigma=sigma).validate()
    with pytest.raises(config.ConfigError, match=f"blur_sigma = {sigma}"):
        config.parse(f"[dataset]\nsize = 64\n[eval]\nblur_sigma = {sigma}\n")
    # a radius of exactly the side is accepted
    config.RunConfig(size=64, blur_sigma=21.3).validate()
    # a disk dataset's blur is checked once its rasters are read
    config.RunConfig(dataset_kind="disk", dataset_path="ds", size=64,
                     blur_sigma=sigma).validate()


def test_stride_beyond_the_patch_that_still_covers_is_valid():
    # starts [0, 32]: the last placement closes what the stride skips
    cfg = config.parse("[dataset]\nsize = 64\n"
                       "[diffusion]\npatch_h = 32\nstride_h = 40\n")
    spec = cfg.patch().resolve(64, 64)
    assert sorted({r for r, _ in diffusion.placements(spec, 64, 64)}) == [0, 32]


@pytest.mark.parametrize("line", ["median_k = 4", "median_k = 0",
                                  "ssim_window = 6", "ssim_window = -1",
                                  "erosion_iters = -1"])
def test_parse_rejects_kernel_sizes_and_erosion_that_fail_every_fold(line):
    key = line.split()[0]
    with pytest.raises(config.ConfigError, match=key):
        config.parse(f"[eval]\n{line}\n")


@pytest.mark.parametrize("text, key", [
    ("[diffusion]\nT = 0\nt_test = 1", "T"),
    ("[diffusion]\nbeta_T = 1.5", "beta_T"),
    ("[diffusion]\nbeta_1 = 0", "beta_1"),
    ("[diffusion]\nbeta_1 = 0.05\nbeta_T = 0.02", "beta_1"),
    ("[diffusion]\nbeta_1 = nan", "beta_1"),
    ("[diffusion]\nt_test = 2000", "t_test"),
    ("[diffusion]\nt_test = 0", "t_test"),
    ("[diffusion]\nT = 100", "t_test"),      # the default t_test is 750
    ("[eval]\nblur_sigma = 0", "blur_sigma"),
    ("[eval]\nblur_sigma = -2", "blur_sigma"),
    ("[eval]\nblur_sigma = inf", "blur_sigma"),
    ("[train]\nbatch_size = 0", "batch_size"),
    ("[train]\nepochs = -1", "epochs"),
    ("[train]\nlearning_rate = -0.1", "learning_rate"),
    ("[train]\nlearning_rate = nan", "learning_rate"),
    ("[dataset]\nlesion_gap = nan", "lesion_gap"),
])
def test_parse_rejects_diffusion_and_training_values_that_fail_every_fold(
        text, key):
    with pytest.raises(config.ConfigError, match=key):
        config.parse(text + "\n")


def test_parse_accepts_boundary_diffusion_and_training_values():
    cfg = config.parse("[diffusion]\nT = 1\nt_test = 1\nbeta_1 = 0.5\n"
                       "beta_T = 0.5\n[train]\nepochs = 0\nbatch_size = 1\n"
                       "learning_rate = 0\n[eval]\nblur_sigma = 0.1\n")
    assert (cfg.T, cfg.resolved_t_test(), cfg.epochs) == (1, 1, 0)


# paths mostly of plain characters; a space, tab, "#" or line break, which
# a config line may not carry back, is drawn rarely, so that validate
# filters out few drawn configs
_NAMES = st.text(alphabet=st.sampled_from(
    list("abcdefghijklmnopqrstuvwxyz0123456789_./-") * 4 + list(" \t#\n")),
    min_size=1, max_size=12)


def _floats(lo, hi, **kw):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw)


@st.composite
def _valid_configs(draw):
    size = draw(st.integers(32, 256))
    T = draw(st.integers(1, 2000))
    beta_1 = draw(_floats(1e-9, 0.5))
    kind = draw(st.sampled_from(["phantom", "disk"]))

    def side(lo):
        return draw(st.none() | st.integers(lo, size))

    cfg = config.RunConfig(
        dataset_kind=kind,
        dataset_path=draw(_NAMES) if kind == "disk" else draw(st.just("") | _NAMES),
        profile=draw(st.sampled_from(config.PROFILE_NAMES)),
        size=size,
        n_train=draw(st.integers(0, 500)),
        n_val=draw(st.integers(0, 500)),
        n_test=draw(st.integers(0, 500)),
        lesion_gap=draw(st.none() | _floats(1e-6, 10.0)),
        T=T,
        beta_1=beta_1,
        beta_T=draw(_floats(beta_1, 1.0, exclude_max=True)),
        t_test=draw(st.none() | st.integers(1, T)),
        noise=draw(st.sampled_from(["simplex", "gaussian"])),
        patch_h=side(1), patch_w=side(1), stride_h=side(1), stride_w=side(1),
        epochs=draw(st.integers(0, 1000)),
        learning_rate=draw(_floats(0.0, 10.0)),
        batch_size=draw(st.integers(1, 64)),
        median_k=draw(st.integers(0, 7)) * 2 + 1,
        erosion_iters=draw(st.integers(0, 6)),
        n_thresholds=draw(st.integers(2, 1000)),
        ssim_window=draw(st.integers(0, 7)) * 2 + 1,
        alpha=draw(_floats(0.0, 1.0)),
        blur_sigma=draw(st.none() | _floats(1e-3, 20.0)),
        variant=draw(st.sampled_from(config.VARIANTS)),
        folds=draw(st.integers(1, 20)),
        seed=draw(st.integers(0, 2**40)),
        out=draw(_NAMES),
    )
    try:
        return cfg.validate()
    except ValueError:
        assume(False)  # a default t_test beyond a drawn T


@settings(max_examples=300, deadline=None)
@given(_valid_configs())
def test_render_parse_roundtrips_any_valid_config(cfg):
    assert config.parse(config.render(cfg)) == cfg


@pytest.mark.parametrize("field, key", [("out", "out"), ("dataset_path", "path")])
@pytest.mark.parametrize("value", [" lead", "trail\t", "runs/a #1", "#1",
                                   "runs/a\nb", "runs/a\r"])
def test_validate_rejects_a_path_that_a_config_line_cannot_carry_back(
        field, key, value):
    with pytest.raises(ValueError, match=f"^{key} = "):
        config.RunConfig(**{field: value}).validate()


def test_render_parse_roundtrip():
    cfg = config.RunConfig(profile="t2_like", n_train=3, lesion_gap=0.2,
                           epochs=11, blur_sigma=2.5, variant="fq_air",
                           seed=9, out="elsewhere")
    again = config.parse(config.render(cfg))
    assert again == cfg


def test_render_parse_roundtrip_keeps_a_hash_inside_a_path():
    cfg = config.RunConfig(dataset_kind="disk", dataset_path="/data/brats#2021",
                           out="runs/a#1").validate()
    assert config.parse(config.render(cfg)) == cfg


def test_a_hash_starts_a_comment_only_at_line_start_or_after_whitespace():
    cfg = config.parse("# leading comment\n[run]  # after the header\n"
                       "  # indented comment\nout = runs/a#1\t# tab, then hash\n"
                       "seed = 3 #no space after the hash\n")
    assert cfg.out == "runs/a#1"
    assert cfg.seed == 3


# the empty path keeps the space after "="
DEFAULT_TEXT = """\
[dataset]
kind = phantom
path =\x20
profile = flair_like
size = 64
n_train = 200
n_val = 30
n_test = 60
lesion_gap = none

[diffusion]
T = 1000
beta_1 = 0.0001
beta_T = 0.02
t_test = none
noise = simplex
patch_h = none
patch_w = none
stride_h = none
stride_w = none

[train]
epochs = 300
learning_rate = 0.1
batch_size = 8

[eval]
median_k = 5
erosion_iters = 3
n_thresholds = 200
ssim_window = 5
alpha = 0.84
blur_sigma = none

[run]
variant = fq
folds = 5
seed = 0
out = out
"""


def test_render_of_the_defaults_is_the_written_layout():
    # section order, key names and "none" are what config_echo.cfg holds
    assert config.render(config.RunConfig()) == DEFAULT_TEXT


def test_shipped_configs_parse():
    default = config.parse_file(REPO / "configs" / "default.cfg")
    assert default == config.RunConfig()
    assert default.variant == "fq"
    ablate = config.parse_file(REPO / "configs" / "ablate_flair.cfg")
    assert ablate.blur_sigma == 4.0
    assert ablate.folds == 5
    assert ablate.lesion_gap == 0.1


def _write_cfg(tmp_path, text):
    p = tmp_path / "run.cfg"
    p.write_text(text, encoding="utf-8")
    return str(p)


TINY = """
[dataset]
size = 32
n_train = 2
n_val = 2
n_test = 2
[train]
epochs = 2
[run]
folds = 1
"""


def test_cli_phantom_writes_dataset(tmp_path, capsys):
    cfgp = _write_cfg(tmp_path, TINY)
    out = tmp_path / "ds"
    rc = cli.main(["phantom", "--config", cfgp, "--out", str(out)])
    assert rc == 0
    assert (out / "dataset.tsv").exists()
    assert "wrote 6 samples" in capsys.readouterr().out


def test_cli_phantom_rejects_a_disk_config(tmp_path, capsys):
    ds = tmp_path / "ds"
    assert cli.main(["phantom", "--config", _write_cfg(tmp_path, TINY),
                     "--out", str(ds)]) == 0
    written = {p: p.read_bytes() for p in ds.rglob("*") if p.is_file()}
    disk = _write_cfg(tmp_path, f"[dataset]\nkind = disk\npath = {ds}\n")
    capsys.readouterr()
    for out in (ds, tmp_path / "new"):  # onto itself, or a new directory
        assert cli.main(["phantom", "--config", disk, "--out", str(out)]) == 1
        assert capsys.readouterr() == (
            "", "error: phantom needs [dataset] kind = phantom, not disk\n")
    assert {p: p.read_bytes() for p in ds.rglob("*") if p.is_file()} == written
    assert not (tmp_path / "new").exists()


def test_cli_run_emits_reports(tmp_path, capsys):
    cfgp = _write_cfg(tmp_path, TINY)
    out = tmp_path / "run_out"
    rc = cli.main(["run", "--config", cfgp, "--out", str(out)])
    assert rc == 0
    assert (out / "report.csv").exists()
    assert (out / "per_sample.csv").exists()
    assert (out / "config_echo.cfg").exists()
    assert "dice" in capsys.readouterr().out
    echoed = config.parse_file(out / "config_echo.cfg")
    assert echoed.size == 32


def test_cli_dump_maps(tmp_path):
    cfgp = _write_cfg(tmp_path, TINY)
    out = tmp_path / "maps_out"
    rc = cli.main(["run", "--config", cfgp, "--out", str(out), "--dump-maps"])
    assert rc == 0
    dumped = sorted((out / "maps" / "fold0").glob("*.f32r"))
    assert len(dumped) == 2


@pytest.mark.parametrize("workers", [1, 2])
def test_dump_maps_equal_the_one_sample_reference_chain(tmp_path, workers):
    # each dumped raster is the one that score_sample gives its sample under
    # the fold's seed and the run's config, written by write_f32r
    text = TINY.replace("n_test = 2", "n_test = 3") + "[eval]\nblur_sigma = 1.0\n"
    out = tmp_path / "out"
    assert cli.main(["run", "--config", _write_cfg(tmp_path, text), "--out",
                     str(out), "--workers", str(workers), "--dump-maps"]) == 0
    cfg = config.parse(text)
    sched = diffusion.linear_schedule(cfg.T, cfg.beta_1, cfg.beta_T)
    seed = diffusion.derive_seed(cfg.seed, 100)  # fold 0
    model = denoise.blur_denoiser(cfg.blur_sigma)
    ref = tmp_path / "ref.f32r"
    for s in pipeline.load_fold_dataset(cfg, 0).test_abnormal:
        amap = evalkit.score_sample(model, s, pipeline.eval_config(cfg), sched,
                                    seed)
        fileio.write_f32r(ref, amap.scores)
        dumped = out / "maps" / "fold0" / f"{s.id}.f32r"
        assert dumped.read_bytes() == ref.read_bytes()


def test_cli_ablate_dump_maps_match_separate_runs(tmp_path):
    blur = TINY + "[eval]\nblur_sigma = 1.0\n"
    cfgp = _write_cfg(tmp_path, blur)
    out = tmp_path / "ablate_out"
    assert cli.main(["ablate", "--config", cfgp, "--out", str(out),
                     "--dump-maps"]) == 0
    for variant in config.VARIANTS:
        dumped = sorted((out / variant / "maps" / "fold0").glob("*.f32r"))
        assert len(dumped) == 2
        single = tmp_path / f"run_{variant}"
        vcfg = _write_cfg(tmp_path, blur + f"[run]\nvariant = {variant}\n")
        assert cli.main(["run", "--config", vcfg, "--out", str(single),
                         "--dump-maps"]) == 0
        for path in dumped:
            alone = single / "maps" / "fold0" / path.name
            assert path.read_bytes() == alone.read_bytes()


@pytest.mark.parametrize("flag", [["--workers", "2"], ["--dump-maps"]],
                         ids=["workers", "dump-maps"])
def test_cli_phantom_rejects_scoring_flags(flag):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["phantom", *flag])
    assert exc.value.code == 2


def test_cli_iqa_compares_rasters(tmp_path, capsys):
    rng = np.random.default_rng(0)
    a = tmp_path / "a.f32r"
    b = tmp_path / "b.f32r"
    fileio.write_f32r(a, rng.uniform(0, 1, (16, 16)))
    fileio.write_f32r(b, rng.uniform(0, 1, (16, 16)))
    mp = tmp_path / "map.f32r"
    rc = cli.main(["iqa", str(a), str(b), "--map", str(mp)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ssim_loss" in out and "fusion_loss" in out
    assert fileio.read_f32r(mp).shape == (16, 16)


def test_cli_iqa_prints_the_three_losses(tmp_path, capsys):
    # a golden record of this seeded pair's three losses, labels and formats
    rng = np.random.default_rng(0)
    a = tmp_path / "a.f32r"
    b = tmp_path / "b.f32r"
    fileio.write_f32r(a, rng.uniform(0, 1, (16, 16)))
    fileio.write_f32r(b, rng.uniform(0, 1, (16, 16)))
    rc = cli.main(["iqa", str(a), str(b), "--window", "7", "--alpha", "0.3"])
    assert rc == 0
    assert capsys.readouterr().out == ("ssim_loss 0.443052\n"
                                       "l1 0.30918\n"
                                       "fusion_loss 0.349341\n")


def test_cli_iqa_reports_a_missing_raster(tmp_path, capsys):
    a = tmp_path / "a.f32r"
    fileio.write_f32r(a, np.zeros((4, 4)))
    missing = tmp_path / "missing.f32r"
    assert cli.main(["iqa", str(a), str(missing)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err


def test_cli_iqa_rejects_size_mismatch(tmp_path, capsys):
    a = tmp_path / "a.f32r"
    b = tmp_path / "b.f32r"
    fileio.write_f32r(a, np.zeros((4, 4)))
    fileio.write_f32r(b, np.zeros((5, 3)))
    assert cli.main(["iqa", str(a), str(b)]) == 1
    assert capsys.readouterr().err == (f"error: size mismatch: {a} is 4x4 px, "
                                       f"{b} is 3x5 px\n")


@pytest.mark.parametrize("flag, value, message", [
    ("--window", "4", "window size must be odd and positive"),
    ("--window", "-1", "window size must be odd and positive"),
    ("--window", "x", "invalid literal for int() with base 10: 'x'"),
    ("--alpha", "1.5", "alpha = 1.5 must lie in [0, 1]"),
    ("--alpha", "nan", "alpha = nan must lie in [0, 1]"),
])
def test_cli_iqa_names_the_flag_of_a_bad_value(flag, value, message, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["iqa", "a.f32r", "b.f32r", flag, value])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"anomap iqa: error: argument {flag}: {message}\n")


def test_cli_iqa_accepts_the_edges_of_its_ranges(tmp_path, capsys):
    a = tmp_path / "a.f32r"
    fileio.write_f32r(a, np.full((4, 4), 0.5))
    for flags in (["--window", "1", "--alpha", "0"], ["--alpha", "1"]):
        assert cli.main(["iqa", str(a), str(a), *flags]) == 0
        assert "fusion_loss 0\n" in capsys.readouterr().out


def test_cli_stats_reports_flip(tmp_path, capsys):
    cfgp = _write_cfg(tmp_path, TINY)
    ds_dir = tmp_path / "ds2"
    assert cli.main(["phantom", "--config", cfgp, "--out", str(ds_dir)]) == 0
    capsys.readouterr()
    csv_out = tmp_path / "stats.csv"
    rc = cli.main(["stats", str(ds_dir), "--out", str(csv_out)])
    assert rc == 0
    text = csv_out.read_text(encoding="utf-8")
    assert text.splitlines()[0] == "mu_n,mu_a,air_before,air_after,flip"
    assert capsys.readouterr().out == text


def test_cli_stats_names_the_dataset_it_cannot_compute(tmp_path, capsys):
    cfgp = _write_cfg(tmp_path, TINY)
    ds_dir = tmp_path / "ds2"
    assert cli.main(["phantom", "--config", cfgp, "--out", str(ds_dir)]) == 0
    capsys.readouterr()
    for path in (ds_dir / "val").glob("*.gt.pgm"):
        mask = fileio.read_pgm_mask(path)
        fileio.write_pgm_mask(path, BinaryMask(np.zeros_like(mask.bits)))
    assert cli.main(["stats", str(ds_dir)]) == 1
    assert capsys.readouterr().err == (
        f"error: {ds_dir}: stats require unhealthy validation data\n")


def test_cli_stats_names_the_dataset_and_the_mean_without_an_air(tmp_path,
                                                                  capsys):
    cfgp = _write_cfg(tmp_path, TINY)
    ds_dir = tmp_path / "ds2"
    assert cli.main(["phantom", "--config", cfgp, "--out", str(ds_dir)]) == 0
    capsys.readouterr()
    for path in (ds_dir / "val").glob("*.f32r"):
        lesion = fileio.read_pgm_mask(path.with_suffix(".gt.pgm")).bits
        pixels = fileio.read_f32r(path)
        pixels[lesion] = 0.0
        fileio.write_f32r(path, pixels)
    assert cli.main(["stats", str(ds_dir)]) == 1
    assert capsys.readouterr().err == (
        f"error: {ds_dir}: AIR undefined: lesion mean mu_a = 0 "
        "is not positive\n")


def test_cli_bad_config_exit_code(tmp_path, capsys):
    cfgp = _write_cfg(tmp_path, "[train]\nbogus = 1\n")
    assert cli.main(["run", "--config", cfgp]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_seed_override(tmp_path):
    cfgp = _write_cfg(tmp_path, TINY)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cli.main(["run", "--config", cfgp, "--out", str(out_a), "--seed", "5"])
    cli.main(["run", "--config", cfgp, "--out", str(out_b), "--seed", "6"])
    ra = (out_a / "report.csv").read_text(encoding="utf-8")
    rb = (out_b / "report.csv").read_text(encoding="utf-8")
    assert ra != rb


def test_cli_negative_seed_fails_before_any_output(tmp_path, capsys):
    cfgp = _write_cfg(tmp_path, TINY)
    out = tmp_path / "out"
    for command in ("run", "ablate", "phantom"):
        rc = cli.main([command, "--config", cfgp, "--out", str(out),
                       "--seed", "-1"])
        assert rc != 0
        assert "seed = -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name, level", [("warning", logging.WARNING),
                                         ("WARNING", logging.WARNING),
                                         ("Info", logging.INFO),
                                         ("debug", logging.DEBUG),
                                         ("error", logging.ERROR)])
def test_log_level_accepts_every_level_in_any_case(name, level, capsys):
    assert cli._log_level(name) == level
    assert capsys.readouterr().err == ""


def test_unknown_log_level_is_reported_in_one_line(capsys):
    assert cli._log_level("verbose") == logging.ERROR
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "ANOMAP_LOG='verbose'" in err and "warning" in err


def test_python_dash_m_anomap_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-m", "anomap", "--help"],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: anomap ")
