from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from anomap import cli, config, fileio

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
    config.RunConfig(size=64, patch_h=64, patch_w=1, stride_h=1).validate()


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


_NAMES = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_./-",
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


def test_render_parse_roundtrip():
    cfg = config.RunConfig(profile="t2_like", n_train=3, lesion_gap=0.2,
                           epochs=11, blur_sigma=2.5, variant="fq_air",
                           seed=9, out="elsewhere")
    again = config.parse(config.render(cfg))
    assert again == cfg


def test_shipped_configs_parse():
    default = config.parse_file(REPO / "configs" / "default.cfg")
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


def test_cli_iqa_rejects_size_mismatch(tmp_path, capsys):
    a = tmp_path / "a.f32r"
    b = tmp_path / "b.f32r"
    fileio.write_f32r(a, np.zeros((4, 4)))
    fileio.write_f32r(b, np.zeros((5, 5)))
    assert cli.main(["iqa", str(a), str(b)]) == 1
    assert "size mismatch" in capsys.readouterr().err


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
