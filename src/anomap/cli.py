"""Command-line front end.

Subcommands:
  phantom   materialize a synthetic dataset on disk
  run       train and evaluate one variant across folds
  ablate    run all four variants with shared seeds
  iqa       compare two F32R rasters (losses and optional anomaly map)
  stats     intensity statistics and flip decision for a dataset directory

The log level is controlled by the ``ANOMAP_LOG`` environment variable:
error, warning, info or debug, in any case (default error).  Any other
value is reported in one line on stderr and logs at error.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import airprep, config, datasetio, fileio, iqa, phantom, pipeline
from .imagecore import Image2D

log = logging.getLogger("anomap")


_LOG_LEVELS = {"error": logging.ERROR, "warning": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}


def _log_level(name: str) -> int:
    level = _LOG_LEVELS.get(name.lower())
    if level is None:
        print(f"anomap: ANOMAP_LOG={name!r} is not one of "
              f"{', '.join(_LOG_LEVELS)}; logging at error", file=sys.stderr)
        return logging.ERROR
    return level


def _setup_logging() -> None:
    level = _log_level(os.environ.get("ANOMAP_LOG", "error"))
    logging.basicConfig(level=level, format="%(levelname)s: %(message)s")


def _load_config(args) -> config.RunConfig:
    if args.config:
        cfg = config.parse_file(args.config)
    else:
        cfg = config.RunConfig()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.out is not None:
        cfg = replace(cfg, out=args.out)
    return cfg.validate()


def cmd_phantom(args) -> int:
    cfg = _load_config(args)
    if cfg.dataset_kind != "phantom":
        raise ValueError("phantom needs [dataset] kind = phantom, not disk")
    ds = pipeline.load_fold_dataset(cfg, fold=0)
    datasetio.save_dataset(ds, cfg.out)
    print(f"wrote {len(ds.all_samples())} samples to {cfg.out}")
    return 0


def cmd_run(args) -> int:
    cfg = _load_config(args)
    report = pipeline.run(cfg, workers=args.workers, dump_maps=args.dump_maps)
    dm, dsd, am, asd = report.mean_std()
    print(f"dice {dm:.4f}+-{dsd:.4f}  auprc {am:.4f}+-{asd:.4f}  "
          f"({report.wall_clock:.1f}s)")
    return 0 if report.complete else 1


def cmd_ablate(args) -> int:
    cfg = _load_config(args)
    reports = pipeline.ablate(cfg, workers=args.workers, dump_maps=args.dump_maps)
    ok = True
    for variant, report in reports.items():
        dm, dsd, am, asd = report.mean_std()
        print(f"{variant:7s} dice {dm:.4f}+-{dsd:.4f}  auprc {am:.4f}+-{asd:.4f}")
        ok = ok and report.complete
    return 0 if ok else 1


def cmd_iqa(args) -> int:
    a = fileio.read_f32r(args.image_a)
    b = fileio.read_f32r(args.image_b)
    if a.shape != b.shape:
        raise ValueError(f"size mismatch: {args.image_a} is {a.shape[1]}x"
                         f"{a.shape[0]} px, {args.image_b} is {b.shape[1]}x"
                         f"{b.shape[0]} px")
    x, y = Image2D(a), Image2D(b)
    p = iqa.SsimParams(W=args.window)
    f = iqa.FusionParams(alpha=args.alpha)
    # the SSIM and L1 losses are the fusion loss at alpha = 1 and 0
    target = iqa.loss_target(x, p)
    print(f"ssim_loss {target.loss(y.pixels, iqa.FusionParams(1.0)):.6g}")
    print(f"l1 {target.loss(y.pixels, iqa.FusionParams(0.0)):.6g}")
    print(f"fusion_loss {target.loss(y.pixels, f):.6g}")
    if args.map:
        amap = iqa.fusion_anomaly_map(x, y, p, f)
        fileio.write_f32r(args.map, amap.scores)
    return 0


def cmd_stats(args) -> int:
    ds = datasetio.load_dataset(args.dataset)
    try:
        csv_text = airprep.stats_csv(airprep.dataset_stats(ds.val_abnormal))
    except ValueError as exc:
        raise ValueError(f"{args.dataset}: {exc}") from None
    if args.out:
        Path(args.out).write_text(csv_text, encoding="utf-8")
    print(csv_text, end="")
    return 0


def _checked(parse, check):
    """An argparse type: ``check(parse(text))``, whose ``ValueError``
    argparse reports under the flag's name."""
    def convert(text: str):
        try:
            return check(parse(text))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return convert


_workers = _checked(int, pipeline.require_workers)
_window = _checked(int, lambda W: iqa.SsimParams(W=W).W)
_alpha = _checked(float, lambda alpha: iqa.FusionParams(alpha=alpha).alpha)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="anomap",
                                 description="Reconstruction-based anomaly "
                                             "detection pipeline")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="configuration file")
        p.add_argument("--seed", type=int, default=None, help="override seed")
        p.add_argument("--out", default=None, help="override output directory")

    def scoring(p):
        common(p)
        p.add_argument("--workers", type=_workers, default=1,
                       help="worker processes for per-sample scoring (>= 1)")
        p.add_argument("--dump-maps", action="store_true",
                       help="write test anomaly maps as F32R")

    p = sub.add_parser("phantom", help="generate a synthetic dataset")
    common(p)
    p.set_defaults(fn=cmd_phantom)

    p = sub.add_parser("run", help="train and evaluate one variant")
    scoring(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("ablate", help="run all four variants")
    scoring(p)
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("iqa", help="compare two F32R rasters")
    p.add_argument("image_a")
    p.add_argument("image_b")
    p.add_argument("--alpha", type=_alpha, default=0.84,
                   help="weight of the SSIM term, in [0, 1]")
    p.add_argument("--window", type=_window, default=5,
                   help="SSIM window size, odd and >= 1")
    p.add_argument("--map", help="write the fusion anomaly map here")
    p.set_defaults(fn=cmd_iqa)

    p = sub.add_parser("stats", help="dataset statistics and flip decision")
    p.add_argument("dataset")
    p.add_argument("--out", help="write the CSV report here")
    p.set_defaults(fn=cmd_stats)
    return ap


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except config.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
