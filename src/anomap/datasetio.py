"""Dataset directory layout: per-split F32R rasters plus PGM masks.

Layout::

    <root>/dataset.tsv          # id <tab> split [<tab> ignored]
    <root>/<split>/<id>.f32r    # image
    <root>/<split>/<id>.fg.pgm  # foreground mask
    <root>/<split>/<id>.gt.pgm  # anomaly ground truth

Each id is listed once, both masks have their image's dimensions and the
ground truth lies inside the foreground; :func:`load_dataset` names the
manifest line or the file that does not.  :func:`save_dataset` writes two
columns; a third, which older datasets carry (a modality profile name), is
accepted and ignored.
"""

from __future__ import annotations

from pathlib import Path

from . import fileio
from .imagecore import BinaryMask, Image2D
from .phantom import Dataset, LabeledSample

SPLITS = ("train", "val", "test")


def save_dataset(ds: Dataset, root) -> None:
    root = Path(root)
    rows = []
    for split, samples in zip(SPLITS, (ds.train_healthy, ds.val_abnormal,
                                       ds.test_abnormal)):
        d = fileio.ensure_dir(root / split)
        for s in samples:
            fileio.write_f32r(d / f"{s.id}.f32r", s.image.pixels)
            fileio.write_pgm_mask(d / f"{s.id}.fg.pgm", s.foreground)
            fileio.write_pgm_mask(d / f"{s.id}.gt.pgm", s.anomaly_gt)
            rows.append(f"{s.id}\t{split}\n")
    with open(root / "dataset.tsv", "w", encoding="utf-8") as f:
        f.writelines(rows)


def _read_mask(path, shape) -> BinaryMask:
    mask = fileio.read_pgm_mask(path)
    if mask.bits.shape != shape:
        raise ValueError(f"{path}: mask is {mask.width}x{mask.height}, its "
                         f"image is {shape[1]}x{shape[0]}")
    return mask


def load_dataset(root) -> Dataset:
    root = Path(root)
    manifest = root / "dataset.tsv"
    if not manifest.exists():
        raise FileNotFoundError(f"{manifest}: dataset manifest not found")
    by_split = {s: [] for s in SPLITS}
    first_line = {}  # sample id -> the manifest line that listed it
    with open(manifest, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) not in (2, 3):
                raise ValueError(f"{manifest}:{lineno}: expected 'id<TAB>split' "
                                 "or 'id<TAB>split<TAB>ignored', got "
                                 f"{len(parts)} fields")
            sid, split = parts[:2]
            if split not in by_split:
                raise ValueError(f"{manifest}:{lineno}: unknown split {split!r}")
            if sid in first_line:
                raise ValueError(f"{manifest}:{lineno}: sample id {sid!r} "
                                 f"repeats line {first_line[sid]}")
            first_line[sid] = lineno
            d = root / split
            img = fileio.read_f32r(d / f"{sid}.f32r")
            fg = _read_mask(d / f"{sid}.fg.pgm", img.shape)
            gt = _read_mask(d / f"{sid}.gt.pgm", img.shape)
            image = Image2D(img, fg)
            try:
                by_split[split].append(LabeledSample(sid, image, gt))
            except ValueError as exc:  # the lesion leaves the foreground
                raise ValueError(f"{d / sid}.gt.pgm: {exc}") from None
    return Dataset(by_split["train"], by_split["val"], by_split["test"])
