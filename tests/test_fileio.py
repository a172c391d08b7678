import re

import numpy as np
import pytest

from anomap import cli, datasetio, fileio, phantom
from anomap.imagecore import BinaryMask


def test_f32r_roundtrip_is_exact_for_float32_values(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.uniform(0, 1, (13, 17)).astype(np.float32).astype(np.float64)
    path = tmp_path / "a.f32r"
    fileio.write_f32r(path, arr)
    back = fileio.read_f32r(path)
    assert back.dtype == np.float64
    assert np.array_equal(back, arr)


def test_f32r_header_records_dimensions(tmp_path):
    path = tmp_path / "b.f32r"
    fileio.write_f32r(path, np.zeros((3, 5)))
    header = path.read_bytes().split(b"\n", 1)[0]
    assert header == b"F32R 5 3"


def test_f32r_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.f32r"
    path.write_bytes(b"NOPE 2 2\n" + b"\x00" * 16)
    with pytest.raises(ValueError):
        fileio.read_f32r(path)


def test_f32r_rejects_truncated_payload(tmp_path):
    path = tmp_path / "short.f32r"
    path.write_bytes(b"F32R 4 4\n" + b"\x00" * 10)
    with pytest.raises(ValueError):
        fileio.read_f32r(path)


def _raw_f32r(path, a):
    """An F32R file of ``a``'s bits, non-finite ones included, which
    write_f32r refuses to write."""
    h, w = a.shape
    path.write_bytes(f"F32R {w} {h}\n".encode("ascii")
                     + np.asarray(a, "<f4").tobytes())


@pytest.mark.parametrize("bad, shown", [(1e39, "1e+39"), (-1e39, "-1e+39"),
                                        (np.nan, "nan")])
def test_f32r_writer_rejects_what_its_reader_rejects(tmp_path, bad, shown):
    a = np.full((3, 4), 0.5)
    a[1, 2] = bad
    path = tmp_path / "w.f32r"
    with pytest.raises(ValueError, match=re.escape(
            f"w.f32r: pixel {shown} at row 1, column 2 is not a finite float32")):
        fileio.write_f32r(path, a)
    assert not path.exists()


def test_f32r_in_range_float64_round_trips_as_float32(tmp_path):
    a = np.array([[0.1, -2.5e30, 3.4e38], [1e-50, 7.0, -0.0]])
    path = tmp_path / "r.f32r"
    fileio.write_f32r(path, a)
    back = fileio.read_f32r(path)
    assert np.array_equal(back, a.astype(np.float32).astype(np.float64))
    assert np.array_equal(np.signbit(back), np.signbit(a))


def test_f32r_rejects_non_2d():
    with pytest.raises(ValueError):
        fileio.write_f32r("/dev/null", np.zeros(8))


@pytest.mark.parametrize("write, name, shown", [
    (lambda path: fileio.write_f32r(path, np.zeros((0, 5))), "e.f32r",
     "F32R raster is 5x0 px"),
    (lambda path: fileio.write_f32r(path, np.zeros((3, 0))), "e.f32r",
     "F32R raster is 0x3 px"),
    (lambda path: fileio.write_pgm_mask(path, BinaryMask(np.zeros((3, 0)))),
     "e.pgm", "PGM raster is 0x3 px"),
], ids=["f32r_no_rows", "f32r_no_columns", "pgm_no_columns"])
def test_writers_reject_empty_rasters_their_readers_reject(tmp_path, write,
                                                           name, shown):
    path = tmp_path / name
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {shown}')}; "
                       "width and height must be >= 1$"):
        write(path)
    assert not path.exists()


def test_pgm_mask_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    mask = BinaryMask(rng.uniform(size=(11, 7)) > 0.5)
    path = tmp_path / "m.pgm"
    fileio.write_pgm_mask(path, mask)
    back = fileio.read_pgm_mask(path)
    assert np.array_equal(back.bits, mask.bits)


def test_pgm_reader_skips_comments(tmp_path):
    path = tmp_path / "c.pgm"
    payload = bytes([255, 0, 0, 255])
    path.write_bytes(b"P5\n# a comment\n2 2\n255\n" + payload)
    back = fileio.read_pgm_mask(path)
    assert np.array_equal(back.bits, [[True, False], [False, True]])


def test_pgm_reader_rejects_wrong_magic_and_maxval(tmp_path):
    p1 = tmp_path / "p2.pgm"
    p1.write_bytes(b"P2\n2 2\n255\n....")
    with pytest.raises(ValueError):
        fileio.read_pgm_mask(p1)
    p2 = tmp_path / "maxval.pgm"
    p2.write_bytes(b"P5\n2 2\n65535\n" + b"\x00" * 8)
    with pytest.raises(ValueError):
        fileio.read_pgm_mask(p2)


def test_dataset_roundtrip(tmp_path):
    ds = phantom.gen_dataset(2, 32, phantom.PROFILES["t2_like"], 2, 2, 2)
    datasetio.save_dataset(ds, tmp_path)
    rows = (tmp_path / "dataset.tsv").read_text(encoding="utf-8").splitlines()
    assert rows == [f"{s.id}\t{split}" for split, samples in
                    zip(datasetio.SPLITS, (ds.train_healthy, ds.val_abnormal,
                                           ds.test_abnormal))
                    for s in samples]
    back = datasetio.load_dataset(tmp_path)
    for orig, loaded in zip(ds.all_samples(), back.all_samples()):
        assert loaded.id == orig.id
        # images pass through float32 storage
        assert np.array_equal(
            loaded.image.pixels,
            orig.image.pixels.astype(np.float32).astype(np.float64))
        assert np.array_equal(loaded.foreground.bits, orig.foreground.bits)
        assert np.array_equal(loaded.anomaly_gt.bits, orig.anomaly_gt.bits)


def test_load_dataset_ignores_a_third_manifest_column(tmp_path):
    s = _saved_dataset(tmp_path)
    manifest = tmp_path / "dataset.tsv"
    rows = manifest.read_text(encoding="utf-8").splitlines()
    manifest.write_text("".join(f"{r}\tno_such_profile\n" for r in rows),
                        encoding="utf-8")
    (loaded,) = datasetio.load_dataset(tmp_path).val_abnormal
    assert loaded.id == s.id
    assert np.array_equal(loaded.image.pixels, s.image.pixels.astype(np.float32))


def test_load_dataset_rejects_a_four_column_line(tmp_path):
    s = _saved_dataset(tmp_path)
    manifest = tmp_path / "dataset.tsv"
    rows = manifest.read_text(encoding="utf-8").splitlines()
    line = 1 + next(i for i, r in enumerate(rows) if r.startswith(f"{s.id}\t"))
    rows[line - 1] += "\tflair_like\textra"
    manifest.write_text("\n".join(rows) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{manifest}:{line}: ')}"
                                         ".*got 4 fields$"):
        datasetio.load_dataset(tmp_path)


def test_load_dataset_requires_manifest(tmp_path):
    with pytest.raises(FileNotFoundError):
        datasetio.load_dataset(tmp_path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_f32r_rejects_non_finite_pixel(tmp_path, bad):
    a = np.zeros((3, 4), dtype=np.float32)
    a[2, 1] = bad
    path = tmp_path / "nf.f32r"
    _raw_f32r(path, a)
    with pytest.raises(ValueError, match=r"nf\.f32r: non-finite pixel .* row 2, column 1"):
        fileio.read_f32r(path)


def test_pgm_reader_rejects_non_binary_byte(tmp_path):
    path = tmp_path / "gray.pgm"
    path.write_bytes(b"P5\n3 2\n255\n" + bytes([0, 255, 0, 255, 128, 0]))
    with pytest.raises(ValueError, match=r"gray\.pgm: mask byte 128 at row 1, column 1"):
        fileio.read_pgm_mask(path)


def _saved_dataset(tmp_path):
    ds = phantom.gen_dataset(4, 32, phantom.PROFILES["t2_like"], 1, 1, 1)
    datasetio.save_dataset(ds, tmp_path)
    return ds.val_abnormal[0]


@pytest.mark.parametrize("suffix", ["fg", "gt"])
def test_load_dataset_rejects_mask_shape_mismatch(tmp_path, suffix):
    s = _saved_dataset(tmp_path)
    path = tmp_path / "val" / f"{s.id}.{suffix}.pgm"
    fileio.write_pgm_mask(path, BinaryMask(np.ones((32, 31), dtype=bool)))
    with pytest.raises(ValueError, match=re.escape(
            f"{s.id}.{suffix}.pgm: mask is 31x32, its image is 32x32")):
        datasetio.load_dataset(tmp_path)


def test_load_dataset_names_a_ground_truth_outside_the_foreground(tmp_path,
                                                                  capsys):
    s = _saved_dataset(tmp_path)
    path = tmp_path / "val" / f"{s.id}.gt.pgm"
    fileio.write_pgm_mask(path, BinaryMask(np.ones((32, 32), dtype=bool)))
    expect = f"{path}: anomaly ground truth must lie inside foreground"
    with pytest.raises(ValueError, match=f"^{re.escape(expect)}$"):
        datasetio.load_dataset(tmp_path)
    assert cli.main(["stats", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {expect}\n"


def test_load_dataset_rejects_non_binary_mask(tmp_path):
    s = _saved_dataset(tmp_path)
    path = tmp_path / "val" / f"{s.id}.gt.pgm"
    raw = bytearray(path.read_bytes())
    raw[-1] = 1
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=re.escape(
            f"{s.id}.gt.pgm: mask byte 1 at row 31, column 31 is neither 0 nor 255")):
        datasetio.load_dataset(tmp_path)


def test_load_dataset_rejects_non_finite_image(tmp_path):
    s = _saved_dataset(tmp_path)
    path = tmp_path / "val" / f"{s.id}.f32r"
    px = s.image.pixels.copy()
    px[0, 3] = np.nan
    _raw_f32r(path, px)
    with pytest.raises(ValueError, match=re.escape(
            f"{s.id}.f32r: non-finite pixel nan at row 0, column 3")):
        datasetio.load_dataset(tmp_path)


@pytest.mark.parametrize("header, message", [
    (b"F32R a b\n", "F32R header fields 'a b' must be integers"),
    (b"F32R 0 0\n", "F32R raster is 0x0 px; width and height must be >= 1"),
], ids=["non_numeric", "empty"])
def test_f32r_rejects_bad_header_dimensions(tmp_path, header, message):
    path = tmp_path / "h.f32r"
    path.write_bytes(header)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
        fileio.read_f32r(path)


@pytest.mark.parametrize("header, message", [
    (b"P5\n4", "truncated PGM header"),
    (b"P5\n4 x\n255\n", "PGM header fields '4 x 255' must be integers"),
    (b"P5\n0 0\n255\n", "PGM raster is 0x0 px; width and height must be >= 1"),
], ids=["truncated", "non_numeric", "empty"])
def test_pgm_reader_rejects_bad_header_dimensions(tmp_path, header, message):
    path = tmp_path / "h.pgm"
    path.write_bytes(header)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
        fileio.read_pgm_mask(path)


@pytest.mark.parametrize("split", ["val", "test"], ids=["same_split",
                                                        "across_splits"])
def test_load_dataset_rejects_a_repeated_sample_id(tmp_path, split):
    s = _saved_dataset(tmp_path)
    for suffix in ("f32r", "fg.pgm", "gt.pgm"):
        src = tmp_path / "val" / f"{s.id}.{suffix}"
        (tmp_path / split / src.name).write_bytes(src.read_bytes())
    manifest = tmp_path / "dataset.tsv"
    lines = manifest.read_text(encoding="utf-8").splitlines(keepends=True)
    first = 1 + next(i for i, line in enumerate(lines)
                     if line.startswith(f"{s.id}\t"))
    manifest.write_text("".join(lines) + f"{s.id}\t{split}\n",
                        encoding="utf-8")
    expect = (f"{manifest}:{len(lines) + 1}: sample id {s.id!r} "
              f"repeats line {first}")
    with pytest.raises(ValueError, match=f"^{re.escape(expect)}$"):
        datasetio.load_dataset(tmp_path)
