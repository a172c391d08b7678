import numpy as np
import pytest

from anomap import phantom
from anomap.airprep import (DatasetStats, air, apply, dataset_stats, decide,
                            stats_csv, verify_air_monotone)
from anomap.imagecore import BinaryMask, Image2D
from anomap.phantom import LabeledSample


def _two_level_sample(lo=0.3, hi=0.7, sid="s0"):
    px = np.zeros((8, 8))
    px[:, :4] = lo
    px[:, 4:] = hi
    fg = BinaryMask(np.ones((8, 8), dtype=bool))
    gt = np.zeros((8, 8), dtype=bool)
    gt[:, 4:] = True
    return LabeledSample(sid, Image2D(px, fg), BinaryMask(gt))


def test_stats_two_level_image():
    st = dataset_stats([_two_level_sample()])
    assert st.mu_n == pytest.approx(0.3, abs=1e-15)
    assert st.mu_a == pytest.approx(0.7, abs=1e-15)
    assert st.n_pixels_normal == 32
    assert st.n_pixels_anomalous == 32


def test_stats_pool_by_pixel_count():
    samples = [_two_level_sample(0.2, 0.8, "a"), _two_level_sample(0.4, 0.6, "b")]
    st = dataset_stats(samples)
    # flat concatenation oracle
    normal, anom = [], []
    for s in samples:
        fg, gt = s.foreground.bits, s.anomaly_gt.bits
        normal.append(s.image.pixels[fg & ~gt])
        anom.append(s.image.pixels[gt])
    assert st.mu_n == pytest.approx(np.concatenate(normal).mean(), abs=1e-12)
    assert st.mu_a == pytest.approx(np.concatenate(anom).mean(), abs=1e-12)


def test_stats_require_anomalous_pixels():
    healthy = phantom.gen_healthy(0, 32, phantom.PROFILES["t2_like"])
    with pytest.raises(ValueError):
        dataset_stats([healthy])


def test_air_arithmetic_and_symmetry():
    assert air(DatasetStats(0.6, 0.8, 1, 1)) == pytest.approx(0.8 / 0.6, rel=1e-12)
    assert air(DatasetStats(0.8, 0.6, 1, 1)) == pytest.approx(0.8 / 0.6, rel=1e-12)
    assert air(DatasetStats(0.5, 0.5, 1, 1)) == 1.0
    with pytest.raises(ValueError):
        air(DatasetStats(0.0, 0.5, 1, 1))


def test_decide_threshold_and_boundary():
    assert decide(DatasetStats(0.55, 0.7, 1, 1)) is True
    assert decide(DatasetStats(0.35, 0.45, 1, 1)) is False
    assert decide(DatasetStats(0.5, 0.9, 1, 1)) is False


def test_apply_identity_is_bit_exact():
    s = _two_level_sample()
    d = decide(DatasetStats(0.3, 0.7, 1, 1))
    assert apply(s.image, d) is s.image


def test_apply_flips_foreground_only():
    bits = np.zeros((8, 8), dtype=bool)
    bits[2:6, 2:6] = True
    px = np.zeros((8, 8))
    px[bits] = 0.3
    img = Image2D(px, BinaryMask(bits))
    d = decide(DatasetStats(0.6, 0.8, 1, 1))
    out = apply(img, d)
    assert np.all(out.pixels[bits] == pytest.approx(0.7, abs=1e-15))
    assert np.all(out.pixels[~bits] == 0.0)
    # involution
    back = apply(out, d)
    assert np.allclose(back.pixels, img.pixels, atol=1e-15)


def test_apply_rejects_unnormalized_input():
    d = decide(DatasetStats(0.6, 0.8, 1, 1))
    with pytest.raises(ValueError):
        apply(Image2D(np.full((4, 4), 1.5)), d)


def test_stats_after_flip_are_reflected():
    ds = phantom.gen_dataset(3, 64, phantom.PROFILES["flair_like"], 1, 6, 1)
    st = dataset_stats(ds.val_abnormal)
    d = decide(st)
    assert d
    flipped = [LabeledSample(s.id, apply(s.image, d), s.anomaly_gt)
               for s in ds.val_abnormal]
    st2 = dataset_stats(flipped)
    assert st2.mu_n == pytest.approx(1.0 - st.mu_n, abs=1e-12)
    assert st2.mu_a == pytest.approx(1.0 - st.mu_a, abs=1e-12)


def test_monotone_report_flip_case():
    rep = verify_air_monotone(DatasetStats(0.6, 0.8, 1, 1))
    assert rep.air_before == pytest.approx(4.0 / 3.0, rel=1e-12)
    assert rep.air_after == pytest.approx(2.0, rel=1e-12)
    assert rep.holds


def test_monotone_report_identity_case():
    rep = verify_air_monotone(DatasetStats(0.3, 0.45, 1, 1))
    assert rep.air_after == rep.air_before
    assert rep.holds


def test_monotone_preconditions():
    with pytest.raises(ValueError):
        verify_air_monotone(DatasetStats(0.8, 0.6, 1, 1))
    with pytest.raises(ValueError):
        verify_air_monotone(DatasetStats(0.5, 1.2, 1, 1))


def test_stats_csv_layout():
    text = stats_csv(DatasetStats(0.6, 0.8, 10, 5))
    lines = text.splitlines()
    assert lines[0] == "mu_n,mu_a,air_before,air_after,flip"
    mu_n, mu_a, before, after, flip = lines[1].split(",")
    assert float(mu_n) == 0.6
    assert float(mu_a) == 0.8
    assert float(before) == pytest.approx(4.0 / 3.0, rel=1e-10)
    assert float(after) == pytest.approx(2.0, rel=1e-10)
    assert flip == "1"


def test_stats_csv_names_the_mean_that_is_not_positive():
    with pytest.raises(ValueError, match="^AIR undefined: normal mean mu_n = "
                                         "0 is not positive$"):
        stats_csv(DatasetStats(0.0, 0.4, 10, 5))
    # all-white normal tissue: the flip takes its mean to 0
    with pytest.raises(ValueError, match="^AIR undefined: normal mean mu_n = "
                                         "0 is not positive after the flip$"):
        stats_csv(DatasetStats(1.0, 0.8, 10, 5))
