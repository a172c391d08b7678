import numpy as np
import pytest
from dataclasses import replace

from anomap import airprep, phantom
from anomap.phantom import (PROFILES, gen_abnormal, gen_dataset, gen_healthy,
                            profile_with_gap)


def test_same_seed_is_bit_identical():
    a = gen_healthy(4, 64, PROFILES["flair_like"])
    b = gen_healthy(4, 64, PROFILES["flair_like"])
    assert np.array_equal(a.image.pixels, b.image.pixels)
    assert np.array_equal(a.foreground.bits, b.foreground.bits)
    c = gen_abnormal(4, 64, PROFILES["flair_like"])
    d = gen_abnormal(4, 64, PROFILES["flair_like"])
    assert np.array_equal(c.image.pixels, d.image.pixels)
    assert np.array_equal(c.anomaly_gt.bits, d.anomaly_gt.bits)


def test_healthy_foreground_mean_on_target():
    for seed in range(5):
        s = gen_healthy(seed, 64, PROFILES["flair_like"])
        mean = s.image.pixels[s.foreground.bits].mean()
        assert abs(mean - 0.58) < 0.03
        assert mean > 0.5


def test_textureless_profile_is_constant():
    prof = replace(PROFILES["t2_like"], texture_amp=0.0)
    s = gen_healthy(0, 32, prof)
    px, fg = s.image.pixels, s.foreground.bits
    assert np.all(px[fg] == np.clip(prof.mu_normal_target, 1e-6, 1 - 1e-6))
    assert not np.signbit(px[~fg]).any()  # the zero texture has -0.0 entries


def test_healthy_has_empty_ground_truth():
    s = gen_healthy(1, 32, PROFILES["t1ce_like"])
    assert s.anomaly_gt.count() == 0


def test_t2_profile_matches_dark_prior():
    ds = gen_dataset(5, 64, PROFILES["t2_like"], 1, 20, 1)
    st = airprep.dataset_stats(ds.val_abnormal)
    assert 0.0 < st.mu_n < st.mu_a < 0.5


def test_point_radius_lesion_area():
    for r in (4.0, 5.0):
        prof = replace(PROFILES["flair_like"], lesion_radius_range=(r, r),
                       lesion_count_range=(1, 1))
        for seed in range(5):
            s = gen_abnormal(seed, 64, prof)
            area = s.anomaly_gt.count()
            assert abs(area - np.pi * r * r) <= 0.2 * np.pi * r * r


def test_lesions_move_with_the_seed():
    a = gen_abnormal(0, 64, PROFILES["flair_like"])
    b = gen_abnormal(1, 64, PROFILES["flair_like"])
    assert not np.array_equal(a.anomaly_gt.bits, b.anomaly_gt.bits)


def test_ground_truth_inside_foreground():
    for seed in range(5):
        s = gen_abnormal(seed, 64, PROFILES["t2_like"])
        assert not np.any(s.anomaly_gt.bits & ~s.foreground.bits)
        assert s.anomaly_gt.count() > 0


def test_oversized_lesion_spec_rejected():
    prof = replace(PROFILES["flair_like"], lesion_radius_range=(30.0, 30.0),
                   lesion_count_range=(1, 1))
    with pytest.raises(ValueError):
        gen_abnormal(0, 32, prof)


def test_one_distance_transform_per_abnormal_sample(monkeypatch):
    # the foreground is fixed per sample, so every placement attempt reads
    # one distance transform, even when all 100 attempts are rejected
    calls = []
    edt = phantom.ndimage.distance_transform_edt

    def counting(*args, **kwargs):
        calls.append(1)
        return edt(*args, **kwargs)

    monkeypatch.setattr(phantom.ndimage, "distance_transform_edt", counting)
    prof = replace(PROFILES["flair_like"], lesion_count_range=(3, 3))
    for seed in range(4):
        calls.clear()
        gen_abnormal(seed, 64, prof)
        assert len(calls) == 1
    oversized = replace(prof, lesion_radius_range=(30.0, 30.0))
    calls.clear()
    with pytest.raises(ValueError):
        gen_abnormal(0, 32, oversized)
    assert len(calls) == 1


def test_dataset_counts_and_unique_ids():
    ds = gen_dataset(7, 64, PROFILES["flair_like"], 5, 3, 4)
    assert len(ds.train_healthy) == 5
    assert len(ds.val_abnormal) == 3
    assert len(ds.test_abnormal) == 4
    ids = [s.id for s in ds.all_samples()]
    assert len(set(ids)) == len(ids)


def test_dataset_same_seed_identical():
    a = gen_dataset(9, 64, PROFILES["t2_like"], 2, 2, 2)
    b = gen_dataset(9, 64, PROFILES["t2_like"], 2, 2, 2)
    for sa, sb in zip(a.all_samples(), b.all_samples()):
        assert sa.id == sb.id
        assert np.array_equal(sa.image.pixels, sb.image.pixels)


def test_val_and_test_statistics_agree():
    ds = gen_dataset(11, 64, PROFILES["t2_like"], 1, 10, 10)
    sv = airprep.dataset_stats(ds.val_abnormal)
    st = airprep.dataset_stats(ds.test_abnormal)
    assert abs(sv.mu_n - st.mu_n) < 0.05
    assert abs(sv.mu_a - st.mu_a) < 0.05


def test_measured_air_increases_with_lesion_gap():
    prev = None
    for gap in (0.05, 0.10, 0.15, 0.20, 0.25):
        prof = profile_with_gap("flair_like", gap)
        ds = gen_dataset(3, 64, prof, 1, 10, 1)
        a = airprep.air(airprep.dataset_stats(ds.val_abnormal))
        if prev is not None:
            assert a > prev
        prev = a


def test_profile_with_gap_direction():
    bright = profile_with_gap("flair_like", 0.1)
    assert bright.mu_lesion_target == pytest.approx(0.68, abs=1e-12)
    dark = profile_with_gap("t2_like", 0.1)
    assert dark.mu_lesion_target == pytest.approx(0.40, abs=1e-12)


def test_small_size_rejected():
    with pytest.raises(ValueError):
        gen_healthy(0, 16, PROFILES["t2_like"])
    with pytest.raises(ValueError):
        gen_dataset(0, 64, PROFILES["t2_like"], 0, 1, 1)
