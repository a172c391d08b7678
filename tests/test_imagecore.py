import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from anomap.imagecore import (AnomalyMap, BinaryMask, Image2D, erode,
                              median_filter, window_stats)


def test_binary_mask_requires_2d():
    with pytest.raises(ValueError):
        BinaryMask(np.ones(5, dtype=bool))


def test_image_rejects_non_finite():
    with pytest.raises(ValueError):
        Image2D(np.array([[0.0, np.nan]]))


def test_image_rejects_mismatched_mask():
    with pytest.raises(ValueError):
        Image2D(np.zeros((4, 4)), BinaryMask(np.ones((3, 3), dtype=bool)))


def test_anomaly_map_rejects_negative():
    with pytest.raises(ValueError):
        AnomalyMap(np.array([[-0.1, 0.0]]))


def test_window_stats_matches_direct_computation():
    rng = np.random.default_rng(1)
    x = Image2D(rng.uniform(0, 1, (10, 12)))
    y = Image2D(rng.uniform(0, 1, (10, 12)))
    W = 5
    r = W // 2
    xp = np.pad(x.pixels, r, mode="edge")
    yp = np.pad(y.pixels, r, mode="edge")
    for row, col in [(0, 0), (4, 7), (9, 11), (5, 0)]:
        ws = window_stats(x, y, row, col, W)
        wx = xp[row:row + W, col:col + W]
        wy = yp[row:row + W, col:col + W]
        assert ws.mean_x == pytest.approx(wx.mean(), abs=1e-15)
        assert ws.mean_y == pytest.approx(wy.mean(), abs=1e-15)
        assert ws.var_x == pytest.approx(wx.var(), abs=1e-15)
        assert ws.var_y == pytest.approx(wy.var(), abs=1e-15)
        assert ws.cov_xy == pytest.approx(
            ((wx - wx.mean()) * (wy - wy.mean())).mean(), abs=1e-15)


def test_window_stats_requires_odd_window():
    x = Image2D(np.zeros((6, 6)))
    with pytest.raises(ValueError):
        window_stats(x, x, 0, 0, 4)


def _everywhere(shape):
    return BinaryMask(np.ones(shape, dtype=bool))


def test_median_filter_matches_brute_force():
    rng = np.random.default_rng(2)
    a = rng.uniform(0, 1, (9, 9))
    out = median_filter(AnomalyMap(a), 3, _everywhere(a.shape)).scores
    ap = np.pad(a, 1, mode="edge")
    for i in range(9):
        for j in range(9):
            assert out[i, j] == np.median(ap[i:i + 3, j:j + 3])


def test_median_filter_requires_odd_kernel():
    with pytest.raises(ValueError):
        median_filter(AnomalyMap(np.zeros((4, 4))), 4, _everywhere((4, 4)))
    with pytest.raises(ValueError):
        median_filter(AnomalyMap(np.zeros((4, 4))), 2, _everywhere((4, 4)))


def test_median_filter_requires_region_of_map_shape():
    with pytest.raises(ValueError, match="region"):
        median_filter(AnomalyMap(np.zeros((4, 4))), 3, _everywhere((4, 5)))


def _assert_scipy_median(a, K, bits=None):
    """The region median equals scipy's inside the region and is +0.0
    outside it (everywhere by default)."""
    if bits is None:
        bits = np.ones(a.shape, dtype=bool)
    out = median_filter(AnomalyMap(a), K, BinaryMask(bits)).scores
    ref = np.where(bits, ndimage.median_filter(a, size=K, mode="nearest"), 0.0)
    assert out.shape == a.shape
    assert np.array_equal(out, ref)
    assert np.array_equal(np.signbit(out), np.signbit(ref))


@settings(max_examples=150, deadline=None)
@given(K=st.sampled_from([1, 3, 5, 7]), h=st.integers(1, 40),
       w=st.integers(1, 40), levels=st.sampled_from([0, 2, 3, 7]),
       seed=st.integers(0, 2**32 - 1))
def test_median_filter_equals_scipy(K, h, w, levels, seed):
    # levels > 0 quantises the scores, so most windows hold ties
    a = np.random.default_rng(seed).uniform(0.0, 2.0, (h, w))
    if levels:
        a = np.round(a * levels) / levels
    _assert_scipy_median(a, K)


@st.composite
def _regions(draw, shape):
    """Empty, full, or ragged: each pixel kept with a drawn probability."""
    kind = draw(st.sampled_from(["empty", "full", "ragged"]))
    if kind == "empty":
        return np.zeros(shape, dtype=bool)
    if kind == "full":
        return np.ones(shape, dtype=bool)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.uniform(size=shape) < draw(st.floats(0.0, 1.0))


@settings(max_examples=150, deadline=None)
@given(K=st.sampled_from([1, 3, 5, 7]), h=st.integers(1, 40),
       w=st.integers(1, 40), levels=st.sampled_from([0, 3]),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_region_median_filter_equals_scipy_inside_and_zero_outside(
        K, h, w, levels, seed, data):
    a = np.random.default_rng(seed).uniform(0.0, 2.0, (h, w))
    if levels:
        a = np.round(a * levels) / levels
    _assert_scipy_median(a, K, data.draw(_regions((h, w))))


@pytest.mark.parametrize("K", [1, 3, 5, 7])
@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (6, 2), (15, 40), (16, 5),
                                   (17, 23), (33, 3), (40, 40)])
def test_median_filter_equals_scipy_at_strip_and_kernel_edges(K, shape):
    # heights around multiples of the 16-row strip, sides below K
    rng = np.random.default_rng(K * 100 + shape[0])
    _assert_scipy_median(rng.uniform(0.0, 1.0, shape), K)
    _assert_scipy_median(np.floor(rng.uniform(0.0, 3.0, shape)), K)


def test_erode_zero_iterations_is_identity():
    rng = np.random.default_rng(3)
    m = BinaryMask(rng.uniform(size=(8, 8)) > 0.5)
    out = erode(m, 0)
    assert np.array_equal(out.bits, m.bits)
    assert out.bits is not m.bits  # defensive copy


def test_erode_shrinks_square_by_one_ring():
    m = np.zeros((7, 7), dtype=bool)
    m[1:6, 1:6] = True
    out = erode(BinaryMask(m), 1)
    expect = np.zeros((7, 7), dtype=bool)
    expect[2:5, 2:5] = True
    assert np.array_equal(out.bits, expect)


def test_erode_treats_border_as_background():
    out = erode(BinaryMask(np.ones((5, 5), dtype=bool)), 1)
    expect = np.zeros((5, 5), dtype=bool)
    expect[1:4, 1:4] = True
    assert np.array_equal(out.bits, expect)


def test_erode_rejects_negative_iterations():
    with pytest.raises(ValueError):
        erode(BinaryMask(np.ones((4, 4), dtype=bool)), -1)
