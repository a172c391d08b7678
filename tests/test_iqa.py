import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from anomap import iqa
from anomap.imagecore import BinaryMask, Image2D, window_stats
from anomap.iqa import (FusionParams, SsimParams, fusion_anomaly_map,
                        fusion_loss, fusion_loss_and_grad, fusion_loss_grad,
                        l1_loss, ssim_loss, ssim_map)
from anomap.simplex import octave_grid


def _rand_pair(seed, shape=(12, 12)):
    rng = np.random.default_rng(seed)
    return (Image2D(rng.uniform(0, 1, shape)),
            Image2D(rng.uniform(0, 1, shape)))


def test_ssim_identity_is_exactly_one():
    for seed in range(5):
        x, _ = _rand_pair(seed)
        assert np.all(ssim_map(x, x) == 1.0)


def test_ssim_constant_images_closed_form():
    p = SsimParams()
    x = Image2D(np.zeros((8, 8)))
    y = Image2D(np.ones((8, 8)))
    expect = p.C1 * p.C2 / ((1.0 + p.C1) * p.C2)
    assert np.all(np.abs(ssim_map(x, y, p) - expect) < 1e-12)


def test_ssim_map_matches_per_window_stats():
    p = SsimParams()
    x, y = _rand_pair(7)
    smap = ssim_map(x, y, p)
    for row, col in [(0, 0), (3, 5), (11, 11), (6, 0)]:
        ws = window_stats(x, y, row, col, p.W)
        num = (2 * ws.mean_x * ws.mean_y + p.C1) * (2 * ws.cov_xy + p.C2)
        den = ((ws.mean_x ** 2 + ws.mean_y ** 2 + p.C1)
               * (ws.var_x + ws.var_y + p.C2))
        assert smap[row, col] == pytest.approx(num / den, abs=1e-12)


def test_ssim_symmetry():
    x, y = _rand_pair(10)
    assert np.allclose(ssim_map(x, y), ssim_map(y, x), atol=1e-14)


@st.composite
def _ssim_pairs(draw):
    """Image pairs from 1 x 1 up, constant or not, equal or nearly equal,
    with windows up to wider than the image."""
    shape = (draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def image():
        kind = draw(st.sampled_from(["uniform", "constant", "levels"]))
        if kind == "constant":
            return np.full(shape, draw(st.floats(0.0, 1.0)))
        a = rng.uniform(0.0, 1.0, shape)
        return np.round(a * 2) / 2 if kind == "levels" else a

    x = image()
    y = draw(st.sampled_from([
        lambda: x.copy(),
        lambda: x + rng.normal(0.0, 1e-9, shape),
        image,
    ]))()
    W = draw(st.integers(0, 12)) * 2 + 1
    return Image2D(x), Image2D(y), SsimParams(W=W)


# The covariance and variances are differences of box means, so on nearly
# equal images 2 cov can exceed var_x + var_y by rounding; the excess over 1
# stays below about 1e-12 (relative to the stability constant C2).
SSIM_ROUNDING = 1e-9


@settings(max_examples=300, deadline=None)
@given(_ssim_pairs())
def test_ssim_is_symmetric_and_within_minus_one_one(pair):
    x, y, p = pair
    smap = ssim_map(x, y, p)
    assert smap.shape == x.pixels.shape
    assert np.array_equal(smap, ssim_map(y, x, p))
    assert np.all(np.abs(smap) <= 1.0 + SSIM_ROUNDING)


def test_ssim_params_validation():
    with pytest.raises(ValueError):
        SsimParams(W=4)
    with pytest.raises(ValueError):
        SsimParams(C1=0.0)
    with pytest.raises(ValueError):
        FusionParams(alpha=1.5)


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        ssim_map(Image2D(np.zeros((4, 4))), Image2D(np.zeros((5, 5))))


def test_l1_uniform_bias():
    x, _ = _rand_pair(11)
    for c in (0.01, 0.05, 0.1, 0.2):
        y = Image2D(x.pixels + c)
        assert l1_loss(x, y) == pytest.approx(c, abs=1e-12)


def test_losses_respect_mask():
    x, y = _rand_pair(12)
    bits = np.zeros((12, 12), dtype=bool)
    bits[2:6, 3:9] = True
    mask = BinaryMask(bits)
    assert l1_loss(x, y, mask) == pytest.approx(
        np.abs(x.pixels - y.pixels)[bits].mean(), abs=1e-15)
    assert ssim_loss(x, y, mask=mask) == pytest.approx(
        (1.0 - ssim_map(x, y)[bits].mean()) / 2.0, abs=1e-15)


def test_empty_mask_rejected():
    x, y = _rand_pair(13)
    with pytest.raises(ValueError):
        l1_loss(x, y, BinaryMask(np.zeros((12, 12), dtype=bool)))


def test_fusion_blend():
    x, y = _rand_pair(14)
    p, f = SsimParams(), FusionParams(alpha=0.84)
    expect = 0.84 * ssim_loss(x, y, p) + 0.16 * l1_loss(x, y)
    assert fusion_loss(x, y, p, f) == pytest.approx(expect, abs=1e-15)
    assert fusion_loss(x, y, p, FusionParams(alpha=0.0)) == pytest.approx(
        l1_loss(x, y), abs=1e-15)
    assert fusion_loss(x, y, p, FusionParams(alpha=1.0)) == pytest.approx(
        ssim_loss(x, y, p), abs=1e-15)


def test_anomaly_map_is_per_pixel_blend():
    x, y = _rand_pair(15)
    p, f = SsimParams(), FusionParams(alpha=0.84)
    amap = fusion_anomaly_map(x, y, p, f)
    expect = (0.84 * (1.0 - ssim_map(x, y, p)) / 2.0
              + 0.16 * np.abs(x.pixels - y.pixels))
    assert np.allclose(amap.scores, expect, atol=1e-14)
    assert np.all(amap.scores >= 0.0)


def test_darkened_block_scores_higher_and_ssim_widens_the_gap():
    # A smooth textured patch with a 4x4 block darkened by a constant step:
    # the in-block mean score exceeds the out-of-block mean, and the gap is
    # strictly larger with the default blend than with the pure-intensity one
    # (the block boundary disrupts local structure on top of the level shift).
    for seed in range(5):
        tex = octave_grid(seed, 16, 16, 2, 0.5, 8.0)
        tex = 0.5 + 0.02 * (tex - tex.mean()) / tex.std()
        base = np.clip(tex, 0.0, 1.0)
        dark = base.copy()
        dark[6:10, 6:10] -= 0.05
        x = Image2D(base)
        y = Image2D(np.clip(dark, 0.0, 1.0))
        block = np.zeros((16, 16), dtype=bool)
        block[6:10, 6:10] = True
        gaps = {}
        for alpha in (0.84, 0.0):
            m = fusion_anomaly_map(x, y, f=FusionParams(alpha=alpha)).scores
            gaps[alpha] = m[block].mean() - m[~block].mean()
        assert gaps[0.84] > 0.0
        assert gaps[0.84] > gaps[0.0]


def test_gradient_matches_finite_differences_spot_check():
    rng = np.random.default_rng(16)
    x = Image2D(rng.uniform(0, 1, (8, 8)))
    y0 = rng.uniform(0, 1, (8, 8))
    p, f = SsimParams(), FusionParams()
    g = fusion_loss_grad(x, Image2D(y0), p, f)
    h = 1e-4
    for i, j in [(0, 0), (3, 4), (7, 7), (5, 1)]:
        yp = y0.copy(); yp[i, j] += h
        ym = y0.copy(); ym[i, j] -= h
        fd = (fusion_loss(x, Image2D(yp), p, f)
              - fusion_loss(x, Image2D(ym), p, f)) / (2 * h)
        assert abs(g[i, j] - fd) <= 1e-4 * max(abs(fd), 1e-8)


def test_gradient_zero_at_identity():
    x, _ = _rand_pair(17)
    g = fusion_loss_grad(x, x)
    # at y = x the SSIM term is at its maximum and |x - y| is at its kink;
    # both contribute zero gradient under the stated conventions
    assert np.all(np.abs(g) < 1e-10)


# --- exactness of the one-pass loss and gradient -------------------------

def _add_at_fold(g_pad, H, Wd, r):
    """Reference fold: unbuffered scatter-add of every padded position."""
    src_r = np.clip(np.arange(H + 2 * r) - r, 0, H - 1)
    src_c = np.clip(np.arange(Wd + 2 * r) - r, 0, Wd - 1)
    grad = np.zeros((H, Wd))
    rr, cc = np.meshgrid(src_r, src_c, indexing="ij")
    np.add.at(grad, (rr, cc), g_pad)
    return grad


def _reference_grad(x, y, p, f, bits):
    """The gradient computed map by map, with the scatter-add fold."""
    xa, ya = x.pixels, y.pixels
    H, Wd = xa.shape
    W = p.W
    r = W // 2
    n = W * W
    K = int(bits.sum())
    mx, my, vx, vy, cov = iqa._window_moments(xa, ya, W)
    A1 = 2.0 * mx * my + p.C1
    A2 = 2.0 * cov + p.C2
    B1 = mx * mx + my * my + p.C1
    B2 = vx + vy + p.C2
    d_mu = 2.0 * A2 * (mx * B1 - my * A1) / (B1 * B1 * B2)
    d_var = -A1 * A2 / (B1 * B2 * B2)
    d_cov = 2.0 * A1 / (B1 * B2)
    scale = -f.alpha / (2.0 * K)
    c_mu = np.where(bits, scale * d_mu, 0.0)
    c_var = np.where(bits, scale * d_var, 0.0)
    c_cov = np.where(bits, scale * d_cov, 0.0)

    def center_boxsum(c):
        emb = np.zeros((H + 2 * r, Wd + 2 * r))
        emb[r:r + H, r:r + Wd] = c
        return ndimage.uniform_filter(emb, size=W, mode="constant", cval=0.0) * n

    xp = np.pad(xa, r, mode="edge")
    yp = np.pad(ya, r, mode="edge")
    g_pad = (center_boxsum(c_mu)
             + 2.0 * (yp * center_boxsum(c_var) - center_boxsum(c_var * my))
             + (xp * center_boxsum(c_cov) - center_boxsum(c_cov * mx))) / n
    grad = _add_at_fold(g_pad, H, Wd, r)
    grad[bits] += (1.0 - f.alpha) * np.sign(ya - xa)[bits] / K
    return grad


@st.composite
def _loss_inputs(draw):
    H = draw(st.integers(1, 12))
    Wd = draw(st.integers(1, 12))
    W = draw(st.sampled_from([1, 3, 5, 7, 9, 11]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    bits = rng.uniform(size=(H, Wd)) < draw(st.floats(0.05, 1.0))
    bits.flat[draw(st.integers(0, H * Wd - 1))] = True
    x = rng.uniform(0, 1, (H, Wd))
    y = rng.uniform(0, 1, (H, Wd))
    if draw(st.booleans()):  # ties, where the L1 kink has zero gradient
        same = rng.uniform(size=(H, Wd)) < 0.3
        y[same] = x[same]
    return (Image2D(x), Image2D(y), SsimParams(W=W),
            FusionParams(draw(st.sampled_from([0.0, 0.84, 1.0]))), BinaryMask(bits))


@settings(max_examples=200, deadline=None)
@given(H=st.integers(1, 12), Wd=st.integers(1, 12),
       W=st.sampled_from([1, 3, 5, 7, 9, 11]), seed=st.integers(0, 2 ** 32 - 1))
def test_fold_equals_scatter_add(H, Wd, W, seed):
    r = W // 2
    g_pad = np.random.default_rng(seed).normal(size=(H + 2 * r, Wd + 2 * r))
    assert np.array_equal(iqa._fold_replicated(g_pad, H, Wd, r),
                          _add_at_fold(g_pad, H, Wd, r))


@pytest.mark.parametrize("shape", [(1, 9), (9, 1), (2, 2), (1, 1), (2, 7)])
@pytest.mark.parametrize("W", [1, 3, 5, 7, 9, 11])
def test_fold_on_thin_images_and_wide_windows(shape, W):
    H, Wd = shape
    r = W // 2
    g_pad = np.random.default_rng(H * 100 + Wd * 10 + W).normal(
        size=(H + 2 * r, Wd + 2 * r))
    assert np.array_equal(iqa._fold_replicated(g_pad, H, Wd, r),
                          _add_at_fold(g_pad, H, Wd, r))


@settings(max_examples=200, deadline=None)
@given(_loss_inputs())
def test_loss_and_grad_equal_the_separate_computations(args):
    x, y, p, f, mask = args
    loss, grad = fusion_loss_and_grad(x, y, p, f, mask)
    assert loss == fusion_loss(x, y, p, f, mask)
    assert np.array_equal(grad, _reference_grad(x, y, p, f, mask.bits))
    assert np.array_equal(fusion_loss_grad(x, y, p, f, mask), grad)


@st.composite
def _map_inputs(draw):
    H, Wd = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["uniform", "constant", "binary", "equal"]))
    x = rng.uniform(0, 1, (H, Wd))
    y = rng.uniform(0, 1, (H, Wd))
    if kind == "constant":      # zero variance in every window
        x[:], y[:] = x[0, 0], y[0, 0]
    elif kind == "binary":      # extreme contrast: SSIM near -1
        x, y = np.round(x), 1.0 - np.round(x)
    elif kind == "equal":       # SSIM exactly 1 up to rounding
        y = x.copy()
    return (Image2D(x), Image2D(y),
            SsimParams(W=draw(st.sampled_from([1, 3, 5, 7, 11, 21]))),
            FusionParams(draw(st.sampled_from([0.0, 0.3, 0.84, 1.0]))))


@settings(max_examples=200, deadline=None)
@given(_map_inputs())
def test_fusion_anomaly_map_is_never_negative(args):
    x, y, p, f = args
    scores = fusion_anomaly_map(x, y, p, f).scores
    assert scores.shape == x.pixels.shape
    assert np.all(scores >= 0.0)
    assert not np.any(np.signbit(scores))   # not even -0.0
