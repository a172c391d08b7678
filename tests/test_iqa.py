import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

import anomap
from anomap import iqa
from anomap.imagecore import BinaryMask, Image2D, window_stats
from anomap.iqa import (FusionParams, SsimParams, fusion_anomaly_map,
                        fusion_loss, fusion_loss_grad, ssim_map)
from anomap.simplex import octave_grid

# the SSIM and L1 losses are the fusion loss at alpha = 1 and 0
SSIM_ONLY, L1_ONLY = FusionParams(1.0), FusionParams(0.0)


def _loss_and_grad(x, y, p=SsimParams(), f=FusionParams(), mask=None):
    """The loss and gradient of y against a fresh target for x."""
    return iqa.loss_target(x, p, mask).loss_and_grad(y.pixels, f)


def _rand_pair(seed, shape=(12, 12)):
    rng = np.random.default_rng(seed)
    return (Image2D(rng.uniform(0, 1, shape)),
            Image2D(rng.uniform(0, 1, shape)))


@pytest.mark.parametrize("module", [anomap, iqa], ids=["anomap", "iqa"])
def test_exported_names_resolve(module):
    for name in module.__all__:
        assert hasattr(module, name), name


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
        FusionParams(alpha=1.5)


def test_fusion_params_rejection_names_alpha():
    with pytest.raises(ValueError, match=r"alpha = nan must lie in \[0, 1\]"):
        FusionParams(alpha=float("nan"))


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        ssim_map(Image2D(np.zeros((4, 4))), Image2D(np.zeros((5, 5))))


@pytest.mark.parametrize("shape", [(4, 1), (2, 4)])
def test_l1_loss_rejects_a_broadcastable_shape(shape):
    with pytest.raises(ValueError, match="^image dimensions do not match$"):
        fusion_loss(Image2D(np.zeros((4, 4))), Image2D(np.ones(shape)),
                    f=L1_ONLY)


def test_l1_uniform_bias():
    x, _ = _rand_pair(11)
    for c in (0.01, 0.05, 0.1, 0.2):
        y = Image2D(x.pixels + c)
        assert fusion_loss(x, y, f=L1_ONLY) == pytest.approx(c, abs=1e-12)


def test_losses_respect_mask():
    x, y = _rand_pair(12)
    bits = np.zeros((12, 12), dtype=bool)
    bits[2:6, 3:9] = True
    mask = BinaryMask(bits)
    assert fusion_loss(x, y, f=L1_ONLY, mask=mask) == pytest.approx(
        np.abs(x.pixels - y.pixels)[bits].mean(), abs=1e-15)
    assert fusion_loss(x, y, f=SSIM_ONLY, mask=mask) == pytest.approx(
        (1.0 - ssim_map(x, y)[bits].mean()) / 2.0, abs=1e-15)


def test_empty_mask_rejected():
    x, y = _rand_pair(13)
    with pytest.raises(ValueError, match="^no windows$"):
        fusion_loss(x, y, f=L1_ONLY,
                    mask=BinaryMask(np.zeros((12, 12), dtype=bool)))


def test_fusion_blend():
    x, y = _rand_pair(14)
    p, f = SsimParams(), FusionParams(alpha=0.84)
    expect = (0.84 * fusion_loss(x, y, p, SSIM_ONLY)
              + 0.16 * fusion_loss(x, y, p, L1_ONLY))
    assert fusion_loss(x, y, p, f) == pytest.approx(expect, abs=1e-15)
    assert fusion_loss(x, y, p, L1_ONLY) == pytest.approx(
        np.abs(x.pixels - y.pixels).mean(), abs=1e-15)
    assert fusion_loss(x, y, p, SSIM_ONLY) == pytest.approx(
        (1.0 - ssim_map(x, y, p).mean()) / 2.0, abs=1e-15)


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
    # the stack's rows carry a spare column; keep the image's Wd
    mx, my, vx, vy, cov = (m[:, :Wd] for m in iqa._window_moments(xa, ya, W))
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


@pytest.mark.parametrize("shape", [(1, 9), (9, 1), (2, 2), (1, 1), (2, 7)])
@pytest.mark.parametrize("W", [1, 3, 5, 7, 9, 11])
def test_fold_on_thin_images_and_wide_windows(shape, W):
    # thin images and windows wider than the image fold many padded
    # positions onto each border pixel
    rng = np.random.default_rng(shape[0] * 100 + shape[1] * 10 + W)
    x = Image2D(rng.uniform(0, 1, shape))
    y = Image2D(rng.uniform(0, 1, shape))
    p, f = SsimParams(W=W), FusionParams()
    bits = np.ones(shape, dtype=bool)
    _, grad = _loss_and_grad(x, y, p, f)
    ref = _reference_grad(x, y, p, f, bits)
    assert np.array_equal(grad, ref)
    assert np.array_equal(np.signbit(grad), np.signbit(ref))


@settings(max_examples=200, deadline=None)
@given(_loss_inputs())
def test_loss_and_grad_equal_the_separate_computations(args):
    x, y, p, f, mask = args
    loss, grad = _loss_and_grad(x, y, p, f, mask)
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


# --- the odd-length moment stack ---------------------------------------------

def _contiguous_ssim_map(x, y, p):
    """ssim_map as it was with a (5, H, Wd) stack: rows as long as the
    image's, the elementwise math on those rows."""
    xa, ya = x.pixels, y.pixels
    buf = np.empty((5, *xa.shape))
    buf[0], buf[1] = xa, ya
    np.multiply(xa, xa, out=buf[2])
    np.multiply(ya, ya, out=buf[3])
    np.multiply(xa, ya, out=buf[4])
    ndimage.uniform_filter(buf, size=(1, p.W, p.W), output=buf, mode="nearest")
    mx, my, vx, vy, cov = buf
    vx -= mx * mx
    vy -= my * my
    cov -= mx * my
    np.maximum(vx, 0.0, out=vx)
    np.maximum(vy, 0.0, out=vy)
    num = (2.0 * mx * my + p.C1) * (2.0 * cov + p.C2)
    den = (mx * mx + my * my + p.C1) * (vx + vy + p.C2)
    return num / den


def _contiguous_anomaly_map(x, y, p, f):
    ssim_err = (1.0 - _contiguous_ssim_map(x, y, p)) / 2.0
    scores = f.alpha * ssim_err + (1.0 - f.alpha) * np.abs(x.pixels - y.pixels)
    np.maximum(scores, 0.0, out=scores)
    return scores


def _same_raster(got, ref):
    assert got.shape == ref.shape
    assert got.flags.c_contiguous
    assert np.array_equal(got, ref)
    assert np.array_equal(np.signbit(got), np.signbit(ref))


@pytest.mark.parametrize("W", [1, 3, 5, 11, 25])
@pytest.mark.parametrize("width", [1, 2, 63, 64, 65, 127, 128, 129, 256])
def test_maps_equal_the_contiguous_stack_bit_for_bit(width, W):
    # even widths get a spare column in the stack, odd ones none; W = 25
    # exceeds the height and the narrow widths
    p = SsimParams(W=W)
    rng = np.random.default_rng(1000 * width + W)
    for H in (1, 6):
        xa = rng.uniform(0, 1, (H, width))
        for ya in (rng.uniform(0, 1, (H, width)), xa.copy(), 1.0 - np.round(xa)):
            x, y = Image2D(xa), Image2D(ya)
            _same_raster(ssim_map(x, y, p), _contiguous_ssim_map(x, y, p))
            for alpha in (0.0, 0.84, 1.0):
                f = FusionParams(alpha)
                _same_raster(fusion_anomaly_map(x, y, p, f).scores,
                             _contiguous_anomaly_map(x, y, p, f))


def test_window_moments_spare_column_is_zero():
    x, y = _rand_pair(3, shape=(5, 8))
    for m in iqa._window_moments(x.pixels, y.pixels, 3):
        assert m.shape == (5, 9)
        assert np.all(m[:, 8] == 0.0)
    for m in iqa._window_moments(x.pixels[:, :7], y.pixels[:, :7], 3):
        assert m.shape == (5, 7)


# --- the reused gradient workspace ----------------------------------------

def _allocating_loss_and_grad(x, y, p, f, mask):
    """The loss and gradient as they were before the workspace: every buffer
    allocated per call, np.where for the masked center maps, np.pad for the
    edge pads and an out-of-place filter."""
    bits = np.ones(x.pixels.shape, dtype=bool) if mask is None else mask.bits
    xa, ya = x.pixels, y.pixels
    H, Wd = xa.shape
    W = p.W
    r = W // 2
    n = W * W
    K = int(bits.sum())
    # the stack's rows carry a spare column; keep the image's Wd
    mx, my, vx, vy, cov = (m[:, :Wd] for m in iqa._window_moments(xa, ya, W))
    A1 = 2.0 * mx * my + p.C1
    A2 = 2.0 * cov + p.C2
    B1 = mx * mx + my * my + p.C1
    B2 = vx + vy + p.C2
    smap = A1 * A2 / (B1 * B2)
    loss = (f.alpha * float((1.0 - smap[bits].mean()) / 2.0)
            + (1.0 - f.alpha) * float(np.abs(xa - ya)[bits].mean()))
    d_mu = 2.0 * A2 * (mx * B1 - my * A1) / (B1 * B1 * B2)
    d_var = -A1 * A2 / (B1 * B2 * B2)
    d_cov = 2.0 * A1 / (B1 * B2)
    scale = -f.alpha / (2.0 * K)
    c_mu = np.where(bits, scale * d_mu, 0.0)
    c_var = np.where(bits, scale * d_var, 0.0)
    c_cov = np.where(bits, scale * d_cov, 0.0)
    centers = np.zeros((5, H + 2 * r, Wd + 2 * r))
    inner = centers[:, r:r + H, r:r + Wd]
    inner[0] = c_mu
    inner[1] = c_var
    inner[2] = c_var * my
    inner[3] = c_cov
    inner[4] = c_cov * mx
    s_mu, s_var, s_var_my, s_cov, s_cov_mx = ndimage.uniform_filter(
        centers, size=(1, W, W), mode="constant", cval=0.0) * n
    xp = np.pad(xa, r, mode="edge")
    yp = np.pad(ya, r, mode="edge")
    g_pad = (s_mu + 2.0 * (yp * s_var - s_var_my) + (xp * s_cov - s_cov_mx)) / n
    grad = _add_at_fold(g_pad, H, Wd, r)
    grad[bits] += (1.0 - f.alpha) * np.sign(ya - xa)[bits] / K
    return loss, grad


@st.composite
def _workspace_case(draw, shape=None, W=None):
    """Inputs of 1-40 px a side, a ragged mask or none, alpha in [0, 1]."""
    H, Wd = shape or (draw(st.integers(1, 40)), draw(st.integers(1, 40)))
    W = W or draw(st.sampled_from([1, 3, 5, 7, 11, 21]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.uniform(0, 1, (H, Wd))
    y = rng.uniform(0, 1, (H, Wd))
    if draw(st.booleans()):  # ties, where the L1 kink has zero gradient
        same = rng.uniform(size=(H, Wd)) < 0.3
        y[same] = x[same]
    mask = None
    if draw(st.booleans()):
        bits = rng.uniform(size=(H, Wd)) < draw(st.floats(0.05, 1.0))
        bits.flat[draw(st.integers(0, H * Wd - 1))] = True
        mask = BinaryMask(bits)
    return (Image2D(x), Image2D(y), SsimParams(W=W),
            FusionParams(draw(st.floats(0.0, 1.0))), mask)


@st.composite
def _workspace_calls(draw):
    # a, then other inputs of a's shape and window (the workspace is
    # reused), then b (usually another shape or window: the memo is
    # rebuilt), then a again
    a = draw(_workspace_case())
    again = draw(_workspace_case(shape=a[0].pixels.shape, W=a[2].W))
    b = draw(_workspace_case())
    return [a, again, b, a]


def _same_bits(got, ref):
    loss, grad = got
    ref_loss, ref_grad = ref
    assert loss == ref_loss
    assert math.copysign(1.0, loss) == math.copysign(1.0, ref_loss)
    assert np.array_equal(grad, ref_grad)
    assert np.array_equal(np.signbit(grad), np.signbit(ref_grad))


@settings(max_examples=150, deadline=None)
@given(_workspace_calls())
def test_loss_and_grad_equal_the_allocating_implementation(calls):
    for x, y, p, f, mask in calls:
        ref = _allocating_loss_and_grad(x, y, p, f, mask)
        _same_bits(_loss_and_grad(x, y, p, f, mask), ref)
        _same_bits((fusion_loss(x, y, p, f, mask), ref[1]), ref)


@st.composite
def _held_target_case(draw):
    """x, two predictions of its shape, 1-40 px a side; no mask or a random
    non-empty one; alpha 0, 1 or uniform in [0, 1]."""
    H, Wd = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = Image2D(rng.uniform(0, 1, (H, Wd)))
    ys = [Image2D(rng.uniform(0, 1, (H, Wd))) for _ in range(2)]
    mask = None
    if draw(st.booleans()):
        bits = rng.uniform(size=(H, Wd)) < draw(st.floats(0.05, 1.0))
        bits.flat[draw(st.integers(0, H * Wd - 1))] = True
        mask = BinaryMask(bits)
    alpha = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    return (x, ys, SsimParams(W=draw(st.sampled_from([1, 3, 5, 7, 11]))),
            FusionParams(alpha), mask)


@settings(max_examples=150, deadline=None)
@given(_held_target_case(), _held_target_case())
def test_the_image_losses_equal_their_held_target(case, other):
    # one target scores both predictions, with another case's call between
    # them, so that the workspace is rebuilt when the shapes differ
    x, ys, p, f, mask = case
    target = iqa.loss_target(x, p, mask)
    kept = {k: np.copy(getattr(target, k)) for k in ("x", "bits", "mx", "vx")}
    for y in ys:
        held = target.loss_and_grad(y.pixels, f)
        _same_bits(_loss_and_grad(x, y, p, f, mask), held)
        _same_bits((fusion_loss(x, y, p, f, mask), held[1]), held)
        _same_bits((target.loss(y.pixels, f), held[1]), held)
        _same_bits((held[0], fusion_loss_grad(x, y, p, f, mask)), held)
        ox, (oy, _), op, of, omask = other
        _loss_and_grad(ox, oy, op, of, omask)
    for name, a in kept.items():
        assert np.array_equal(getattr(target, name), a)
        assert not getattr(target, name).flags.writeable


@settings(max_examples=150, deadline=None)
@given(_held_target_case())
def test_the_l1_loss_does_not_depend_on_the_window(case):
    # at alpha = 0 the SSIM term is weighted by 0.0, so every window gives
    # the masked mean absolute error, bit for bit
    x, (y, _), _, _, mask = case
    bits = np.ones(x.pixels.shape, dtype=bool) if mask is None else mask.bits
    expect = float(np.abs(x.pixels - y.pixels)[bits].mean())
    for W in (1, 3, 5, 7, 11, 21):
        got = iqa.loss_target(x, SsimParams(W=W), mask).loss(y.pixels, L1_ONLY)
        assert got == expect
        assert math.copysign(1.0, got) == math.copysign(1.0, expect)


def test_a_loss_target_must_match_the_call():
    x, _ = _rand_pair(20, (8, 8))
    target = iqa.loss_target(x, SsimParams(W=5))
    for shape in [(8, 9), (8, 1), (1, 8)]:
        y = np.zeros(shape)
        with pytest.raises(ValueError, match="^image dimensions do not match$"):
            target.loss(y, FusionParams())
        with pytest.raises(ValueError, match="^image dimensions do not match$"):
            target.loss_and_grad(y, FusionParams())


def test_returned_gradient_does_not_alias_the_workspace():
    x, y = _rand_pair(18, (16, 16))
    u, v = _rand_pair(19, (16, 16))
    loss, grad = _loss_and_grad(x, y)
    kept = grad.copy()
    _loss_and_grad(u, v)
    assert np.array_equal(grad, kept)
    assert type(loss) is float


def test_threads_do_not_share_the_workspace():
    # every thread computes on inputs of one shape, so a workspace shared
    # between threads would be overwritten mid-call
    pairs = [_rand_pair(100 + i, (24, 24)) for i in range(8)]
    expect = [_allocating_loss_and_grad(x, y, SsimParams(), FusionParams(), None)
              for x, y in pairs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(_loss_and_grad, *pairs[i % 8])
                       for i in range(64)]
            got = [fut.result(timeout=60) for fut in futures]
    finally:
        sys.setswitchinterval(interval)
    for i, (loss, grad) in enumerate(got):
        assert loss == expect[i % 8][0]
        assert np.array_equal(grad, expect[i % 8][1])
