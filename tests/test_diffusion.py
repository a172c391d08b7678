import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anomap import phantom
from anomap.denoise import KernelMixtureModel, OracleDenoiser, blur_denoiser
from anomap.diffusion import (DiffusionSchedule, PatchSpec, derive_seed,
                              forward_noise, linear_schedule, make_field,
                              make_fields, placement_fields, placements,
                              reconstruct_from_fields, reconstruct_patched,
                              standardize)
from anomap.imagecore import BinaryMask, Image2D


def test_linear_schedule_endpoints_and_length():
    s = linear_schedule(1000, 1e-4, 0.02)
    assert s.T == 1000
    assert s.betas[0] == pytest.approx(1e-4)
    assert s.betas[-1] == pytest.approx(0.02)


def test_alpha_bar_is_cumulative_product():
    s = linear_schedule(50, 1e-3, 0.05)
    prod = 1.0
    for t in range(1, 51):
        prod *= 1.0 - s.betas[t - 1]
        assert s.alpha_bar(t) == pytest.approx(prod, rel=1e-12)


def test_alpha_bar_range_checked():
    s = linear_schedule(10, 1e-3, 0.02)
    with pytest.raises(ValueError):
        s.alpha_bar(0)
    with pytest.raises(ValueError):
        s.alpha_bar(11)


def test_schedule_validation():
    with pytest.raises(ValueError):
        linear_schedule(0)
    with pytest.raises(ValueError):
        linear_schedule(10, 0.0, 0.02)
    with pytest.raises(ValueError):
        DiffusionSchedule(np.array([0.5, 1.0]))


def test_schedule_rejections_name_their_values():
    with pytest.raises(ValueError, match="T = 0 must be >= 1"):
        linear_schedule(0)
    with pytest.raises(ValueError, match="beta_1 = 0.05, beta_T = 0.02"):
        linear_schedule(10, 0.05, 0.02)


def test_derive_seed_is_stable_and_spreads():
    assert derive_seed(7, 3) == derive_seed(7, 3)
    seen = {derive_seed(7, i) for i in range(100)}
    assert len(seen) == 100


def test_noise_fields_are_standardized():
    for kind in ("simplex", "gaussian"):
        field = make_field(kind, 3, 48, 32)
        assert field.shape == (32, 48)
        assert abs(field.mean()) < 1e-12
        assert field.std() == pytest.approx(1.0, abs=1e-12)


def test_standardize_rejects_a_constant_field():
    with pytest.raises(ValueError, match="^noise field is constant"):
        standardize(np.full((4, 6), 0.3))


def test_make_field_dispatch():
    raw = np.random.default_rng(1).standard_normal((12, 16))
    assert np.array_equal(make_field("gaussian", 1, 16, 12),
                          (raw - raw.mean()) / (raw - raw.mean()).std())
    assert not np.array_equal(make_field("simplex", 1, 16, 12),
                              make_field("gaussian", 1, 16, 12))
    with pytest.raises(ValueError):
        make_field("perlin", 1, 16, 16)


def test_forward_noise_formula_and_background():
    s = linear_schedule(100, 1e-3, 0.02)
    sample = phantom.gen_healthy(0, 32, phantom.PROFILES["flair_like"])
    noise = make_field("gaussian", 5, 32, 32)
    t = 60
    out = forward_noise(sample.image, t, noise, s)
    ab = s.alpha_bar(t)
    fg = sample.foreground.bits
    expect = (np.sqrt(ab) * sample.image.pixels[fg]
              + np.sqrt(1.0 - ab) * noise[fg])
    assert np.allclose(out.pixels[fg], expect, atol=1e-14)
    assert np.all(out.pixels[~fg] == 0.0)


def test_forward_noise_shape_mismatch():
    s = linear_schedule(10, 1e-3, 0.02)
    with pytest.raises(ValueError):
        forward_noise(Image2D(np.zeros((8, 8))), 5, make_field("gaussian", 0, 4, 4), s)


def test_placements_cover_and_match_enumeration():
    spec = PatchSpec(32, 32, 16, 16)
    plist = placements(spec, 64, 64)
    # independent enumeration of the row/column starts
    starts = list(range(0, 33, 16))
    assert plist == [(r, c) for r in starts for c in starts]
    cover = np.zeros((64, 64), dtype=int)
    for r, c in plist:
        cover[r:r + 32, c:c + 32] += 1
    assert cover.min() == 1 and cover.max() == 4


def test_placements_tail_is_flush_with_the_edge():
    plist = placements(PatchSpec(30, 30, 16, 16), 64, 64)
    rows = sorted({r for r, _ in plist})
    assert rows == [0, 16, 32, 34]


def test_patch_larger_than_image_rejected():
    with pytest.raises(ValueError):
        placements(PatchSpec(65, 32, 16, 16), 64, 64)


@pytest.mark.parametrize("unset", ["patch_h", "patch_w", "stride_h", "stride_w"])
def test_placements_reject_an_unresolved_spec(unset):
    spec = PatchSpec(**{"patch_h": 32, "patch_w": 32, "stride_h": 16,
                        "stride_w": 16, unset: None})
    with pytest.raises(ValueError,
                       match=f"^{unset} is unset; resolve the spec first$"):
        placements(spec, 64, 64)


def _fields_case():
    x = phantom.gen_healthy(6, 32, phantom.PROFILES["flair_like"]).image
    spec = PatchSpec(16, 8, 8, 8)
    return x, spec, placement_fields(spec, 32, 32, 3)


def test_reconstruct_from_fields_rejects_a_wrong_field_count():
    x, spec, fields = _fields_case()
    s = linear_schedule(100, 1e-3, 0.02)
    for noises in (fields[:-1], fields + fields[:1]):
        with pytest.raises(ValueError, match=f"^{len(noises)} noise fields "
                           f"for {len(fields)} patch placements$"):
            reconstruct_from_fields(blur_denoiser(1.0), x, 10, s, spec, noises)


def test_reconstruct_from_fields_rejects_a_field_of_another_shape():
    x, spec, fields = _fields_case()
    s = linear_schedule(100, 1e-3, 0.02)
    fields[4] = fields[4].T
    with pytest.raises(ValueError, match=r"^noise field 4 has shape \(8, 16\), "
                       r"not the patch's \(16, 8\)$"):
        reconstruct_from_fields(blur_denoiser(1.0), x, 10, s, spec, fields)


def test_patch_spec_validation():
    with pytest.raises(ValueError):
        PatchSpec(0, 8, 4, 4)
    with pytest.raises(ValueError):
        PatchSpec(8, 8, 0, 4)
    for name in ("patch_h", "patch_w", "stride_h", "stride_w"):
        with pytest.raises(ValueError, match=f"^{name} = 0 must be >= 1$"):
            PatchSpec(**{name: 0})


def test_uncovered_grid_rejected():
    sample = phantom.gen_healthy(1, 64, phantom.PROFILES["flair_like"])
    model = OracleDenoiser(sample.image)
    s = linear_schedule(100, 1e-3, 0.02)
    with pytest.raises(ValueError):
        reconstruct_patched(model, sample.image, 10, s,
                            PatchSpec(8, 8, 16, 16), 0)


def test_whole_image_patch_equals_full_reconstruction():
    sample = phantom.gen_healthy(2, 64, phantom.PROFILES["flair_like"])
    model = blur_denoiser(1.5)
    s = linear_schedule(1000, 1e-4, 0.02)
    x = sample.image
    # the whole image corrupted with placement 0's field, denoised at once
    noise = make_field("simplex", derive_seed(42, 0), x.width, x.height)
    full = model.denoise(forward_noise(x, 300, noise, s), 300)
    patched = reconstruct_patched(model, x, 300, s,
                                  PatchSpec(64, 64, 64, 64), 42)
    assert np.array_equal(full.pixels, patched.pixels)


def test_reconstruction_is_deterministic():
    sample = phantom.gen_healthy(3, 64, phantom.PROFILES["t2_like"])
    model = blur_denoiser(1.0)
    s = linear_schedule(1000, 1e-4, 0.02)
    spec = PatchSpec.default_for(64, 64)
    a = reconstruct_patched(model, sample.image, 500, s, spec, 9)
    b = reconstruct_patched(model, sample.image, 500, s, spec, 9)
    assert np.array_equal(a.pixels, b.pixels)


def test_oracle_patched_reconstruction_is_bit_identical_to_input():
    sample = phantom.gen_abnormal(4, 64, phantom.PROFILES["flair_like"])
    model = OracleDenoiser(sample.image)
    s = linear_schedule(1000, 1e-4, 0.02)
    out = reconstruct_patched(model, sample.image, 750, s,
                              PatchSpec(32, 32, 16, 16), 11)
    assert np.array_equal(out.pixels, sample.image.pixels)


def _reference_patched(model, x, t_test, sched, spec, seed, noise_kind):
    # the loop as first written: one make_field call per placement, drawn
    # just before that placement's denoiser call
    fg = x.fg_bits()
    ab = sched.alpha_bar(t_test)
    mean = np.zeros_like(x.pixels)
    count = np.zeros(x.pixels.shape, dtype=np.int64)
    for idx, (r0, c0) in enumerate(placements(spec, x.height, x.width)):
        r1, c1 = r0 + spec.patch_h, c0 + spec.patch_w
        noise = make_field(noise_kind, derive_seed(seed, idx),
                           spec.patch_w, spec.patch_h)
        noisy = x.pixels.copy()
        patch_fg = fg[r0:r1, c0:c1]
        patch = noisy[r0:r1, c0:c1]
        patch[patch_fg] = (np.sqrt(ab) * patch[patch_fg]
                           + np.sqrt(1.0 - ab) * noise[patch_fg])
        patch[~patch_fg] = 0.0
        pred = model.denoise(Image2D(noisy, x.foreground), t_test)
        count[r0:r1, c0:c1] += 1
        k = count[r0:r1, c0:c1]
        mslice = mean[r0:r1, c0:c1]
        mean[r0:r1, c0:c1] = mslice + (pred.pixels[r0:r1, c0:c1] - mslice) / k
    mean[~fg] = 0.0
    return mean


def _holed_image(h, w, seed):
    # a foreground disk in the left part of the image with holes punched
    # into it: some patches lie partly, and those from column w // 2 on
    # wholly, outside it; the background is not 0, so that a corrupted
    # patch shows whether its background was zeroed
    rng = np.random.default_rng(seed)
    rr, cc = np.mgrid[:h, :w]
    bits = (rr - h / 2) ** 2 + (cc - w / 4) ** 2 < (min(h, w) / 5) ** 2
    bits &= rng.uniform(size=(h, w)) > 0.15
    bits[h // 2 - 2:h // 2 + 2, w // 4 - 2:w // 4 + 2] = False
    px = np.where(bits, rng.uniform(0.2, 0.9, (h, w)),
                  rng.uniform(0.05, 0.1, (h, w)))
    return Image2D(px, BinaryMask(bits))


def _mixture(seed):
    # a kernel mixture with signed weights on every kernel
    model = KernelMixtureModel(T=1000)
    rng = np.random.default_rng(seed)
    sign = rng.choice([-1.0, 1.0], model.weights.shape)
    model.weights[:] = sign * rng.uniform(0.05, 0.6, model.weights.shape)
    model.biases[:] = rng.uniform(-0.2, 0.5, model.biases.shape)
    return model


@pytest.mark.parametrize("noise_kind", ["simplex", "gaussian"])
@pytest.mark.parametrize("spec", [PatchSpec(32, 32, 16, 16),
                                  PatchSpec(20, 27, 11, 9)])
def test_patched_reconstruction_equals_per_placement_loop(noise_kind, spec):
    # a phantom, and a foreground with holes, under the blur and a kernel
    # mixture, at both ends of the schedule
    sample = phantom.gen_abnormal(5, 64, phantom.PROFILES["flair_like"])
    holed = _holed_image(64, 64, 5)
    s = linear_schedule(1000, 1e-4, 0.02)
    cases = [(blur_denoiser(4.0), sample.image, 750)] + [
        (model, holed, t) for model in (blur_denoiser(1.5), _mixture(3))
        for t in (1, s.T)]
    for model, x, t in cases:
        for seed in (0, 13, 2**40 + 7):
            out = reconstruct_patched(model, x, t, s, spec, seed, noise_kind)
            ref = _reference_patched(model, x, t, s, spec, seed, noise_kind)
            assert np.array_equal(out.pixels, ref)
            assert np.array_equal(np.signbit(out.pixels), np.signbit(ref))


def test_make_fields_match_make_field():
    seeds = [derive_seed(3, i) for i in range(9)]
    for kind in ("simplex", "gaussian"):
        fields = make_fields(kind, seeds, 27, 20)
        for seed, field in zip(seeds, fields):
            one = make_field(kind, seed, 27, 20)
            assert np.array_equal(field, one)


class _WholeImage:
    """Hides a model's receptive_radius, so it denoises whole images."""

    def __init__(self, model):
        self.model = model

    def denoise(self, x_t, t):
        return self.model.denoise(x_t, t)


def _recon_or_error(model, *args):
    try:
        return reconstruct_patched(model, *args).pixels
    except ValueError as exc:  # e.g. a constant noise field on a tiny patch
        return str(exc)


@st.composite
def _patched_setting(draw):
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    ph = draw(st.one_of(st.just(h), st.integers(1, h)))
    pw = draw(st.one_of(st.just(w), st.integers(1, w)))
    # strides up to the patch size, so that the grid covers the image
    spec = PatchSpec(ph, pw, draw(st.integers(1, ph)), draw(st.integers(1, pw)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    px = rng.uniform(0.0, 1.0, (h, w))
    fg = None
    if draw(st.booleans()):
        fg = BinaryMask(rng.uniform(size=(h, w)) < draw(st.floats(0.2, 1.0)))
        px[~fg.bits] = 0.0
    image = Image2D(px, fg)
    kind = draw(st.sampled_from(["blur_r1", "blur_wide", "mixture"]))
    if kind == "blur_r1":
        model = blur_denoiser(0.3)
    elif kind == "blur_wide":
        model = blur_denoiser(14.0)  # radius 42, above every image side
    else:
        sigmas = draw(st.sampled_from([(0.5, 1.0, 2.0, 4.0), (0.7,), (1.3, 3.0)]))
        model = KernelMixtureModel(T=1000, sigmas=sigmas)
        sign = rng.choice([-1.0, 1.0], model.weights.shape)
        model.weights[:] = sign * rng.uniform(0.05, 0.6, model.weights.shape)
        model.biases[:] = rng.uniform(-0.2, 0.5, model.biases.shape)
    noise_kind = draw(st.sampled_from(["simplex", "gaussian"]))
    t = draw(st.integers(1, 1000))
    return model, image, t, spec, draw(st.integers(0, 2**40)), noise_kind


@settings(max_examples=60, deadline=None)
@given(_patched_setting())
def test_halo_crop_equals_whole_image_reconstruction(setting):
    model, image, t, spec, seed, noise_kind = setting
    sched = linear_schedule(1000, 1e-4, 0.02)
    args = (image, t, sched, spec, seed, noise_kind)
    out = _recon_or_error(model, *args)
    ref = _recon_or_error(_WholeImage(model), *args)
    if isinstance(ref, str):
        assert out == ref
        return
    assert np.array_equal(out, ref)
    assert np.array_equal(np.signbit(out), np.signbit(ref))
