import numpy as np
import pytest

from anomap import denoise, iqa, phantom
from anomap.denoise import (KernelMixtureModel, OracleDenoiser, TrainConfig,
                            blur_denoiser, gaussian_kernel_1d,
                            sample_gradients, train)
from anomap.diffusion import (derive_seed, forward_noise, linear_schedule,
                              make_field)
from anomap.imagecore import BinaryMask, Image2D
from anomap.iqa import FusionParams, SsimParams


def test_gaussian_kernel_normalized_and_symmetric():
    for sigma in (0.5, 1.0, 3.0):
        k = gaussian_kernel_1d(sigma)
        assert k.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(k, k[::-1])
        assert np.argmax(k) == k.size // 2
    with pytest.raises(ValueError):
        gaussian_kernel_1d(0.0)


@pytest.mark.parametrize("sigma", [-1.0, float("inf"), float("nan")])
def test_gaussian_kernel_rejects_a_sigma_that_is_not_positive_and_finite(sigma):
    with pytest.raises(ValueError, match="^sigma must be positive and finite"):
        gaussian_kernel_1d(sigma)


def test_blur_preserves_constant_and_background():
    bits = np.zeros((16, 16), dtype=bool)
    bits[4:12, 4:12] = True
    px = np.zeros((16, 16))
    px[bits] = 0.6
    img = Image2D(px, BinaryMask(bits))
    out = blur_denoiser(1.0).denoise(img, 100)
    assert np.all(out.pixels[~bits] == 0.0)
    # interior of the constant patch is far enough from the edge to be flat
    assert np.allclose(out.pixels[7:9, 7:9], 0.6 * np.ones((2, 2)), atol=0.05)


def test_blur_leaves_its_input_unchanged_and_zeroes_the_background():
    rng = np.random.default_rng(4)
    bits = rng.uniform(size=(20, 23)) < 0.6
    px = rng.uniform(0.0, 1.0, (20, 23))  # background not zeroed on purpose
    img = Image2D(px.copy(), BinaryMask(bits))
    model = blur_denoiser(1.5)
    out = model.denoise(img, 10)
    assert np.array_equal(img.pixels, px)
    assert not np.shares_memory(out.pixels, img.pixels)
    assert np.all(out.pixels[~bits] == 0.0)
    assert not np.any(np.signbit(out.pixels[~bits]))
    blurred = denoise._separable_blur(px, model._k1d)
    assert np.array_equal(out.pixels[bits], blurred[bits])
    # the oracle zeroes the background of a copy, not of its stored image
    oracle = OracleDenoiser(Image2D(px.copy()))
    assert np.all(oracle.denoise(img, 10).pixels[~bits] == 0.0)
    assert np.array_equal(oracle.original.pixels, px)


def test_oracle_returns_stored_image():
    sample = phantom.gen_healthy(0, 32, phantom.PROFILES["t2_like"])
    model = OracleDenoiser(sample.image)
    noisy = Image2D(np.zeros((32, 32)), sample.foreground)
    out = model.denoise(noisy, 1)
    assert np.array_equal(out.pixels, sample.image.pixels)
    with pytest.raises(ValueError):
        model.denoise(Image2D(np.zeros((16, 16))), 1)


def test_bucket_mapping_covers_the_t_range():
    m = KernelMixtureModel(T=1000)
    assert m.bucket(1) == 0
    assert m.bucket(125) == 0
    assert m.bucket(126) == 1
    assert m.bucket(1000) == m.n_buckets - 1
    with pytest.raises(ValueError):
        m.bucket(0)
    with pytest.raises(ValueError):
        m.bucket(1001)


def test_identity_configuration_passes_input_through():
    m = KernelMixtureModel(T=100)
    m.weights[:] = 0.0
    m.weights[:, 0] = 1.0  # one-hot on the identity kernel
    m.biases[:] = 0.0
    rng = np.random.default_rng(0)
    img = Image2D(rng.uniform(0, 1, (16, 16)))
    out = m.denoise(img, 37)
    assert np.array_equal(out.pixels, img.pixels)


def test_fresh_model_predicts_mid_gray():
    m = KernelMixtureModel(T=100)
    img = Image2D(np.random.default_rng(1).uniform(0, 1, (8, 8)))
    assert np.all(m.denoise(img, 50).pixels == 0.5)


def test_prediction_is_clamped():
    m = KernelMixtureModel(T=100)
    m.biases[:] = 5.0
    out = m.denoise(Image2D(np.zeros((8, 8)) + 0.5), 50)
    assert np.all(out.pixels == 1.0)


def test_sample_gradients_match_finite_differences():
    sched = linear_schedule(100, 1e-3, 0.02)
    sample = phantom.gen_healthy(2, 32, phantom.PROFILES["flair_like"])
    x0 = sample.image
    x_t = forward_noise(x0, 40, make_field("gaussian", 3, 32, 32), sched)
    m = KernelMixtureModel(T=100)  # fresh model: pre-clamp output strictly interior
    p, f = SsimParams(), FusionParams()
    fg = BinaryMask(x0.fg_bits())
    loss, gw, gb = sample_gradients(m, 40, f, m.kernel_responses(x_t.pixels),
                                    iqa.loss_target(x0, p, fg))
    b = m.bucket(40)
    h = 1e-6

    def loss_at():
        y = m.denoise(x_t, 40)
        return iqa.fusion_loss(x0, y, p, f, fg)

    assert loss == pytest.approx(loss_at(), abs=1e-15)
    for k in range(m.n_kernels):
        m.weights[b, k] += h
        up = loss_at()
        m.weights[b, k] -= 2 * h
        dn = loss_at()
        m.weights[b, k] += h
        fd = (up - dn) / (2 * h)
        assert gw[b, k] == pytest.approx(fd, rel=1e-4, abs=1e-8)
    m.biases[b] += h
    up = loss_at()
    m.biases[b] -= 2 * h
    dn = loss_at()
    m.biases[b] += h
    assert gb[b] == pytest.approx((up - dn) / (2 * h), rel=1e-4, abs=1e-8)
    # untouched buckets receive no gradient
    other = (b + 1) % m.n_buckets
    assert np.all(gw[other] == 0.0) and gb[other] == 0.0


def _phantom_images(seed, n, size=48):
    ds = phantom.gen_dataset(seed, size, phantom.PROFILES["flair_like"], n, 1, 1)
    return [s.image for s in ds.train_healthy]


def test_train_rejects_bad_inputs():
    sched = linear_schedule(100, 1e-3, 0.02)
    with pytest.raises(ValueError):
        train(KernelMixtureModel(T=100), [], sched)
    imgs = [Image2D(np.zeros((16, 16)) + 0.5), Image2D(np.zeros((8, 8)) + 0.5)]
    with pytest.raises(ValueError):
        train(KernelMixtureModel(T=100), imgs, sched)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)


@pytest.mark.parametrize("lr", [float("nan"), float("inf")])
def test_non_finite_learning_rate_is_rejected(lr):
    # accepted, it would fail later inside training on non-finite pixels
    with pytest.raises(ValueError, match=f"learning_rate = {lr} "):
        TrainConfig(learning_rate=lr)


def test_train_zero_epochs_reports_initial_loss():
    sched = linear_schedule(100, 1e-3, 0.02)
    res = train(KernelMixtureModel(T=100), _phantom_images(0, 2), sched,
                TrainConfig(epochs=0, seed=1))
    assert len(res.loss_trace) == 1
    assert res.loss_trace[0] > 0.0
    assert np.all(res.model.weights == 0.0)


def test_train_zero_learning_rate_freezes_parameters():
    sched = linear_schedule(100, 1e-3, 0.02)
    res = train(KernelMixtureModel(T=100), _phantom_images(1, 2), sched,
                TrainConfig(epochs=3, learning_rate=0.0, seed=2))
    assert np.all(res.model.weights == 0.0)
    assert np.all(res.model.biases == 0.5)
    assert len(res.loss_trace) == 3


def test_train_is_deterministic():
    sched = linear_schedule(100, 1e-3, 0.02)
    runs = []
    for _ in range(2):
        res = train(KernelMixtureModel(T=100), _phantom_images(2, 3), sched,
                    TrainConfig(epochs=10, seed=5))
        runs.append((res.model.weights.copy(), res.model.biases.copy(),
                     list(res.loss_trace)))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert np.array_equal(runs[0][1], runs[1][1])
    assert runs[0][2] == runs[1][2]


def test_train_rejects_empty_foreground():
    sched = linear_schedule(100, 1e-3, 0.02)
    imgs = _phantom_images(4, 3, size=32)
    imgs[2] = Image2D(imgs[2].pixels * 0.0, BinaryMask(np.zeros((32, 32), bool)))
    with pytest.raises(ValueError, match="training image 2 has an empty foreground"):
        train(KernelMixtureModel(T=100), imgs, sched, TrainConfig(epochs=1))


def test_train_names_the_image_whose_dimensions_differ():
    sched = linear_schedule(100, 1e-3, 0.02)
    imgs = _phantom_images(4, 3, size=32)
    imgs[2] = Image2D(np.full((16, 32), 0.5))
    with pytest.raises(ValueError, match="^training image 2 is 32x16 px, "
                                         "training image 0 is 32x32 px$"):
        train(KernelMixtureModel(T=100), imgs, sched, TrainConfig(epochs=1))


@pytest.mark.parametrize("epochs", [0, 1, 4])
def test_train_blurs_each_image_once_and_keeps_the_responses_read_only(
        epochs, monkeypatch):
    counts = {"blur": 0}
    held = []
    built = {}    # id(x0) -> the one target train built for that image
    owner = {}    # id of a response list or target -> its image's index
    mixed = []    # the image index of every response list mixed
    scored = []   # the target of every gradient and trial loss
    blur = KernelMixtureModel.kernel_responses
    mix = KernelMixtureModel.mix
    gradients = denoise.sample_gradients
    make_target = iqa.loss_target
    trial_loss = iqa.LossTarget.loss

    # train builds each image's responses, then its target, in image order
    def counted(self, pixels):
        resp = blur(self, pixels)
        owner[id(resp)] = counts["blur"]
        counts["blur"] += 1
        return resp

    def targeted(x, p, mask=None):
        assert id(x) not in built
        built[id(x)] = make_target(x, p, mask)
        owner[id(built[id(x)])] = [id(x0) for x0 in images].index(id(x))
        return built[id(x)]

    def mixing(self, resp, t):
        mixed.append(owner[id(resp)])
        return mix(self, resp, t)

    def recorded(m, t, f, resp, target):
        held.append(resp)
        scored.append(target)
        assert owner[id(resp)] == owner[id(target)]
        return gradients(m, t, f, resp, target)

    def trial(target, y, f):
        # a trial scores the responses it has just mixed
        scored.append(target)
        assert mixed[-1] == owner[id(target)]
        return trial_loss(target, y, f)

    monkeypatch.setattr(KernelMixtureModel, "kernel_responses", counted)
    monkeypatch.setattr(KernelMixtureModel, "mix", mixing)
    monkeypatch.setattr(denoise, "sample_gradients", recorded)
    monkeypatch.setattr(iqa, "loss_target", targeted)
    monkeypatch.setattr(iqa.LossTarget, "loss", trial)
    sched = linear_schedule(100, 1e-3, 0.02)
    images = _phantom_images(5, 5, size=32)
    train(KernelMixtureModel(T=100), images, sched,
          TrainConfig(epochs=epochs, batch_size=2, seed=3))
    assert counts["blur"] == 5
    assert len(held) == 5 * epochs
    for resp in held:
        assert len(resp) == 5
        assert not any(rk.flags.writeable for rk in resp)
        with pytest.raises(ValueError, match="read-only"):
            resp[1][0, 0] = 1.0
    # one target per image per call, holding the image's own pixels and its
    # foreground as the mask; every gradient and trial is given its own
    # image's target (checked in recorded and trial)
    assert sorted(built) == sorted(id(x0) for x0 in images)
    assert len(scored) >= 5 * max(epochs, 1)
    assert {id(target) for target in scored} <= {id(t) for t in built.values()}
    for x0 in images:
        target = built[id(x0)]
        assert np.shares_memory(target.x, x0.pixels)
        assert np.array_equal(target.bits, x0.fg_bits())
        for a in (target.x, target.bits, target.mx, target.vx):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = a[0, 0]


def _reference_train(m, data, sched, cfg, p, f):
    """The training loop predicting every loss with ``m.denoise``, with the
    loss and its gradient from separate calls; returns the trace and the
    number of rejected backtracking trials."""
    rng = np.random.default_rng(cfg.seed)
    corrupted = []
    for i, x0 in enumerate(data):
        t = int(rng.integers(1, sched.T + 1))
        noise = make_field(cfg.noise_kind, derive_seed(cfg.seed, i),
                           x0.width, x0.height)
        corrupted.append((x0, forward_noise(x0, t, noise, sched), t))

    def sample_loss(x0, x_t, t):
        return iqa.fusion_loss(x0, m.denoise(x_t, t), p, f,
                               BinaryMask(x0.fg_bits()))

    def gradients(x0, x_t, t):
        fg = BinaryMask(x0.fg_bits())
        b = m.bucket(t)
        resp = m.kernel_responses(x_t.pixels)
        pre = np.full(x_t.pixels.shape, m.biases[b])
        for k, rk in enumerate(resp):
            pre += m.weights[b, k] * rk
        y = m.denoise(x_t, t)
        loss = iqa.fusion_loss(x0, y, p, f, fg)
        g = iqa.fusion_loss_grad(x0, y, p, f, fg)
        g = np.where((pre > 0.0) & (pre < 1.0) & fg.bits, g, 0.0)
        gw = np.zeros_like(m.weights)
        gb = np.zeros_like(m.biases)
        for k, rk in enumerate(resp):
            gw[b, k] = float((g * rk).sum())
        gb[b] = float(g.sum())
        return loss, gw, gb

    n = len(data)
    lr = cfg.learning_rate
    trace, rejected = [], 0
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_total = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            gw = np.zeros_like(m.weights)
            gb = np.zeros_like(m.biases)
            batch_pre = 0.0
            for i in batch:
                li, gwi, gbi = gradients(*corrupted[i])
                gw += gwi
                gb += gbi
                batch_pre += li
            gw /= len(batch)
            gb /= len(batch)
            batch_pre /= len(batch)
            epoch_total += batch_pre * len(batch)
            w0, b0 = m.weights.copy(), m.biases.copy()
            accepted = False
            for _ in range(8):
                m.weights[:] = w0 - lr * gw
                m.biases[:] = b0 - lr * gb
                post = sum(sample_loss(*corrupted[i]) for i in batch) / len(batch)
                if post <= batch_pre:
                    accepted = True
                    lr = min(lr * 1.2, 2.0)
                    break
                rejected += 1
                lr *= 0.5
            if not accepted:
                m.weights[:] = w0
                m.biases[:] = b0
        trace.append(epoch_total / n)
    return trace, rejected


def test_train_matches_the_reference_loop_exactly():
    sched = linear_schedule(1000, 1e-4, 0.02)
    imgs = _phantom_images(6, 5, size=32)
    p, f = SsimParams(), FusionParams()
    cfg = TrainConfig(epochs=6, learning_rate=1.0, batch_size=2, seed=7)
    ref = KernelMixtureModel(T=1000)
    ref_trace, rejected = _reference_train(ref, imgs, sched, cfg, p, f)
    assert rejected > 0  # the comparison covers backtracking
    res = train(KernelMixtureModel(T=1000), imgs, sched, cfg, p, f)
    assert res.loss_trace == ref_trace
    assert np.array_equal(res.model.weights, ref.weights)
    assert np.array_equal(res.model.biases, ref.biases)


def test_train_fits_constant_images():
    # a constant-0.8 foreground is exactly representable (bias alone), so the
    # corrupted-data loss should fall to nearly zero
    bits = np.zeros((32, 32), dtype=bool)
    bits[4:28, 4:28] = True
    px = np.zeros((32, 32))
    px[bits] = 0.8
    imgs = [Image2D(px, BinaryMask(bits))] * 4
    sched = linear_schedule(1000, 1e-4, 0.02)
    res = train(KernelMixtureModel(T=1000), imgs, sched,
                TrainConfig(epochs=300, seed=0))
    assert res.loss_trace[-1] < 0.01


def test_train_loss_decreases_on_phantoms():
    sched = linear_schedule(1000, 1e-4, 0.02)
    res = train(KernelMixtureModel(T=1000), _phantom_images(3, 4), sched,
                TrainConfig(epochs=30, seed=3))
    assert res.loss_trace[-1] < res.loss_trace[0]
    assert all(np.isfinite(v) for v in res.loss_trace)


def _mixture_on_widest(sigmas, seed=0):
    # non-zero weight on every kernel, the widest included; weights and bias
    # keep the pre-clamp prediction inside (0, 1) for inputs in [0.3, 0.7]
    m = KernelMixtureModel(T=1000, sigmas=sigmas)
    rng = np.random.default_rng(seed)
    m.weights[:] = rng.uniform(0.05, 0.2, m.weights.shape)
    m.biases[:] = 0.1
    return m


_LOCAL_MODELS = {
    "blur_r1": lambda: blur_denoiser(0.3),
    "blur_r3": lambda: blur_denoiser(1.0),
    "blur_r12": lambda: blur_denoiser(4.0),
    "mixture_default": lambda: _mixture_on_widest((0.5, 1.0, 2.0, 4.0)),
    "mixture_narrow": lambda: _mixture_on_widest((0.5,)),
    "mixture_identity": lambda: _mixture_on_widest(()),
}


def test_receptive_radii():
    assert blur_denoiser(4.0).receptive_radius == 12
    assert blur_denoiser(0.3).receptive_radius == 1
    assert KernelMixtureModel(T=10).receptive_radius == 12
    assert KernelMixtureModel(T=10, sigmas=(0.5,)).receptive_radius == 2
    assert KernelMixtureModel(T=10, sigmas=()).receptive_radius == 0
    assert OracleDenoiser(Image2D(np.zeros((2, 2)))).receptive_radius is None


@pytest.mark.parametrize("name", sorted(_LOCAL_MODELS))
def test_receptive_radius_is_tight(name):
    """A pixel farther than the radius cannot change the output; one at the
    radius does."""
    model = _LOCAL_MODELS[name]()
    R = model.receptive_radius
    n = 2 * R + 7
    c = n // 2
    px = np.random.default_rng(R).uniform(0.3, 0.6, (n, n))
    t = 700
    base = model.denoise(Image2D(px), t).pixels[c, c]

    def output_after_bump(dr, dc):
        bumped = px.copy()
        bumped[c + dr, c + dc] += 0.1
        return model.denoise(Image2D(bumped), t).pixels[c, c]

    far = R + 1
    for dr, dc in [(far, 0), (-far, 0), (0, far), (0, -far), (far, far),
                   (-far, far), (far, -R), (R, -far), (-far, -far)]:
        assert output_after_bump(dr, dc) == base
    for dr, dc in [(R, 0), (-R, 0), (0, R), (0, -R), (R, R), (-R, -R)]:
        assert output_after_bump(dr, dc) != base
