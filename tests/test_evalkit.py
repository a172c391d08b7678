import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anomap import phantom
from anomap.denoise import blur_denoiser
from anomap.diffusion import PatchSpec, linear_schedule
from anomap.evalkit import (EvalConfig, anomaly_map, auprc, dice, default_grid,
                            eval_region, evaluate_fold, greedy_threshold,
                            pooled_dice_curve, reconstruct, sample_seed,
                            score_sample)
from anomap.imagecore import AnomalyMap, BinaryMask
from anomap.iqa import FusionParams, SsimParams


def _mask(bits):
    return BinaryMask(np.asarray(bits, dtype=bool))


def test_dice_known_values():
    a = _mask([[1, 1, 0, 0]])
    b = _mask([[1, 0, 1, 0]])
    assert dice(a, b) == pytest.approx(0.5)
    assert dice(a, a) == 1.0
    assert dice(a, _mask([[0, 0, 0, 0]])) == 0.0
    assert dice(_mask([[0, 0]]), _mask([[0, 0]])) == 1.0
    with pytest.raises(ValueError):
        dice(a, _mask([[1, 0]]))


def test_dice_matches_set_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.uniform(size=(6, 6)) > 0.5
        b = rng.uniform(size=(6, 6)) > 0.5
        inter = {(i, j) for i, j in zip(*np.nonzero(a))} \
            & {(i, j) for i, j in zip(*np.nonzero(b))}
        denom = a.sum() + b.sum()
        expect = 1.0 if denom == 0 else 2.0 * len(inter) / denom
        assert dice(_mask(a), _mask(b)) == pytest.approx(expect, abs=1e-15)


def test_auprc_three_point_example():
    maps = [AnomalyMap(np.array([[0.9, 0.8, 0.7]]))]
    gts = [_mask([[1, 0, 1]])]
    regions = [_mask([[1, 1, 1]])]
    assert auprc(maps, gts, regions) == pytest.approx(5.0 / 6.0, abs=1e-12)


def test_auprc_ties_collapse_to_base_rate():
    maps = [AnomalyMap(np.full((1, 8), 0.4))]
    gts = [_mask([[1, 1, 0, 0, 0, 0, 0, 0]])]
    regions = [_mask([[1] * 8])]
    assert auprc(maps, gts, regions) == pytest.approx(0.25, abs=1e-12)


def test_auprc_requires_positives():
    maps = [AnomalyMap(np.zeros((2, 2)))]
    with pytest.raises(ValueError):
        auprc(maps, [_mask(np.zeros((2, 2)))], [_mask(np.ones((2, 2)))])


def _brute_force_pooled_dice(maps, gts, regions, thr):
    tp = pred = pos = 0
    for amap, gt, region in zip(maps, gts, regions):
        bits = region.bits
        p = (amap.scores >= thr) & bits
        g = gt.bits & bits
        tp += int((p & g).sum())
        pred += int(p.sum())
        pos += int(g.sum())
    return 1.0 if pred + pos == 0 else 2.0 * tp / (pred + pos)


def test_threshold_search_matches_brute_force():
    rng = np.random.default_rng(1)
    levels = np.linspace(0.0, 1.0, 7)  # coarse levels force score ties
    for _ in range(20):
        maps = [AnomalyMap(rng.choice(levels, size=(5, 5))) for _ in range(2)]
        gts = [_mask(rng.uniform(size=(5, 5)) > 0.6) for _ in range(2)]
        regions = [_mask(rng.uniform(size=(5, 5)) > 0.2) for _ in range(2)]
        grid = np.linspace(0.0, 1.0, 23)
        curve = pooled_dice_curve(maps, gts, regions, grid)
        brute = np.array([_brute_force_pooled_dice(maps, gts, regions, t)
                          for t in grid])
        assert np.allclose(curve, brute, atol=1e-12)
        best = greedy_threshold(maps, gts, regions, grid)
        # ties broken toward the larger threshold
        assert best == grid[np.nonzero(brute == brute.max())[0][-1]]


@st.composite
def _tied_maps(draw):
    """Maps whose scores are rounded to one decimal, so most pixels tie."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    maps, gts, regions = [], [], []
    for _ in range(draw(st.integers(1, 4))):
        shape = (draw(st.integers(1, 9)), draw(st.integers(1, 9)))
        maps.append(AnomalyMap(np.round(rng.uniform(0, 1, shape), 1)))
        gts.append(_mask(rng.uniform(size=shape) < draw(st.floats(0, 1))))
        regions.append(_mask(rng.uniform(size=shape) < draw(st.floats(0, 1))))
    return maps, gts, regions


def _brute_force_auprc(maps, gts, regions):
    """Precision and recall at every distinct in-region score, taken as a
    threshold from the highest down, summed as recall steps x precision."""
    scores = np.concatenate([m.scores[r.bits] for m, r in zip(maps, regions)])
    labels = np.concatenate([g.bits[r.bits] for g, r in zip(gts, regions)])
    n_pos = int(labels.sum())
    precision, recall = [], []
    for thr in sorted(set(scores.tolist()), reverse=True):
        pred = scores >= thr
        tp = int((pred & labels).sum())
        precision.append(tp / int(pred.sum()))
        recall.append(tp / n_pos)
    recall = np.array(recall)
    prev = np.concatenate([[0.0], recall[:-1]])
    return float(np.sum((recall - prev) * np.array(precision)))


@settings(max_examples=300, deadline=None)
@given(_tied_maps(), st.lists(st.sampled_from(np.round(np.linspace(-0.1, 1.1, 13), 2)
                                             .tolist()), min_size=1, max_size=8))
def test_pooled_dice_and_auprc_equal_brute_force_on_ties(data, grid):
    maps, gts, regions = data
    grid = np.array(sorted(grid))   # includes the score levels themselves
    curve = pooled_dice_curve(maps, gts, regions, grid)
    brute = [_brute_force_pooled_dice(maps, gts, regions, t) for t in grid]
    assert curve.tolist() == brute
    in_region = sum(int((g.bits & r.bits).sum()) for g, r in zip(gts, regions))
    if in_region == 0:
        with pytest.raises(ValueError):
            auprc(maps, gts, regions)
    else:
        assert auprc(maps, gts, regions) == _brute_force_auprc(maps, gts, regions)


def _pooled(maps, gts, regions):
    scores = np.concatenate([m.scores[r.bits] for m, r in zip(maps, regions)])
    labels = np.concatenate([g.bits[r.bits] for g, r in zip(gts, regions)])
    return scores, labels


def _argsort_auprc(maps, gts, regions):
    """The stable-argsort AUPRC that the sort-count version replaced."""
    scores, labels = _pooled(maps, gts, regions)
    n_pos = int(labels.sum())
    order = np.argsort(-scores, kind="stable")
    s, y = scores[order], labels[order]
    group_ends = np.append(np.nonzero(np.diff(s))[0], s.size - 1)
    tp = np.cumsum(y)[group_ends]
    fp = group_ends + 1 - tp
    precision = tp / (tp + fp)
    recall = tp / n_pos
    prev_recall = np.concatenate([[0.0], recall[:-1]])
    return float(np.sum((recall - prev_recall) * precision))


def _argsort_pooled_dice_curve(maps, gts, regions, grid):
    """The stable-argsort pooled Dice curve that the sort-count version
    replaced."""
    scores, labels = _pooled(maps, gts, regions)
    n_pos = int(labels.sum())
    order = np.argsort(scores, kind="stable")
    s, y = scores[order], labels[order]
    pos_cum = np.concatenate([[0], np.cumsum(y)])
    idx = np.searchsorted(s, grid, side="left")
    tp = n_pos - pos_cum[idx]
    denom = s.size - idx + n_pos
    return np.where(denom > 0, 2.0 * tp / np.maximum(denom, 1), 1.0)


def _pool_case(kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "one_pixel":
        score = rng.uniform(0.0, 1.0, (1, 1))
        return ([AnomalyMap(score)], [_mask(rng.uniform(size=(1, 1)) < 0.5)],
                [_mask([[True]])],
                np.array([0.0, score[0, 0], 1.0]))
    shapes = [(int(rng.integers(1, 30)), int(rng.integers(1, 30)))
              for _ in range(int(rng.integers(1, 5)))]
    maps = []
    for shape in shapes:
        a = rng.exponential(0.2, shape)
        if kind == "rounded":
            a = np.round(a, 1)
        elif kind == "all_equal":
            a = np.full(shape, 0.3)
        maps.append(AnomalyMap(a))
    gts = [_mask(rng.uniform(size=sh) < 0.3) for sh in shapes]
    regions = [_mask(rng.uniform(size=sh) < 0.8) for sh in shapes]
    top = max(float(m.scores.max()) for m in maps)
    grid = np.concatenate([np.linspace(0.0, top, 17), [0.3, 0.1, top + 1.0]])
    return maps, gts, regions, np.sort(grid)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("kind", ["continuous", "rounded", "all_equal",
                                  "one_pixel"])
def test_sort_count_metrics_equal_argsort_versions_bit_for_bit(kind, seed):
    maps, gts, regions, grid = _pool_case(kind, seed)
    curve = pooled_dice_curve(maps, gts, regions, grid)
    expect = _argsort_pooled_dice_curve(maps, gts, regions, grid)
    assert curve.tobytes() == expect.tobytes()
    if sum(int((g.bits & r.bits).sum()) for g, r in zip(gts, regions)):
        area = auprc(maps, gts, regions)
        assert np.float64(area).tobytes() == np.float64(
            _argsort_auprc(maps, gts, regions)).tobytes()
    else:
        with pytest.raises(ValueError):
            auprc(maps, gts, regions)


def test_default_grid_spans_score_range():
    maps = [AnomalyMap(np.full((2, 2), 0.6)), AnomalyMap(np.full((2, 2), 0.2))]
    grid = default_grid(maps, size=10)
    assert grid[0] == 0.0
    assert grid[-1] == pytest.approx(0.6)
    assert grid.size == 10
    assert default_grid([AnomalyMap(np.zeros((2, 2)))], size=5)[-1] == 1.0


def test_greedy_threshold_rejects_empty_grid():
    maps = [AnomalyMap(np.zeros((2, 2)))]
    with pytest.raises(ValueError):
        greedy_threshold(maps, [_mask(np.zeros((2, 2)))],
                         [_mask(np.ones((2, 2)))], np.array([]))


def test_sample_seed_is_deterministic_and_id_sensitive():
    assert sample_seed(3, "a") == sample_seed(3, "a")
    assert sample_seed(3, "a") != sample_seed(3, "b")
    assert sample_seed(3, "a") != sample_seed(4, "a")


def _blur_cfg(t=200, W=11):
    return EvalConfig(t_test=t, ssim=SsimParams(W=W),
                      fusion=FusionParams(alpha=0.84),
                      patch=PatchSpec.default_for(64, 64))


def test_score_sample_contract():
    sched = linear_schedule(1000, 1e-4, 0.02)
    sample = phantom.gen_abnormal(2, 64, phantom.PROFILES["flair_like"])
    cfg = _blur_cfg()
    model = blur_denoiser(2.0)
    amap = score_sample(model, sample, cfg, sched, 77)
    again = score_sample(model, sample, cfg, sched, 77)
    assert np.array_equal(amap.scores, again.scores)
    assert np.all(amap.scores >= 0.0)
    from anomap.imagecore import erode
    region = erode(sample.foreground, cfg.erosion_iters)
    assert np.all(amap.scores[~region.bits] == 0.0)


def test_score_sample_highlights_bright_lesion():
    # blur reconstruction of a bright-lesion phantom: the mean score inside
    # the ground-truth lesion is more than twice the mean score elsewhere
    sched = linear_schedule(1000, 1e-4, 0.02)
    ds = phantom.gen_dataset(7, 64, phantom.PROFILES["flair_like"], 1, 1, 6)
    sample = ds.test_abnormal[2]
    amap = score_sample(blur_denoiser(2.0), sample, _blur_cfg(), sched, 123)
    gt = sample.anomaly_gt.bits
    assert amap.scores[gt].mean() > 2.0 * amap.scores[~gt].mean()


def test_reconstruction_map_favors_lesion_for_all_samples():
    from anomap.diffusion import reconstruct_patched
    from anomap.iqa import fusion_anomaly_map
    sched = linear_schedule(1000, 1e-4, 0.02)
    ds = phantom.gen_dataset(7, 64, phantom.PROFILES["flair_like"], 1, 1, 6)
    model = blur_denoiser(2.0)
    for sample in ds.test_abnormal:
        recon = reconstruct_patched(model, sample.image, 500, sched,
                                    PatchSpec(64, 64, 64, 64), 99)
        amap = fusion_anomaly_map(sample.image, recon, SsimParams(W=11),
                                  FusionParams(alpha=0.84))
        gt = sample.anomaly_gt.bits
        assert amap.scores[gt].mean() > amap.scores[~gt].mean()


def _maps_and_regions(model, samples, cfg, sched, seed):
    maps = {s.id: score_sample(model, s, cfg, sched, seed) for s in samples}
    regions = {s.id: eval_region(s, cfg) for s in samples}
    return maps, regions


def test_evaluate_fold_rejects_split_leakage():
    sched = linear_schedule(100, 1e-3, 0.02)
    s = phantom.gen_abnormal(0, 64, phantom.PROFILES["flair_like"], "shared")
    maps, regions = _maps_and_regions(blur_denoiser(1.0), [s], _blur_cfg(t=10),
                                      sched, 0)
    with pytest.raises(ValueError):
        evaluate_fold([s], [s], maps, regions)


def test_evaluate_fold_end_to_end():
    sched = linear_schedule(1000, 1e-4, 0.02)
    ds = phantom.gen_dataset(0, 64, phantom.PROFILES["flair_like"], 1, 3, 4)
    maps, regions = _maps_and_regions(
        blur_denoiser(2.0), [*ds.val_abnormal, *ds.test_abnormal],
        _blur_cfg(t=50), sched, 5)
    result = evaluate_fold(ds.val_abnormal, ds.test_abnormal, maps, regions)
    assert 0.0 <= result.dice <= 1.0
    assert 0.0 <= result.auprc <= 1.0
    assert len(result.per_sample_dice) == 4
    assert result.per_sample_ids == [s.id for s in ds.test_abnormal]
    assert result.threshold >= 0.0


def test_evaluate_fold_scores_the_given_maps():
    sched = linear_schedule(1000, 1e-4, 0.02)
    ds = phantom.gen_dataset(1, 64, phantom.PROFILES["flair_like"], 1, 2, 2)
    samples = [*ds.val_abnormal, *ds.test_abnormal]
    cfg = _blur_cfg(t=50)
    model = blur_denoiser(2.0)
    maps, regions = _maps_and_regions(model, samples, cfg, sched, 5)
    calls = []

    class Spy(dict):
        def __getitem__(self, key):
            calls.append(key)
            return super().__getitem__(key)

    result = evaluate_fold(ds.val_abnormal, ds.test_abnormal, Spy(maps), regions)
    test_ids = {s.id for s in ds.test_abnormal}
    assert len([c for c in calls if c in test_ids]) == 2
    assert set(calls) == {s.id for s in samples}
    # holding a reconstruction and building its map later gives the same
    # maps as score_sample, and so the same result
    held = {s.id: anomaly_map(s.image, reconstruct(model, s, cfg, sched, 5),
                              regions[s.id], cfg)
            for s in samples}
    assert all(np.array_equal(held[k].scores, maps[k].scores) for k in maps)
    direct = evaluate_fold(ds.val_abnormal, ds.test_abnormal, held, regions)
    assert direct.dice == result.dice
    assert direct.threshold == result.threshold


def test_n_thresholds_sets_the_grid_the_threshold_comes_from():
    from anomap import config, pipeline
    sched = linear_schedule(1000, 1e-4, 0.02)
    ds = phantom.gen_dataset(1, 64, phantom.PROFILES["flair_like"], 1, 3, 2)
    model = blur_denoiser(2.0)
    cfg = _blur_cfg(t=50)
    maps, regions = _maps_and_regions(
        model, [*ds.val_abnormal, *ds.test_abnormal], cfg, sched, 5)
    val_maps = [maps[s.id] for s in ds.val_abnormal]

    chosen = {}
    for n in (200, 4):
        result = evaluate_fold(ds.val_abnormal, ds.test_abnormal, maps, regions,
                               n_thresholds=n)
        assert result.threshold in default_grid(val_maps, n)
        chosen[n] = result.threshold
    assert chosen[200] != chosen[4]
    assert pipeline.eval_config(
        config.RunConfig(n_thresholds=4).validate()).n_thresholds == 4
    assert EvalConfig().n_thresholds == 200
