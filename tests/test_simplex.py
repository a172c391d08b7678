import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anomap import simplex
from anomap.simplex import (_F2, _G2, _GRAD, _geometry, _noise, _perm_table,
                            octave_grid, octave_grids)


def test_same_seed_is_bit_identical():
    a = octave_grid(5, 24, 24, 4, 0.6, 16.0)
    b = octave_grid(5, 24, 24, 4, 0.6, 16.0)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = octave_grid(0, 24, 24, 4, 0.6, 16.0)
    b = octave_grid(1, 24, 24, 4, 0.6, 16.0)
    assert not np.array_equal(a, b)


def test_single_octave_range():
    vals = _noise(_geometry(np.linspace(0, 37, 2000), np.linspace(0, 53, 2000)),
                  _perm_table(3)[None])[0]
    assert np.all(np.abs(vals) <= 1.0)
    assert vals.std() > 0.0


def test_field_is_smooth_at_large_scale():
    # neighboring pixels sample nearby points of a continuous field, so the
    # per-pixel increments are small relative to the overall spread
    g = octave_grid(2, 64, 64, 1, 0.5, 64.0)
    step = max(np.abs(np.diff(g, axis=0)).max(),
               np.abs(np.diff(g, axis=1)).max())
    spread = g.max() - g.min()
    assert step < 0.2 * spread


def test_octave_weights_follow_persistence():
    one = octave_grid(4, 32, 32, 1, 0.5, 32.0)
    two = octave_grid(4, 32, 32, 2, 0.5, 32.0)
    # the first octave is shared; the second adds at most persistence**1
    assert np.all(np.abs(two - one) <= 0.5 + 1e-12)
    assert not np.array_equal(one, two)


def test_parameter_validation():
    with pytest.raises(ValueError):
        octave_grid(0, 8, 8, 0, 0.5, 8.0)
    with pytest.raises(ValueError):
        octave_grid(0, 8, 8, 2, 0.0, 8.0)
    with pytest.raises(ValueError):
        octave_grid(0, 8, 8, 2, 0.5, 0.0)


# The per-seed implementation the shared-geometry one replaced, kept as the
# oracle: one field per call, gradients picked with a 2-D gather.
def _oracle_simplex2d(xs, ys, perm):
    s = (xs + ys) * _F2
    i = np.floor(xs + s).astype(np.int64)
    j = np.floor(ys + s).astype(np.int64)
    t = (i + j) * _G2
    x0 = xs - (i - t)
    y0 = ys - (j - t)
    i1 = (x0 > y0).astype(np.int64)
    j1 = 1 - i1
    x1 = x0 - i1 + _G2
    y1 = y0 - j1 + _G2
    x2 = x0 - 1.0 + 2.0 * _G2
    y2 = y0 - 1.0 + 2.0 * _G2
    ii = i & 255
    jj = j & 255
    gi0 = perm[ii + perm[jj]] % 8
    gi1 = perm[ii + i1 + perm[jj + j1]] % 8
    gi2 = perm[ii + 1 + perm[jj + 1]] % 8

    def corner(gx, cx, cy):
        tt = 0.5 - cx * cx - cy * cy
        g = _GRAD[gx]
        val = tt * tt * tt * tt * (g[..., 0] * cx + g[..., 1] * cy)
        return np.where(tt > 0.0, val, 0.0)

    return 70.0 * (corner(gi0, x0, y0) + corner(gi1, x1, y1) + corner(gi2, x2, y2))


def _oracle_octave_grid(seed, width, height, octaves, persistence, base_scale):
    perm = _perm_table(seed)
    cols, rows = np.meshgrid(np.arange(width, dtype=np.float64),
                             np.arange(height, dtype=np.float64))
    out = np.zeros((height, width))
    for o in range(octaves):
        scale = base_scale / (2.0 ** o)
        off = 31.0 * (o + 1)
        out += (persistence ** o) * _oracle_simplex2d(cols / scale + off,
                                                      rows / scale + off, perm)
    return out


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@settings(max_examples=150, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=9),
       width=st.integers(1, 48), height=st.integers(1, 17),
       octaves=st.integers(1, 6),
       persistence=st.floats(0.0, 1.0, exclude_min=True),
       base_scale=st.floats(0.25, 80.0))
def test_octave_grids_match_per_seed_fields_and_oracle(
        seeds, width, height, octaves, persistence, base_scale):
    grids = octave_grids(seeds, width, height, octaves, persistence, base_scale)
    assert grids.shape == (len(seeds), height, width)
    for k, seed in enumerate(seeds):
        one = octave_grid(seed, width, height, octaves, persistence, base_scale)
        ref = _oracle_octave_grid(seed, width, height, octaves, persistence,
                                  base_scale)
        assert _same_bits(grids[k], one)
        assert _same_bits(grids[k], ref)


@settings(max_examples=50, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=5),
       n=st.integers(1, 300),
       lo=st.floats(-1e3, 1e3), span=st.floats(0.0, 500.0))
def test_noise_stack_matches_oracle_per_table(seeds, n, lo, span):
    # coordinates well off the pixel grid, negative ones included
    xs = np.linspace(lo, lo + span, n)
    ys = np.linspace(lo + span, lo - 0.5 * span, n)
    perms = np.stack([_perm_table(s) for s in seeds])
    stack = _noise(_geometry(xs, ys), perms)
    assert stack.shape == (len(seeds), n)
    for k, perm in enumerate(perms):
        assert _same_bits(stack[k], _oracle_simplex2d(xs, ys, perm))


@pytest.mark.parametrize("origin", [0.0, -0.0])
def test_noise_at_the_origin_keeps_the_oracle_sign(origin):
    # only corner 0 is live at the origin, and its gradient dot is a signed
    # zero; a dead corner whose dot is negative must still add +0.0
    xs = np.array([origin])
    perms = np.stack([_perm_table(s) for s in range(2000)])
    stack = _noise(_geometry(xs, xs), perms)
    for k, perm in enumerate(perms):
        assert _same_bits(stack[k], _oracle_simplex2d(xs, xs, perm))


def test_octave_grids_bit_identical_when_shapes_alternate():
    # the one-entry geometry memo is evicted and rebuilt on every change
    shapes = [([3, 7, 11], 32, 32, 6, 0.8, 32.0),  # placement noise
              ([5], 64, 64, 2, 0.5, 16.0),         # phantom texture
              ([9, 2], 17, 23, 3, 0.6, 7.5)]
    simplex._grid_geometry.cache_clear()
    first = {}
    for rnd in range(2):
        for k, (seeds, *shape) in enumerate(shapes):
            misses = simplex._grid_geometry.cache_info().misses
            grids = octave_grids(seeds, *shape)
            assert simplex._grid_geometry.cache_info().misses == misses + 1
            for row, seed in zip(grids, seeds):
                assert _same_bits(row, _oracle_octave_grid(seed, *shape))
            if rnd:
                assert _same_bits(grids, first[k])
            first[k] = grids


def test_memoized_geometry_is_read_only():
    octave_grids([1], 16, 12, 3, 0.5, 8.0)
    geometry = simplex._grid_geometry(16, 12, 3, 8.0)
    assert len(geometry) == 3
    for g in geometry:
        arrays = [g.x0, g.y0, g.lower, *g.falloff, *g.corner, g.li, g.lj]
        assert not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError):
            g.x0[0, 0] = 1.0
