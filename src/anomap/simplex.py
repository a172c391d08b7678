"""Seeded 2-D simplex (gradient) noise, vectorized over coordinate grids.

Classic two-dimensional simplex noise: skew the plane onto a grid of
equilateral triangles, pick pseudo-random gradients at the three corners of
the containing simplex via a seeded permutation table, and sum the radially
attenuated corner contributions.  The conventional factor of 70 scales single
octave output into [-1, 1].

The lattice geometry (skew, containing simplex, corner offsets and falloff)
depends only on the coordinates, never on the seed.  :func:`simplex2d` takes
a stack of permutation tables and computes that geometry once for all of
them; each seed then only looks up its gradient indices.  :func:`octave_grids`
draws many same-sized fields with one such call per octave.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_F2 = 0.5 * (np.sqrt(3.0) - 1.0)
_G2 = (3.0 - np.sqrt(3.0)) / 6.0

# 8 unit-ish gradient directions, as in the reference implementation
_GRAD = np.array([
    [1, 1], [-1, 1], [1, -1], [-1, -1],
    [1, 0], [-1, 0], [0, 1], [0, -1],
], dtype=np.float64)
_GX = _GRAD[:, 0].copy()
_GY = _GRAD[:, 1].copy()


def _perm_table(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    p = rng.permutation(256)
    return np.concatenate([p, p]).astype(np.int64)


def simplex2d(xs: np.ndarray, ys: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Raw simplex noise at the given coordinates; output in [-1, 1].

    ``perm`` is one permutation table of shape ``(512,)``, giving an array
    shaped like ``xs``, or a stack ``(N, 512)``, giving ``(N, *xs.shape)``
    with row n equal to the noise for table n alone.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    perm = np.asarray(perm, dtype=np.int64)
    if perm.ndim == 1:
        return simplex2d(xs, ys, perm[None])[0]

    s = (xs + ys) * _F2
    i = np.floor(xs + s).astype(np.int64)
    j = np.floor(ys + s).astype(np.int64)
    t = (i + j) * _G2
    x0 = xs - (i - t)
    y0 = ys - (j - t)

    # offsets of the middle corner: lower triangle when x0 > y0
    i1 = (x0 > y0).astype(np.int64)
    j1 = 1 - i1

    x1 = x0 - i1 + _G2
    y1 = y0 - j1 + _G2
    x2 = x0 - 1.0 + 2.0 * _G2
    y2 = y0 - 1.0 + 2.0 * _G2

    # table n occupies [512 n, 512 n + 512) of the flattened stack
    base = (np.arange(perm.shape[0], dtype=np.int64) * perm.shape[1]).reshape(
        (-1,) + (1,) * xs.ndim)
    flat = perm.ravel()
    flat8 = flat % 8
    bi = base + (i & 255)
    bj = base + (j & 255)

    def corner(ai, aj, cx, cy):
        g = flat8[bi + ai + flat[bj + aj]]
        tt = 0.5 - cx * cx - cy * cy
        val = tt * tt * tt * tt * (_GX[g] * cx + _GY[g] * cy)
        return np.where(tt > 0.0, val, 0.0)

    return 70.0 * (corner(0, 0, x0, y0) + corner(i1, j1, x1, y1)
                   + corner(1, 1, x2, y2))


def octave_grids(seeds: Sequence[int], width: int, height: int, octaves: int,
                 persistence: float, base_scale: float) -> np.ndarray:
    """:func:`octave_grid` for each seed, stacked into ``(N, height, width)``.

    Row n equals ``octave_grid(seeds[n], ...)`` bit for bit; each octave's
    lattice geometry is computed once and shared by all seeds.
    """
    if octaves < 1:
        raise ValueError("octaves must be >= 1")
    if not 0.0 < persistence <= 1.0:
        raise ValueError("persistence must lie in (0, 1]")
    if base_scale <= 0.0:
        raise ValueError("base_scale must be positive")
    perms = np.array([_perm_table(s) for s in seeds], dtype=np.int64).reshape(-1, 512)
    cols, rows = np.meshgrid(np.arange(width, dtype=np.float64),
                             np.arange(height, dtype=np.float64))
    out = np.zeros((len(perms), height, width))
    for o in range(octaves):
        scale = base_scale / (2.0 ** o)
        # shift octaves apart so they do not share lattice alignment
        off = 31.0 * (o + 1)
        out += (persistence ** o) * simplex2d(cols / scale + off, rows / scale + off, perms)
    return out


def octave_grid(seed: int, width: int, height: int, octaves: int,
                persistence: float, base_scale: float) -> np.ndarray:
    """Sum of ``persistence**o`` weighted octaves on a pixel grid, unnormalized."""
    return octave_grids([seed], width, height, octaves, persistence, base_scale)[0]
