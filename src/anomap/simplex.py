"""Seeded 2-D simplex (gradient) noise, vectorized over coordinate grids.

Classic two-dimensional simplex noise (Gustavson, "Simplex noise
demystified", 2005): skew the plane onto a grid of equilateral triangles,
pick pseudo-random gradients at the three corners of the containing simplex
via a seeded permutation table, and sum the radially attenuated corner
contributions.  The conventional factor of 70 scales single octave output
into [-1, 1].

A field is drawn in two steps:

* **Geometry**, which depends only on the coordinates, never on the seed:
  the skewed cell origin offset ``(x0, y0)``, whether the point lies in the
  lower triangle, each corner's falloff ``tt**4`` (zero where ``tt <= 0``),
  and each corner's index into the distinct lattice points the coordinates
  touch, which ``np.unique`` ranks in ascending key order.
  :func:`octave_grids` keeps the geometry of its last pixel-grid shape
  (width, height, octaves, base scale) in a one-entry memo of read-only
  arrays, since a caller draws many fields of one shape in a row.
* **Per seed**, each distinct lattice point is hashed once through the
  permutation table into gradient tables ``gx``, ``gy`` of shape
  ``(seeds, points)``; every corner then gathers its gradient from those
  tables by its per-pixel point index.

The reference zeroes a dead corner (``tt <= 0``) after the product, giving
``+0.0``; multiplying a pre-zeroed falloff by a negative gradient dot gives
``-0.0`` instead.  The two agree everywhere except where all three corner
terms are ``-0.0``, a sum the reference never produces (three live corners
cannot all have a zero dot), so adding ``+0.0`` before the factor of 70
restores its bits exactly.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Sequence, Tuple

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


class _Geometry(NamedTuple):
    """Seed-independent lattice geometry of a coordinate array."""

    x0: np.ndarray
    y0: np.ndarray
    lower: np.ndarray       # x0 > y0: the middle corner is (1, 0), else (0, 1)
    falloff: Tuple[np.ndarray, np.ndarray, np.ndarray]  # tt**4, 0 if tt <= 0
    corner: Tuple[np.ndarray, np.ndarray, np.ndarray]   # index into (li, lj)
    li: np.ndarray          # distinct lattice points touched, in [0, 256]
    lj: np.ndarray


def _corner_offsets(x0: np.ndarray, y0: np.ndarray, lower: np.ndarray):
    """``(cx, cy)`` of the three corners, in the reference's operation order."""
    # the 0/1 flags subtract exactly as the reference's integer offsets
    return ((x0, y0),
            (x0 - lower + _G2, y0 - ~lower + _G2),
            (x0 - 1.0 + 2.0 * _G2, y0 - 1.0 + 2.0 * _G2))


def _geometry(xs: np.ndarray, ys: np.ndarray) -> _Geometry:
    s = (xs + ys) * _F2
    i = np.floor(xs + s).astype(np.int64)
    j = np.floor(ys + s).astype(np.int64)
    t = (i + j) * _G2
    x0 = xs - (i - t)
    y0 = ys - (j - t)
    lower = x0 > y0
    i1 = lower.astype(np.int64)
    ii = i & 255
    jj = j & 255
    # lattice point (i, j), i and j in [0, 256], is keyed 512 i + j
    keys = np.stack([ii * 512 + jj, (ii + i1) * 512 + (jj + 1 - i1),
                     (ii + 1) * 512 + (jj + 1)])
    # the distinct keys, ascending, and each corner's rank among them, held
    # in the smallest unsigned type (numpy 1.x returns the ranks flat)
    points, inverse = np.unique(keys, return_inverse=True)
    inverse = inverse.reshape(keys.shape).astype(
        np.min_scalar_type(max(points.size - 1, 0)))
    falloff = []
    for cx, cy in _corner_offsets(x0, y0, lower):
        tt = 0.5 - cx * cx - cy * cy
        falloff.append(np.where(tt > 0.0, tt * tt * tt * tt, 0.0))
    return _Geometry(x0, y0, lower, tuple(falloff), tuple(inverse),
                     points >> 9, points & 511)


def _noise(g: _Geometry, perms: np.ndarray) -> np.ndarray:
    """Raw noise of the geometry's coordinates for each permutation table
    in the stack ``perms`` of shape ``(N, 512)``."""
    flat = perms.ravel()
    # table n occupies [512 n, 512 n + 512) of the flattened stack
    start = np.arange(perms.shape[0], dtype=np.int64)[:, None] * perms.shape[1]
    # one hash per table and lattice point: (N, points) gradient tables
    grad = flat[start + g.li + flat[start + g.lj]] % 8
    gx = _GX[grad]
    gy = _GY[grad]
    out = None
    offsets = _corner_offsets(g.x0, g.y0, g.lower)
    for (cx, cy), f, idx in zip(offsets, g.falloff, g.corner):
        v = np.take(gx, idx, axis=1)
        v *= cx
        w = np.take(gy, idx, axis=1)
        w *= cy
        v += w
        v *= f
        if out is None:
            out = v
        else:
            out += v
    out += 0.0  # -0.0 -> +0.0, as the reference's zeroed dead corners give
    out *= 70.0
    return out


@functools.lru_cache(maxsize=1)
def _grid_geometry(width: int, height: int, octaves: int,
                   base_scale: float) -> Tuple[_Geometry, ...]:
    """Each octave's geometry on a ``height`` x ``width`` pixel grid."""
    cols, rows = np.meshgrid(np.arange(width, dtype=np.float64),
                             np.arange(height, dtype=np.float64))
    out = []
    for o in range(octaves):
        scale = base_scale / (2.0 ** o)
        # shift octaves apart so they do not share lattice alignment
        off = 31.0 * (o + 1)
        g = _geometry(cols / scale + off, rows / scale + off)
        # every caller shares the memoized arrays
        for a in (g.x0, g.y0, g.lower, *g.falloff, *g.corner, g.li, g.lj):
            a.flags.writeable = False
        out.append(g)
    return tuple(out)


def octave_grids(seeds: Sequence[int], width: int, height: int, octaves: int,
                 persistence: float, base_scale: float) -> np.ndarray:
    """:func:`octave_grid` for each seed, stacked into ``(N, height, width)``.

    Row n equals ``octave_grid(seeds[n], ...)`` bit for bit; the lattice
    geometry is shared by all seeds and memoized for the last grid shape.
    """
    if octaves < 1:
        raise ValueError("octaves must be >= 1")
    if not 0.0 < persistence <= 1.0:
        raise ValueError("persistence must lie in (0, 1]")
    if base_scale <= 0.0:
        raise ValueError("base_scale must be positive")
    perms = np.array([_perm_table(s) for s in seeds], dtype=np.int64).reshape(-1, 512)
    out = np.zeros((len(perms), height, width))
    for o, g in enumerate(_grid_geometry(width, height, octaves, base_scale)):
        out += (persistence ** o) * _noise(g, perms)
    return out


def octave_grid(seed: int, width: int, height: int, octaves: int,
                persistence: float, base_scale: float) -> np.ndarray:
    """Sum of ``persistence**o`` weighted octaves on a pixel grid, unnormalized."""
    return octave_grids([seed], width, height, octaves, persistence, base_scale)[0]
