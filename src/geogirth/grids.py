"""Uniform grid bucketing with packed integer cell keys.

A site (x, y) lies in cell (floor((x - ox) / ell), floor((y - oy) / ell)),
addressed by the packed key ix * 2^32 + iy; once an index reaches 2^30,
where that would overflow int64, keys are Python ints ix * 2^1026 + iy
(every finite float index is below 2^1024, so no two cells share a key,
and iy +- k stays inside row ix).  ``GridIndex`` buckets
one grid for the weighted-girth cell sweep and the transmission decision;
``ShiftedGridIndex`` buckets the four shifted grids of the disk perimeter
decision with one sort along the rows of a (4, n) key array.  Cells
(ix + dx, iy - k .. iy + k) are consecutive keys, so a (2k+1)^2 block is
2k+1 ranges of a sorted key row: blocks around many anchors, and the 3x3
join of ``close_pairs``, take one pair of ``searchsorted`` calls.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .sites import SiteSet

_KEY_BASE = 1 << 32
_KEY_GUARD = 1 << 30
_WIDE_KEY_BASE = 1 << 1026
_GRID_ROWS = np.arange(4)[:, None]


def _cell_keys(xs: np.ndarray, ys: np.ndarray, ell: float, ox, oy):
    """Cell indices ix, iy of every site and their packed keys; offsets
    broadcast against the coordinates.  int64 arrays, or object arrays of
    Python ints when some index reaches 2^30."""
    fx = np.floor((xs - ox) / ell)
    fy = np.floor((ys - oy) / ell)
    if max(np.abs(fx).max(initial=0), np.abs(fy).max(initial=0)) < _KEY_GUARD:
        ix, iy = fx.astype(np.int64), fy.astype(np.int64)
    else:
        ix = np.array([int(v) for v in fx.ravel()], dtype=object).reshape(fx.shape)
        iy = np.array([int(v) for v in fy.ravel()], dtype=object).reshape(fy.shape)
    return ix, iy, ix * _key_base(ix) + iy


def _key_base(a: np.ndarray) -> int:
    return _WIDE_KEY_BASE if a.dtype == object else _KEY_BASE


# ---------------------------------------------------------------------------
# shifted grids


@dataclass(frozen=True)
class ShiftedGrids:
    """Four axis-aligned grids of cell side ell, shifted by ell/2, so that
    every square of side <= ell/2 fits inside one cell of one grid."""

    ell: float

    @property
    def offsets(self):
        h = self.ell / 2.0
        return ((0.0, 0.0), (h, 0.0), (0.0, h), (h, h))

    def cell_of(self, x: float, y: float, grid: int) -> tuple[int, int]:
        ox, oy = self.offsets[grid]
        return (int(math.floor((x - ox) / self.ell)),
                int(math.floor((y - oy) / self.ell)))


class ShiftedGridIndex:
    """Sites bucketed into the four shifted grids of side ell at once.

    Row g of ``keys`` holds grid g's packed cell keys in sorted order and
    row g of ``order`` the site ids in that order (a stable sort, so ids
    ascend within a cell); ``site_keys`` holds them unsorted.  Runs of equal
    keys are the occupied cells of all four grids, numbered grid by grid in
    key order: run r is ``order.ravel()[run_start[r]:run_start[r] +
    run_size[r]]`` in grid ``run_grid[r]``."""

    def __init__(self, xs: np.ndarray, ys: np.ndarray, ell: float):
        off = np.array(ShiftedGrids(ell).offsets)
        self.site_keys = _cell_keys(xs, ys, ell, off[:, :1], off[:, 1:])[2]
        self.order = np.argsort(self.site_keys, axis=1, kind="stable")
        self.keys = self.site_keys[_GRID_ROWS, self.order]
        n = len(xs)
        flat = self.keys.ravel()
        new = np.empty(len(flat) + 1, dtype=bool)
        np.not_equal(flat[1:], flat[:-1], out=new[1:-1])
        new[::max(n, 1)] = True
        bounds = np.flatnonzero(new)
        self.run_start = bounds[:-1]
        self.run_size = bounds[1:] - self.run_start
        self.run_grid = self.run_start // max(n, 1)

    def blocks(self, grid: np.ndarray, anchor_keys: np.ndarray,
               radius_cells: int) -> tuple[np.ndarray, np.ndarray]:
        """Sites of the (2k+1)^2 cell block around each anchor cell, given
        by its grid (non-decreasing) and packed key: (anchor index, site id)
        pairs, grouped by ascending anchor."""
        cut = np.searchsorted(grid, np.arange(5)).tolist()
        owners, sites = [], []
        for g in range(4):
            a0, a1 = cut[g], cut[g + 1]
            if a0 < a1:
                owner, pos = _block_ranges(self.keys[g], anchor_keys[a0:a1], radius_cells)
                owners.append(a0 + owner)
                sites.append(self.order[g][pos])
        if not owners:
            return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        return np.concatenate(owners), np.concatenate(sites)


def _block_ranges(sorted_keys: np.ndarray, anchor_keys: np.ndarray,
                  radius_cells: int) -> tuple[np.ndarray, np.ndarray]:
    """(anchor index, position in `sorted_keys`) of every key in the
    (2k+1)^2 block around each anchor key, anchor by anchor: the block is
    2k+1 ranges of consecutive keys, found by one pair of ``searchsorted``
    calls for all anchors."""
    k = radius_cells
    dk = _row_offsets(k, _key_base(sorted_keys)) - k
    lo = (anchor_keys[:, None] + dk[None, :]).ravel()
    rows, pos = ranges_concat(np.searchsorted(sorted_keys, lo, side="left"),
                              np.searchsorted(sorted_keys, lo + 2 * k, side="right"))
    return rows // (2 * k + 1), pos


class GridIndex:
    """Sites bucketed into one grid; supports batched neighbor-cell lookups.

    Cell keys are packed as ix * 2^32 + iy, or as Python ints when the
    indices would overflow the packing range, e.g. for very small W."""

    def __init__(self, S: SiteSet, ell: float, ox: float, oy: float):
        self.S = S
        self.ell = ell
        self.ix, self.iy, key = _cell_keys(S.xs, S.ys, ell, ox, oy)
        self.order = np.argsort(key, kind="stable")
        skey = key[self.order]
        if len(skey):
            starts = np.flatnonzero(np.concatenate(([True], skey[1:] != skey[:-1])))
        else:
            starts = np.empty(0, dtype=np.int64)
        self.run_keys = skey[starts]
        self.run_starts = starts.astype(np.int64)
        self.run_ends = np.concatenate((self.run_starts[1:],
                                        np.array([len(skey)], dtype=np.int64)))
        self.run_sizes = self.run_ends - self.run_starts
        # run index per site
        self.site_run = np.empty(len(key), dtype=np.int64)
        if len(skey):
            self.site_run[self.order] = np.repeat(
                np.arange(len(self.run_keys), dtype=np.int64), self.run_sizes)

    def block_reduce(self, per_run: np.ndarray, radius_cells: int) -> np.ndarray:
        """Per run, the sum of `per_run` over the (2k+1)^2 block around it.

        One sorted join per offset; no per-site key matrices."""
        R = len(self.run_keys)
        out = np.zeros(R, dtype=per_run.dtype)
        if R == 0:
            return out
        offs = range(-radius_cells, radius_cells + 1)
        for dx in offs:
            base = self.run_keys + dx * _key_base(self.run_keys)
            for dy in offs:
                pos = np.searchsorted(self.run_keys, base + dy)
                posc = np.minimum(pos, R - 1)
                hit = self.run_keys[posc] == base + dy
                out += np.where(hit, per_run[posc], 0)
        return out

    def run_reduce(self, values: np.ndarray) -> np.ndarray:
        """Per-cell sums of a per-site array (in bucket order)."""
        if not len(self.run_starts):
            return np.empty(0, dtype=values.dtype)
        return np.add.reduceat(values[self.order], self.run_starts)

    def lookup_many(self, keys: np.ndarray) -> np.ndarray:
        """Run index for each packed key, -1 where the cell is empty."""
        if not len(self.run_keys):
            return np.full(len(keys), -1, dtype=np.int64)
        pos = np.searchsorted(self.run_keys, keys)
        pos = np.minimum(pos, len(self.run_keys) - 1)
        hit = self.run_keys[pos] == keys
        return np.where(hit, pos, -1).astype(np.int64)

    def neighbor_keys(self, sites: np.ndarray, radius_cells: int) -> np.ndarray:
        """(m, (2k+1)^2) packed keys of the cell blocks around given sites."""
        kb = _key_base(self.ix)
        base = self.ix[sites] * kb + self.iy[sites]
        return base[:, None] + _block_offsets(radius_cells, kb)[None, :]

    def sites_of_runs(self, run_idx) -> np.ndarray:
        """Sites of the given runs, run by run in the given order; -1 skipped.

        Empty cells are dropped in numpy first, so the Python work is one
        slice per occupied cell: a few for one disk block, dozens for all
        tx anchor blocks at once."""
        r = np.asarray(run_idx, dtype=np.int64).ravel()
        r = r[r >= 0]
        parts = [self.order[a:b] for a, b in
                 zip(self.run_starts[r].tolist(), self.run_ends[r].tolist())]
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)

    def block_sites(self, site: int, radius_cells: int) -> np.ndarray:
        nk = self.neighbor_keys(np.array([site]), radius_cells)
        return self.sites_of_runs(self.lookup_many(nk.ravel()))


@functools.lru_cache(maxsize=None)
def _row_offsets(radius_cells: int, key_base: int) -> np.ndarray:
    """Packed key offsets dx * key_base, dx = -k..k (read-only)."""
    r = range(-radius_cells, radius_cells + 1)
    dk = np.array([dx * key_base for dx in r],
                  dtype=np.int64 if key_base == _KEY_BASE else object)
    dk.flags.writeable = False
    return dk


@functools.lru_cache(maxsize=None)
def _block_offsets(radius_cells: int, key_base: int) -> np.ndarray:
    """Packed key offsets of the (2k+1)^2 block, dx-major (read-only)."""
    r = range(-radius_cells, radius_cells + 1)
    dk = np.array([dx * key_base + dy for dx in r for dy in r],
                  dtype=np.int64 if key_base == _KEY_BASE else object)
    dk.flags.writeable = False
    return dk


def ranges_concat(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flatten ranges [lo_i, hi_i): returns (owner row per element, indices)."""
    k = np.maximum(hi - lo, 0)
    rows = np.flatnonzero(k > 0)
    if not len(rows):
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    kk = k[rows]
    ends = np.cumsum(kk)
    starts = ends - kk
    idx = np.arange(int(ends[-1]), dtype=np.int64) + np.repeat(lo[rows] - starts, kk)
    return np.repeat(rows, kk), idx


def close_pairs(xs: np.ndarray, ys: np.ndarray, ids: np.ndarray,
                radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Ordered pairs (a, b), a != b, of the given sites within `radius`
    (Euclidean), via one join on a grid of side `radius`: the 3x3 cells
    around each site are three ranges of the sorted keys, so all 3m ranges
    take one pair of ``searchsorted`` calls and one ``ranges_concat``."""
    m = len(ids)
    if m < 2:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    px, py = xs[ids], ys[ids]
    key = _cell_keys(px, py, radius, 0.0, 0.0)[2]
    order = np.argsort(key, kind="stable")
    ks = key[order]
    owner, pos = _block_ranges(ks, ks, 1)
    a = order[owner]
    b = order[pos]
    keep = a != b
    a, b = a[keep], b[keep]
    d2 = (px[a] - px[b]) ** 2 + (py[a] - py[b]) ** 2
    keep = d2 <= radius * radius
    return ids[a[keep]], ids[b[keep]]
