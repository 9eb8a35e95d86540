"""Uniform grid bucketing with packed integer cell keys.

Shared by the perimeter decisions and the weighted-girth cell sweep: sites
are bucketed by floor division, cells are addressed by packed (ix, iy) keys,
and neighbor blocks are fetched by batched binary search.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .sites import SiteSet

_KEY_BASE = 1 << 32
_KEY_GUARD = 1 << 30


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


class GridIndex:
    """Sites bucketed into one grid; supports batched neighbor-cell lookups.

    Cell keys are packed as ix * 2^32 + iy (falling back to Python ints when
    the indices would overflow the packing range, e.g. for very small W)."""

    def __init__(self, S: SiteSet, ell: float, ox: float, oy: float):
        self.S = S
        self.ell = ell
        fx = np.floor((S.xs - ox) / ell)
        fy = np.floor((S.ys - oy) / ell)
        if max(np.abs(fx).max(initial=0), np.abs(fy).max(initial=0)) < _KEY_GUARD:
            self.ix = fx.astype(np.int64)
            self.iy = fy.astype(np.int64)
            key = self.ix * _KEY_BASE + self.iy
        else:
            self.ix = np.array([int(v) for v in fx], dtype=object)
            self.iy = np.array([int(v) for v in fy], dtype=object)
            key = self.ix * _KEY_BASE + self.iy
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
            base = self.run_keys + dx * _KEY_BASE
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
        dk = _block_offsets(radius_cells)
        if self.ix.dtype == object:
            dk = dk.astype(object)
        base = self.ix[sites] * _KEY_BASE + self.iy[sites]
        return base[:, None] + dk[None, :]

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
def _block_offsets(radius_cells: int) -> np.ndarray:
    """Packed key offsets of the (2k+1)^2 block, dx-major (read-only)."""
    offs = np.arange(-radius_cells, radius_cells + 1, dtype=np.int64)
    dk = (offs[:, None] * _KEY_BASE + offs[None, :]).ravel()
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
    (Euclidean), via a 3x3 offset join on a radius-sized grid."""
    m = len(ids)
    if m < 2:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    px, py = xs[ids], ys[ids]
    kx = np.floor(px / radius)
    ky = np.floor(py / radius)
    if max(np.abs(kx).max(), np.abs(ky).max()) >= _KEY_GUARD:
        key = np.array([int(a) * _KEY_BASE + int(b) for a, b in
                        zip(kx.tolist(), ky.tolist())], dtype=object)
    else:
        key = kx.astype(np.int64) * _KEY_BASE + ky.astype(np.int64)
    order = np.argsort(key, kind="stable")
    ks = key[order]
    out_a: list = []
    out_b: list = []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            tgt = ks + (dx * _KEY_BASE + dy)
            lo = np.searchsorted(ks, tgt, side="left")
            hi = np.searchsorted(ks, tgt, side="right")
            rows, idx = ranges_concat(lo, hi)
            if not len(rows):
                continue
            a = order[rows]
            b = order[idx]
            keep = a != b
            a, b = a[keep], b[keep]
            if len(a):
                d2 = (px[a] - px[b]) ** 2 + (py[a] - py[b]) ** 2
                keep2 = d2 <= radius * radius
                out_a.append(a[keep2])
                out_b.append(b[keep2])
    if not out_a:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    return ids[np.concatenate(out_a)], ids[np.concatenate(out_b)]
