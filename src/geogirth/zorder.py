"""Hierarchical grid cells, Z-order, compressed quadtrees and disk
neighborhoods.

Cells of the hierarchical grid over the unit square are addressed by
(level, ix, iy); level i cells have side 2^-i, iy counts from the bottom.
The Z-order lists a contained cell before its container and orders unrelated
cells by the child order NW, NE, SW, SE at their lowest common ancestor.

Every cell gets an interleaved integer key (y-bits complemented so NW sorts
first) padded to a fixed depth: padding with zeros gives the start of the
cell's subtree range (k0), padding with ones the end (k3).  Sorting by
(k3, -level) is exactly the Z-order, so predecessor searches are plain
binary searches: ``CompressedQuadtree.site_ranges`` answers a batch of
query cells with one predecessor and one successor probe each, and
``neighborhood_cells`` lists the at most 25 cells meeting each disk.  Keys
fit an int64 up to depth 29 and cell indices up to level 62; deeper
instances fall back to Python integers transparently."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from .sites import InvariantViolation

INT64_MAX_DEPTH = 29
_LEVEL_BITS = 5            # int64 path: levels 0..29 fit in 5 bits
_LEVEL_MAX = (1 << _LEVEL_BITS) - 1


class GridCell(NamedTuple):
    level: int
    ix: int
    iy: int

    def side(self) -> float:
        return 2.0 ** (-self.level)

    def bounds(self):
        s = self.side()
        return (self.ix * s, self.iy * s, (self.ix + 1) * s, (self.iy + 1) * s)


ROOT = GridCell(0, 0, 0)


def _spread_bits64(v: np.ndarray) -> np.ndarray:
    v = v.astype(np.uint64)
    v = (v | (v << np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
    v = (v | (v << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
    v = (v | (v << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    v = (v | (v << np.uint64(2))) & np.uint64(0x3333333333333333)
    v = (v | (v << np.uint64(1))) & np.uint64(0x5555555555555555)
    return v


def _compact_bits64(v: np.ndarray) -> np.ndarray:
    v = v.astype(np.uint64) & np.uint64(0x5555555555555555)
    v = (v | (v >> np.uint64(1))) & np.uint64(0x3333333333333333)
    v = (v | (v >> np.uint64(2))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    v = (v | (v >> np.uint64(4))) & np.uint64(0x00FF00FF00FF00FF)
    v = (v | (v >> np.uint64(8))) & np.uint64(0x0000FFFF0000FFFF)
    v = (v | (v >> np.uint64(16))) & np.uint64(0x00000000FFFFFFFF)
    return v.astype(np.int64)


def _morton64(ix: np.ndarray, iy: np.ndarray, level) -> np.ndarray:
    """Interleaved key with complemented y as the high bit of each pair."""
    if np.isscalar(level):
        mask = np.uint64((1 << level) - 1)
    else:
        mask = ((np.uint64(1) << np.asarray(level).astype(np.uint64)) - np.uint64(1))
    iyc = mask - np.asarray(iy).astype(np.uint64)
    return ((_spread_bits64(iyc) << np.uint64(1)) |
            _spread_bits64(np.asarray(ix))).astype(np.int64)


def _morton_py(ix: int, iy: int, level: int) -> int:
    iyc = ((1 << level) - 1) - iy
    m = 0
    for b in range(level - 1, -1, -1):
        m = (m << 2) | (((iyc >> b) & 1) << 1) | ((ix >> b) & 1)
    return m


def _bit_length_u64(v: np.ndarray) -> np.ndarray:
    """Per-element bit length of nonnegative int64 values (exact)."""
    v = v.astype(np.uint64)
    hi = (v >> np.uint64(32)).astype(np.int64)
    lo = (v & np.uint64(0xFFFFFFFF)).astype(np.int64)
    use_hi = hi != 0
    sel = np.where(use_hi, hi, lo)
    f = np.maximum(sel, 1).astype(np.float64)
    bl = np.floor(np.log2(f)).astype(np.int64) + 1
    bl = np.where((np.int64(1) << np.maximum(bl - 1, 0)) > sel, bl - 1, bl)
    bl = np.where(sel == 0, 0, bl)
    return bl + np.where(use_hi, 32, 0)


class ZKeys:
    """Key computation for a fixed padding depth L, int64 or Python ints."""

    def __init__(self, depth: int):
        self.depth = depth
        self.int64 = depth <= INT64_MAX_DEPTH
        self.level_bits = _LEVEL_BITS if self.int64 else max(12, depth.bit_length() + 1)
        self.level_max = (1 << self.level_bits) - 1

    def keys_from_codes(self, levels, codes):
        """(k0, k3, ckey) of the level-`levels` ancestors of depth-L codes."""
        L = self.depth
        if self.int64:
            levels = np.asarray(levels, dtype=np.int64)
            codes = np.asarray(codes, dtype=np.int64)
            pad = (np.uint64(2) * (L - levels).astype(np.uint64))
            ones = (((np.uint64(1) << pad) - np.uint64(1))).astype(np.int64)
            k0 = codes & ~ones
            k3 = codes | ones
            ckey = (k3 << _LEVEL_BITS) | (_LEVEL_MAX - levels)
            return k0, k3, ckey
        k0l, k3l, ckl = [], [], []
        for l, c in zip(np.asarray(levels).tolist(), np.asarray(codes).tolist()):
            pad = 2 * (L - int(l))
            ones = (1 << pad) - 1
            a = int(c) & ~ones
            b = int(c) | ones
            k0l.append(a)
            k3l.append(b)
            ckl.append((b << self.level_bits) | (self.level_max - int(l)))
        return (np.array(k0l, dtype=object), np.array(k3l, dtype=object),
                np.array(ckl, dtype=object))

    def cell_keys(self, levels, ixs, iys):
        """(k0, k3, ckey) for explicit cells; ckey sorts in Z-order."""
        L = self.depth
        if self.int64:
            levels = np.asarray(levels, dtype=np.int64)
            m = _morton64(np.asarray(ixs), np.asarray(iys), levels)
            pad = (np.uint64(2) * (L - levels).astype(np.uint64))
            codes = (m.astype(np.uint64) << pad).astype(np.int64)
            return self.keys_from_codes(levels, codes)
        out0, out3, outc = [], [], []
        for l, x, y in zip(np.asarray(levels).tolist(),
                           np.asarray(ixs).tolist(), np.asarray(iys).tolist()):
            m = _morton_py(int(x), int(y), int(l)) << (2 * (L - int(l)))
            a, b, c = self.keys_from_codes([int(l)], [m])
            out0.append(a[0])
            out3.append(b[0])
            outc.append(c[0])
        return (np.array(out0, dtype=object), np.array(out3, dtype=object),
                np.array(outc, dtype=object))

    def level_of(self, ckey) -> int:
        """Level of the cell whose sort key (``cell_keys``' ckey) is `ckey`."""
        return self.level_max - (int(ckey) & self.level_max)

    def decode(self, level: int, k0) -> GridCell:
        pref = int(k0) >> (2 * (self.depth - level))
        if self.int64:
            ix = int(_compact_bits64(np.array([pref]))[0])
            iyc = int(_compact_bits64(np.array([pref >> 1]))[0])
        else:
            ix = iyc = 0
            for b in range(level):
                ix |= ((pref >> (2 * b)) & 1) << b
                iyc |= ((pref >> (2 * b + 1)) & 1) << b
        return GridCell(level, ix, ((1 << level) - 1) - iyc)

    def point_codes(self, xs: np.ndarray, ys: np.ndarray):
        """Depth-L cell key (k0 == k3) of each point in the unit square."""
        L = self.depth
        if self.int64:
            scale = float(1 << L)
            ix = np.minimum((xs * scale).astype(np.int64), (1 << L) - 1)
            iy = np.minimum((ys * scale).astype(np.int64), (1 << L) - 1)
            return _morton64(ix, iy, L)
        out = []
        two_L = 1 << L
        for x, y in zip(np.asarray(xs).tolist(), np.asarray(ys).tolist()):
            fx, fy = Fraction(x), Fraction(y)
            ix = min((fx.numerator << L) // fx.denominator, two_L - 1)
            iy = min((fy.numerator << L) // fy.denominator, two_L - 1)
            out.append(_morton_py(int(ix), int(iy), L))
        return np.array(out, dtype=object)


# ---------------------------------------------------------------------------
# compressed quadtree


class CompressedQuadtree:
    """Minimal quadtree over point sites: the root, every largest private
    cell, and all pairwise lowest common ancestors, single-child paths
    contracted.  Nodes are stored in increasing Z-order (a postorder), which
    doubles as the linearization."""

    __slots__ = ("zkeys", "n_sites", "zorder_sites", "point_codes",
                 "levels", "k0", "k3", "ckey", "site_lo", "site_hi",
                 "is_leaf", "leaf_site")

    def __init__(self, zkeys: ZKeys, zorder_sites: np.ndarray,
                 point_codes: np.ndarray, levels, k0, k3, ckey):
        self.zkeys = zkeys
        self.n_sites = len(zorder_sites)
        self.zorder_sites = zorder_sites        # site ids in Z-order
        self.point_codes = point_codes          # sorted depth-L codes
        self.levels = levels
        self.k0 = k0
        self.k3 = k3
        self.ckey = ckey
        self.site_lo = np.searchsorted(point_codes, k0, side="left").astype(np.int64)
        self.site_hi = np.searchsorted(point_codes, k3, side="right").astype(np.int64)
        self.is_leaf = (self.site_hi - self.site_lo) == 1
        self.leaf_site = np.where(
            self.is_leaf,
            zorder_sites[np.minimum(self.site_lo, max(self.n_sites - 1, 0))], -1)

    def __len__(self) -> int:
        return len(self.levels)

    @property
    def depth(self) -> int:
        return self.zkeys.depth

    def cell(self, i: int) -> GridCell:
        return self.zkeys.decode(int(self.levels[i]), self.k0[i])

    def cells(self) -> list[GridCell]:
        return [self.cell(i) for i in range(len(self))]

    def sites_in_node(self, i: int) -> np.ndarray:
        return self.zorder_sites[int(self.site_lo[i]):int(self.site_hi[i])]

    def site_ranges(self, k0, k3, ckey):
        """Per query cell (keys as from ``ZKeys.cell_keys``), the range
        [lo, hi) of ``zorder_sites`` holding exactly the sites inside it.

        The cell's Z-order predecessor holds the cell's sites when it lies
        inside the cell.  A cell strictly inside a leaf's cell is disjoint
        from its predecessor, so one successor probe tests that leaf's site.
        Any other cell holds no site and gets lo == hi == 0.
        """
        idx = np.searchsorted(self.ckey, ckey, side="right") - 1
        idxc = np.maximum(idx, 0)
        pred_ok = (idx >= 0) & (self.k0[idxc] >= k0) & (self.k3[idxc] <= k3)
        succ = np.minimum(idx + 1, len(self) - 1)
        succ_ok = (~pred_ok) & (idx + 1 < len(self)) & self.is_leaf[succ] & \
            (self.k0[succ] <= k0) & (self.k3[succ] >= k3)
        if succ_ok.any():
            code = self.point_codes[self.site_lo[succ]]
            succ_ok &= (k0 <= code) & (code <= k3)
        lo = np.where(pred_ok, self.site_lo[idxc],
                      np.where(succ_ok, self.site_lo[succ], 0)).astype(np.int64)
        hi = np.where(pred_ok, self.site_hi[idxc],
                      np.where(succ_ok, self.site_hi[succ], 0)).astype(np.int64)
        return lo, hi


def _lca_levels(codes: np.ndarray, depth: int, int64: bool) -> np.ndarray:
    """Level of the lowest common ancestor cell of adjacent code pairs."""
    if len(codes) < 2:
        return np.empty(0, dtype=np.int64)
    if int64:
        x = (codes[:-1] ^ codes[1:]).astype(np.int64)
        bl = _bit_length_u64(x)
        return depth - ((bl + 1) >> 1)
    out = []
    for a, b in zip(codes[:-1].tolist(), codes[1:].tolist()):
        bl = (int(a) ^ int(b)).bit_length()
        out.append(depth - ((bl + 1) >> 1))
    return np.array(out, dtype=np.int64)


def build_compressed_quadtree_from_codes(zkeys: ZKeys, site_ids: np.ndarray,
                                         codes: np.ndarray) -> CompressedQuadtree:
    """Build from sites already sorted by their depth-L point codes."""
    L = zkeys.depth
    n = len(site_ids)
    if n == 0:
        raise ValueError("empty site set")
    if n == 1:
        k0, k3, ck = zkeys.keys_from_codes([0], [codes[0] * 0])
        return CompressedQuadtree(zkeys, site_ids, codes,
                                  np.array([0], dtype=np.int64), k0, k3, ck)
    lca = _lca_levels(codes, L, zkeys.int64)
    if int(lca.max(initial=0)) >= L:
        raise InvariantViolation("two sites share a maximal-depth cell; deepen the tree")
    lv = np.empty(n, dtype=np.int64)
    lv[0] = lca[0] + 1
    lv[-1] = lca[-1] + 1
    if n > 2:
        lv[1:-1] = np.maximum(lca[:-1], lca[1:]) + 1
    levels = np.concatenate((lv, lca, np.array([0], dtype=np.int64)))
    if zkeys.int64:
        codes_all = np.concatenate((codes, codes[:-1], np.array([0], dtype=np.int64)))
    else:
        codes_all = np.concatenate((codes, codes[:-1], np.array([0], dtype=object)))
    k0, k3, ckey = zkeys.keys_from_codes(levels, codes_all)
    ckey_u, idx = np.unique(ckey, return_index=True)
    return CompressedQuadtree(zkeys, site_ids, codes,
                              levels[idx], k0[idx], k3[idx], ckey_u)


def choose_depth(xs: np.ndarray, ys: np.ndarray, min_radius: float = 1.0) -> int:
    """Smallest supported padding depth separating all sites and reaching
    the neighborhood level of the smallest radius."""
    need_r = 0
    if 0 < min_radius < 1.0:
        need_r = max(0, -math.floor(math.log2(min_radius)))
    L = max(26, need_r)
    while True:
        zk = ZKeys(L)
        codes = zk.point_codes(xs, ys)
        sc = np.sort(codes, kind="stable")
        if len(sc) < 2 or (sc[1:] != sc[:-1]).all():
            return L
        if L > 1200:
            raise InvariantViolation("cannot separate sites; duplicate coordinates?")
        L *= 2


def build_compressed_quadtree(xs, ys, depth: Optional[int] = None,
                              min_radius: float = 1.0):
    """Compressed quadtree over points strictly inside the unit square.

    Returns (tree, zkeys); the node order is the linearization.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if len(xs) == 0:
        raise ValueError("empty site set")
    if ((xs <= 0) | (xs >= 1) | (ys <= 0) | (ys >= 1)).any():
        raise ValueError("sites must lie strictly inside the unit square")
    if depth is None:
        depth = choose_depth(xs, ys, min_radius)
    zk = ZKeys(depth)
    codes = zk.point_codes(xs, ys)
    order = np.argsort(codes, kind="stable").astype(np.int64)
    tree = build_compressed_quadtree_from_codes(zk, order, codes[order])
    return tree, zk


# ---------------------------------------------------------------------------
# disk neighborhoods

_INDEX_MAX_LEVEL = 62      # cell indices of deeper levels pass int64


def neighborhood_cells(xs, ys, rs, depth: int):
    """Cells of side 2^floor(log2 r), at level at most `depth`, meeting
    each disk: at most 25 per disk, since the side exceeds r/2 and a 5x5
    block of such cells covers the disk wherever it sits.

    Returns (disk, level, ix, iy), one entry per cell, ordered by disk,
    then ix, then iy: the disk's index into xs/ys/rs, its level, and the
    cell indices.  The indices are int64 up to level 62 and Python ints
    (dtype=object) beyond.
    """
    lev = np.zeros(len(rs), dtype=np.int64)
    small = rs < 1.0
    lev[small] = np.maximum(0, -np.floor(np.log2(rs[small]))).astype(np.int64)
    lev = np.minimum(lev, depth)
    side = np.ldexp(1.0, -lev)
    fx0 = np.maximum(np.floor((xs - rs) / side), 0.0)
    fy0 = np.maximum(np.floor((ys - rs) / side), 0.0)
    fx1 = np.floor((xs + rs) / side)
    fy1 = np.floor((ys + rs) / side)
    if int(lev.max(initial=0)) <= _INDEX_MAX_LEVEL:
        nmax = (np.int64(1) << lev) - 1
        ix0, iy0 = fx0.astype(np.int64), fy0.astype(np.int64)
        ix1 = np.minimum(fx1.astype(np.int64), nmax)
        iy1 = np.minimum(fy1.astype(np.int64), nmax)
    else:
        as_int = np.frompyfunc(int, 1, 1)
        nmax = (np.ones(len(lev), dtype=object) << lev.astype(object)) - 1
        ix0, iy0 = as_int(fx0), as_int(fy0)
        ix1 = np.minimum(as_int(fx1), nmax)
        iy1 = np.minimum(as_int(fy1), nmax)
    w = (ix1 - ix0 + 1).astype(np.int64)
    h = (iy1 - iy0 + 1).astype(np.int64)
    counts = w * h
    if int(counts.max(initial=0)) > 25:
        raise InvariantViolation("neighborhood bounding box exceeds 25 cells")
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    disk = np.repeat(np.arange(len(rs), dtype=np.int64), counts)
    kloc = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
    hh = h[disk]
    ix = ix0[disk] + kloc // hh
    iy = iy0[disk] + kloc % hh
    # keep only cells actually meeting the disk
    sd = side[disk]
    cx = np.clip(xs[disk], ix.astype(np.float64) * sd, (ix + 1).astype(np.float64) * sd)
    cy = np.clip(ys[disk], iy.astype(np.float64) * sd, (iy + 1).astype(np.float64) * sd)
    keep = (cx - xs[disk]) ** 2 + (cy - ys[disk]) ** 2 <= rs[disk] ** 2
    disk = disk[keep]
    return disk, lev[disk], ix[keep], iy[keep]
