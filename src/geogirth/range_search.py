"""Batched range searching over disks: the outgoing-edge reporter (R1) and
the batched union-of-disks membership test (R2).

R1 reports, for every query site s, all sites t with r_t >= r_s/2 lying in
D_s -- or certifies a crowded square that forces a triangle.  Disks are
approximated by at most 25 grid cells; cell queries ride down the radius
tree as Z-sorted batches and reduce to predecessor probes in the per-node
linearized quadtrees.  Nodes of at most 64 sites answer by binary search of
each cell's key range in their Z-sorted point codes instead.  The edge
lists come back as CSR arrays.

R2 lifts disks to upper halfspaces and query points onto the paraboloid:
a query point lies in the union of a canonical interval's disks exactly
when it violates the intersection of the lifted halfspaces.  Both sides are
represented per node; the violation test compares each lifted query vertex
against the faces of the union polytope.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .grids import ranges_concat
from .radius_tree import RadiusTree
from .sites import InvariantViolation, SiteSet
from .zorder import (CompressedQuadtree, ZKeys,
                     build_compressed_quadtree_from_codes, choose_depth,
                     neighborhood)

ALPHA = 72


@dataclass(frozen=True)
class CrowdedSquare:
    """Axis-aligned square certifying > alpha sites of radius >= side/4."""

    x0: float
    y0: float
    side: float

    def qualifying_sites(self, S: SiteSet) -> list[int]:
        x1, y1 = self.x0 + self.side, self.y0 + self.side
        inside = ((self.x0 <= S.xs) & (S.xs <= x1) & (self.y0 <= S.ys)
                  & (S.ys <= y1) & (S.rs >= self.side / 4.0))
        return np.flatnonzero(inside).tolist()


@dataclass
class R1Outcome:
    """Either a crowded square or the edge lists, never both.

    `offsets` (n + 1 entries) and `targets` are the edge lists in CSR form:
    site s's targets are targets[offsets[s]:offsets[s + 1]], in increasing
    id order, at most alpha of them; sites that were not queried have none.
    Both are None when the outcome is crowded.
    """

    crowded: Optional[CrowdedSquare]
    offsets: Optional[np.ndarray] = None
    targets: Optional[np.ndarray] = None

    @property
    def is_crowded(self) -> bool:
        return self.crowded is not None

    @functools.cached_property
    def edges(self) -> Optional[list[np.ndarray]]:
        """Per-site views of the target lists, built on first read."""
        if self.offsets is None:
            return None
        bounds = self.offsets.tolist()
        return [self.targets[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


class _CrowdedAbort(Exception):
    def __init__(self, square: CrowdedSquare):
        self.square = square


def _neighborhood_rows(S: SiteSet, query_ids: np.ndarray, zk: ZKeys):
    """Split queries: one row per (neighborhood cell, query site)."""
    if not zk.int64:
        q_sites: list[int] = []
        levels: list[int] = []
        ixs: list[int] = []
        iys: list[int] = []
        for q in query_ids.tolist():
            s = S[q]
            for c in neighborhood(s.x, s.y, s.r, zk.depth):
                q_sites.append(q)
                levels.append(c.level)
                ixs.append(c.ix)
                iys.append(c.iy)
        k0, k3, ckey = zk.cell_keys(np.array(levels, dtype=np.int64),
                                    np.array(ixs, dtype=np.int64),
                                    np.array(iys, dtype=np.int64))
        return np.array(q_sites, dtype=np.int64), k0, k3, ckey

    xs, ys, rs = S.xs[query_ids], S.ys[query_ids], S.rs[query_ids]
    lev = np.zeros(len(query_ids), dtype=np.int64)
    small = rs < 1.0
    lev[small] = np.maximum(0, -np.floor(np.log2(rs[small]))).astype(np.int64)
    lev = np.minimum(lev, zk.depth)
    side = np.ldexp(1.0, -lev)
    nmax = (np.int64(1) << lev) - 1
    ix0 = np.maximum(np.floor((xs - rs) / side), 0).astype(np.int64)
    ix1 = np.minimum(np.floor((xs + rs) / side).astype(np.int64), nmax)
    iy0 = np.maximum(np.floor((ys - rs) / side), 0).astype(np.int64)
    iy1 = np.minimum(np.floor((ys + rs) / side).astype(np.int64), nmax)
    w = ix1 - ix0 + 1
    h = iy1 - iy0 + 1
    counts = w * h
    if int(counts.max(initial=0)) > 25:
        raise InvariantViolation("neighborhood bounding box exceeds 25 cells")
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    row = np.repeat(np.arange(len(query_ids), dtype=np.int64), counts)
    kloc = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
    hh = h[row]
    ix = ix0[row] + kloc // hh
    iy = iy0[row] + kloc % hh
    # keep only cells actually intersecting the disk
    sd = side[row]
    cx = np.clip(xs[row], ix * sd, (ix + 1) * sd)
    cy = np.clip(ys[row], iy * sd, (iy + 1) * sd)
    keep = (cx - xs[row]) ** 2 + (cy - ys[row]) ** 2 <= rs[row] ** 2
    row, ix, iy = row[keep], ix[keep], iy[keep]
    k0, k3, ckey = zk.cell_keys(lev[row], ix, iy)
    return query_ids[row], k0, k3, ckey


def _cell_to_original(norm: SiteSet, level: int, k0, zk: ZKeys) -> CrowdedSquare:
    cell = zk.decode(level, k0)
    tr = norm.normalization
    side = cell.side() * tr.scale
    return CrowdedSquare(cell.ix * cell.side() * tr.scale + tr.offset_x,
                         cell.iy * cell.side() * tr.scale + tr.offset_y, side)


_FAT_LEAF = 64


def solve_R1(S: SiteSet, query_ids: Optional[Sequence[int]] = None,
             alpha: int = ALPHA) -> R1Outcome:
    """Either per-site outgoing edges st with r_t >= r_s/2 (all lists short),
    or a crowded square witnessing a triangle.

    Cell batches ride down the radius tree; nodes larger than a small cutoff
    answer by quadtree predecessor search.  Nodes of at most _FAT_LEAF sites
    place each cell's key range [k0, k3] in their Z-sorted point codes by
    binary search and keep the sites at or above the row's radius position
    (same outputs, less per-node overhead).
    """
    n = len(S)
    if query_ids is None:
        qids = np.arange(n, dtype=np.int64)
    else:
        qids = np.asarray(sorted(query_ids), dtype=np.int64)
    if len(qids) == 0:
        return R1Outcome(None, np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int64))
    norm = S.normalized()
    B = RadiusTree(norm)

    depth = choose_depth(norm.xs, norm.ys, float(norm.rs[qids].min()))
    zk = ZKeys(depth)
    codes = zk.point_codes(norm.xs, norm.ys)
    z_order = np.argsort(codes, kind="stable").astype(np.int64)

    q_site, qk0, qk3, qck = _neighborhood_rows(norm, qids, zk)
    i1 = np.searchsorted(B.radii_sorted, norm.rs[q_site] / 2.0, side="left")
    # rows with equal keys share one cell, so their order is immaterial
    order = np.argsort(qck)
    q_site, qk0, qk3, qck, i1 = (q_site[order], qk0[order], qk3[order],
                                 qck[order], i1[order])

    pairs_s: list[np.ndarray] = []
    pairs_t: list[np.ndarray] = []

    def crowded_from_row(row: int) -> _CrowdedAbort:
        lev = _query_level(norm, int(q_site[row]), zk)
        return _CrowdedAbort(_cell_to_original(norm, lev, qk0[row], zk))

    def process(sel: np.ndarray, tree: CompressedQuadtree) -> None:
        idx = np.searchsorted(tree.ckey, qck[sel], side="right") - 1
        idxc = np.maximum(idx, 0)
        pred_ok = (idx >= 0) & (tree.k0[idxc] >= qk0[sel]) & (tree.k3[idxc] <= qk3[sel])
        succ = np.minimum(idx + 1, len(tree) - 1)
        succ_ok = (~pred_ok) & (idx + 1 < len(tree)) & tree.is_leaf[succ] & \
            (tree.k0[succ] <= qk0[sel]) & (tree.k3[succ] >= qk3[sel])
        if succ_ok.any():
            code = tree.point_codes[tree.site_lo[succ]]
            succ_ok &= (qk0[sel] <= code) & (code <= qk3[sel])
        lo = np.where(pred_ok, tree.site_lo[idxc],
                      np.where(succ_ok, tree.site_lo[succ], 0)).astype(np.int64)
        hi = np.where(pred_ok, tree.site_hi[idxc],
                      np.where(succ_ok, tree.site_hi[succ], 0)).astype(np.int64)
        k = hi - lo
        over = k > alpha
        if over.any():
            raise crowded_from_row(int(sel[int(np.flatnonzero(over)[0])]))
        if int(k.sum()):
            flat = ranges_concat(lo, hi)[1]
            pairs_s.append(np.repeat(q_site[sel], k))
            pairs_t.append(tree.zorder_sites[flat])

    def fat_leaf(v: int, rows: np.ndarray, sites_z: np.ndarray,
                 codes_z: np.ndarray) -> None:
        if not len(sites_z) or not len(rows):
            return
        lo = np.searchsorted(codes_z, qk0[rows], side="left")
        hi = np.searchsorted(codes_z, qk3[rows], side="right")
        ri, zi = ranges_concat(lo, hi)
        keep = B.pos_of_site[sites_z[zi]] >= np.maximum(i1[rows[ri]], int(B.lo[v]))
        ri, zi = ri[keep], zi[keep]
        over = np.bincount(ri, minlength=len(rows)) > alpha
        if over.any():
            raise crowded_from_row(int(rows[int(np.flatnonzero(over)[0])]))
        if len(ri):
            pairs_s.append(q_site[rows[ri]])
            pairs_t.append(sites_z[zi])

    def visit(v: int, rows: np.ndarray, sites_z: np.ndarray, codes_z: np.ndarray) -> None:
        lo_v, hi_v = int(B.lo[v]), int(B.hi[v])
        if hi_v - lo_v <= _FAT_LEAF:
            fat_leaf(v, rows, sites_z, codes_z)
            return
        here = rows[i1[rows] <= lo_v]
        if len(here):
            tree = build_compressed_quadtree_from_codes(zk, sites_z, codes_z)
            process(here, tree)
        path = rows[i1[rows] > lo_v]
        if not len(path):
            return
        lv, rv = int(B.left[v]), int(B.right[v])
        mid = int(B.lo[rv])
        pos = B.pos_of_site[sites_z]
        lmask = (pos >= B.lo[lv]) & (pos < B.hi[lv])
        left_rows = path[i1[path] < mid]
        if len(left_rows):
            visit(lv, left_rows, sites_z[lmask], codes_z[lmask])
        visit(rv, path, sites_z[~lmask], codes_z[~lmask])

    root_rows = np.flatnonzero(i1 < n).astype(np.int64)
    try:
        visit(B.root, root_rows, z_order, codes[z_order])
    except _CrowdedAbort as ab:
        return R1Outcome(ab.square)

    if pairs_s:
        ps = np.concatenate(pairs_s)
        pt = np.concatenate(pairs_t)
    else:
        ps = pt = np.empty(0, dtype=np.int64)
    dx = norm.xs[pt] - norm.xs[ps]
    dy = norm.ys[pt] - norm.ys[ps]
    inside = dx * dx + dy * dy <= norm.rs[ps] * norm.rs[ps]
    ps, pt = ps[inside], pt[inside]
    # disk crowding counts the query site itself (it qualifies for its own
    # enclosing square); the self pair is dropped from the edge lists only
    counts = np.bincount(ps, minlength=n)
    over = np.flatnonzero(counts > alpha)
    if len(over):
        s = int(over[0])
        side = 2.0 * S.rs[s]
        return R1Outcome(CrowdedSquare(S.xs[s] - S.rs[s], S.ys[s] - S.rs[s], side))
    keep = ps != pt
    ps, pt = ps[keep], pt[keep]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(ps, minlength=n), out=offsets[1:])
    return R1Outcome(None, offsets, pt[np.lexsort((pt, ps))])


def _query_level(norm: SiteSet, site: int, zk: ZKeys) -> int:
    r = float(norm.rs[site])
    level = max(0, -math.floor(math.log2(r))) if r < 1.0 else 0
    return min(level, zk.depth)


# ---------------------------------------------------------------------------
# R2: lifted polytopes


@dataclass(frozen=True)
class QueryTripleR2:
    s: int          # query site id
    r1: float
    r2: float
    tag: int = -1   # caller payload (e.g. the partner edge target)

    def __post_init__(self):
        if not (0 < self.r1 < self.r2):
            raise ValueError("query triple needs 0 < r1 < r2")


def lifted_planes(S: SiteSet) -> np.ndarray:
    """(n, 3) rows [a, b, c] of the halfspace z >= ax + by + c per disk."""
    a = 2.0 * S.xs
    b = 2.0 * S.ys
    c = S.rs * S.rs - S.xs * S.xs - S.ys * S.ys
    return np.column_stack((a, b, c))


def lifted_points(S: SiteSet, ids: np.ndarray) -> np.ndarray:
    x = S.xs[ids]
    y = S.ys[ids]
    return np.column_stack((x, y, x * x + y * y))


_HULL_MIN = 64


def upper_envelope_faces(planes: np.ndarray) -> np.ndarray:
    """Indices of planes appearing on the upper envelope z = max(ax+by+c).

    Computed as the upper convex hull of the dual points (a, b, c); on
    degenerate inputs falls back to "all planes", which only costs time.
    """
    m = len(planes)
    if m <= 3:
        return np.arange(m, dtype=np.int64)
    try:
        from scipy.spatial import ConvexHull, QhullError
    except ImportError:                      # pragma: no cover
        return np.arange(m, dtype=np.int64)
    try:
        hull = ConvexHull(planes)
    except (QhullError, ValueError):
        return np.arange(m, dtype=np.int64)
    up = hull.equations[:, 2] > 0.0
    if not up.any():
        return np.arange(m, dtype=np.int64)
    return np.unique(hull.simplices[up])


@dataclass
class QueryHull:
    """Convex hull of the lifted query points with a given canonical node;
    every lifted point lies on the paraboloid, hence is a hull vertex."""

    query_idx: np.ndarray       # indices into the query list (empty marker: len 0)
    points: np.ndarray          # (m, 3) lifted coordinates


def _canonical_ranges(B: RadiusTree, q: QueryTripleR2) -> list[tuple[int, int]]:
    """Position ranges covering {t : r_t in [r1, r2), t != s}."""
    i1 = B.index_of_radius(q.r1)
    i2 = B.index_of_radius(q.r2)
    p = int(B.pos_of_site[q.s])
    if i1 <= p < i2:
        return [(i1, p), (p + 1, i2)]
    return [(i1, i2)]


def build_query_hulls(B: RadiusTree, queries: Sequence[QueryTripleR2],
                      geometry: Optional[SiteSet] = None) -> dict[int, QueryHull]:
    """Per canonical node, the hull of its lifted query points.

    `geometry` supplies the coordinates to lift (defaults to the tree's own
    sites); radii in the query triples must be in the tree's units.
    """
    node_queries: dict[int, list[int]] = {}
    for qi, q in enumerate(queries):
        for a, b in _canonical_ranges(B, q):
            for v in B.canonical_nodes_for_positions(a, b):
                node_queries.setdefault(v, []).append(qi)
    S = geometry if geometry is not None else B.S
    out: dict[int, QueryHull] = {}
    for v, qlist in node_queries.items():
        ids = np.array([queries[qi].s for qi in qlist], dtype=np.int64)
        out[v] = QueryHull(np.array(qlist, dtype=np.int64), lifted_points(S, ids))
    return out


def solve_R2(S: SiteSet, queries: Sequence[QueryTripleR2]) -> Optional[tuple[int, int]]:
    """A pair (site u, query index) with u != s, r_u in [r1, r2) and s in
    D_u for that query, or None.

    Works on the normalized coordinates; the in-disk predicate is scale
    invariant, so returned ids are valid for the original sites.
    """
    if not queries:
        return None
    norm = S.normalized()
    # radius tree over the original radii: query thresholds are in original
    # units; the sort order (and hence the node slices) match the normalized
    # tree since normalization scales all radii uniformly
    B = RadiusTree(S)
    hulls = build_query_hulls(B, queries, geometry=norm)
    if not hulls:
        return None
    planes_sorted = lifted_planes(norm)[B.order]

    for v in sorted(hulls.keys()):
        qh = hulls[v]
        lo, hi = int(B.lo[v]), int(B.hi[v])
        pl = planes_sorted[lo:hi]
        # envelope extraction only pays off when many queries share the
        # node; testing few queries against all planes is linear work
        if hi - lo >= _HULL_MIN and len(qh.points) > 16:
            faces = upper_envelope_faces(pl)
            pl_f = pl[faces]
        else:
            pl_f = pl
        # a lifted query vertex violates the union polytope iff some plane
        # rises above it: then the planar point lies inside that disk
        env = qh.points[:, :2] @ pl_f[:, :2].T + pl_f[:, 2][None, :]
        viol = env.max(axis=1) > qh.points[:, 2]
        if not viol.any():
            continue
        qi = int(qh.query_idx[int(np.flatnonzero(viol)[0])])
        q = queries[qi]
        sx, sy = norm.xs[q.s], norm.ys[q.s]
        ids = B.order[lo:hi]
        dx = norm.xs[ids] - sx
        dy = norm.ys[ids] - sy
        ok = dx * dx + dy * dy <= norm.rs[ids] * norm.rs[ids]
        ok &= ids != q.s
        hits = np.flatnonzero(ok)
        if not len(hits):
            raise InvariantViolation("lifted violation without a witness disk")
        return int(ids[hits[0]]), qi
    return None
