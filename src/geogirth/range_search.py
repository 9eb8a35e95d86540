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
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .grids import ranges_concat
from .radius_tree import RadiusTree
from .sites import InvariantViolation, SiteSet
from .zorder import (CompressedQuadtree, ZKeys,
                     build_compressed_quadtree_from_codes, choose_depth,
                     neighborhood_cells)

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


def _neighborhood_rows(norm: SiteSet, query_ids: np.ndarray, zk: ZKeys):
    """One row per (neighborhood cell, query site): the site and the cell's
    keys.  Rows outnumber sites up to 25 to 1, so nothing else is kept."""
    row, level, ix, iy = neighborhood_cells(norm.xs[query_ids], norm.ys[query_ids],
                                            norm.rs[query_ids], zk.depth)
    return (query_ids[row], *zk.cell_keys(level, ix, iy))


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
        return _CrowdedAbort(_cell_to_original(norm, zk.level_of(qck[row]), qk0[row], zk))

    def process(sel: np.ndarray, tree: CompressedQuadtree) -> None:
        lo, hi = tree.site_ranges(qk0[sel], qk3[sel], qck[sel])
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
    """(len(ids), 3) rows [x, y, x^2 + y^2]: the centers on the paraboloid."""
    x = S.xs[ids]
    y = S.ys[ids]
    return np.column_stack((x, y, x * x + y * y))


def lifted_violations(points: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """(m, k) booleans: plane j rises above lifted point i, i.e. planar
    point i lies strictly inside disk j."""
    env = points[:, :2] @ planes[:, :2].T + planes[:, 2][None, :]
    return env > points[:, 2][:, None]


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
        viol = lifted_violations(qh.points, pl_f).any(axis=1)
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
