"""Triangle existence and shortest triangle in a disk graph.

Existence goes through the plane/witness pipeline: a non-plane disk graph
always contains a triangle, and a plane one is searched in linear time by
degeneracy peeling.  The perimeter decision works on four shifted grids;
``shortest_triangle_disk`` hands it, the existence search and the brute-force
base case to the shared optimization driver in ``chan``.
"""

from __future__ import annotations

import heapq
import math
from typing import Optional

import numpy as np

from .chan import shortest_triangle
from .grids import ShiftedGrids, ShiftedGridIndex, close_pairs, ranges_concat
from .graphs import (Triangle, UndirectedGraph, brute_shortest_triangle,
                     brute_triangle, build_disk_graph_brute)
from .sites import InvariantViolation, SiteSet, disk_edges, triangle_perimeter
from .sweep import build_plane_or_witness

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# plane-graph triangle search


def planar_triangle(g: UndirectedGraph, S: SiteSet) -> Optional[Triangle]:
    """Linear-time triangle search by minimum-degree peeling.

    On a plane graph every peel has degree <= 5, so at most 10 neighbor
    pairs are tested per vertex.  Any triangle is detected when its first
    vertex is peeled.
    """
    n = g.n
    adj = [set() for _ in range(n)]
    for u in range(n):
        for v, _ in g.adj[u]:
            adj[u].add(v)
    deg = [len(a) for a in adj]
    heap = [(deg[v], v) for v in range(n)]
    heapq.heapify(heap)
    removed = [False] * n
    while heap:
        d, v = heapq.heappop(heap)
        if removed[v] or d != deg[v]:
            continue
        removed[v] = True
        nbrs = sorted(adj[v])
        for i in range(len(nbrs)):
            a = nbrs[i]
            aa = adj[a]
            for b in nbrs[i + 1:]:
                if b in aa:
                    return Triangle(tuple(sorted((v, a, b))),
                                    triangle_perimeter(S[v], S[a], S[b]))
        for u in nbrs:
            adj[u].discard(v)
            deg[u] -= 1
            heapq.heappush(heap, (deg[u], u))
        adj[v].clear()
    return None


def find_triangle_disk(S: SiteSet) -> Optional[Triangle]:
    """Some triangle of the disk graph, or None; O(n log n)."""
    n = len(S)
    if n < 3:
        return None
    if n == 3:
        return brute_triangle(build_disk_graph_brute(S), S)
    outcome = build_plane_or_witness(S)
    if not outcome.plane:
        return outcome.witness
    return planar_triangle(outcome.graph, S)


# ---------------------------------------------------------------------------
# the perimeter decision


def decide_perimeter(S: SiteSet, W: float) -> bool:
    """Does the disk graph contain a triangle of perimeter at most W?

    Grid side is W/(3*sqrt(2)) so a cell's diameter is W/3; the sites are
    bucketed into the four shifted grids with one sort.  (a) Any in-cell
    triangle qualifies: cells of three or more sites go through the plane
    sweep one at a time.  Failing that, no cell holds more than 18 large
    sites (radius > ell/4), every triangle has a large vertex, and the rest
    is tested in batches of candidate triples: (b) two large vertices, the
    large pairs within W/2 from one ``close_pairs`` join against the 7x7
    block of grid 0 around the first; (c) exactly one large vertex, whose
    small-small edge is short (<= ell/2), hence inside one cell of one grid,
    against the large sites of that cell's 5x5 block.
    """
    if not (W > 0.0) or not math.isfinite(W):
        raise ValueError("W must be positive and finite")
    n = len(S)
    if n < 3:
        return False
    # shrink the cell side by one part in 10^12 so that an in-cell triangle
    # has canonical perimeter strictly below W even after float rounding;
    # explicit perimeter tests below use the canonical sorted-id evaluation
    ell = W / (3.0 * SQRT2) * (1.0 - 1e-12)
    large_mask = S.rs > ell / 4.0
    G = ShiftedGridIndex(S.xs, S.ys, ell)
    order = G.order.ravel()

    # (a) per-cell triangle search, grid by grid in key order; the
    # small-small edges of triangle-free cells are kept for step (c)
    small = ~large_mask
    two = np.flatnonzero(G.run_size == 2)
    a2, b2 = order[G.run_start[two]], order[G.run_start[two] + 1]
    keep = small[a2] & small[b2]
    two, a2, b2 = two[keep], a2[keep], b2[keep]
    keep = disk_edges(S, a2, b2)
    ea, eb, er = [a2[keep]], [b2[keep]], [two[keep]]
    big = np.flatnonzero(G.run_size >= 3)
    for r, lo, size in zip(big.tolist(), G.run_start[big].tolist(),
                           G.run_size[big].tolist()):
        ids = order[lo:lo + size]
        sub = S.subset(ids)
        out = build_plane_or_witness(sub)
        if not out.plane:
            return True
        if planar_triangle(out.graph, sub) is not None:
            return True
        uv = ids[np.array([(u, v) for u, v, _ in out.graph.edges()],
                          dtype=np.int64).reshape(-1, 2)]
        uv = uv[small[uv[:, 0]] & small[uv[:, 1]]]
        ea.append(uv[:, 0])
        eb.append(uv[:, 1])
        er.append(np.full(len(uv), r, dtype=np.int64))
    if G.run_size.max() > 18:
        nl = np.add.reduceat(large_mask[order].astype(np.int64), G.run_start).max()
        if nl > 18:
            raise InvariantViolation(f"triangle-free cell holds {nl} > 18 large sites")

    # (b) triangles with two large vertices: the third vertex lies within
    # W/2 of the first, i.e. in the 7x7 block of grid 0 around it
    lidx = np.flatnonzero(large_mask)
    if len(lidx) >= 2:
        pa, pb = close_pairs(S.xs, S.ys, lidx, W / 2.0 * (1.0 + 1e-9))
        keep = pa < pb
        pa, pb = pa[keep], pb[keep]
        keep = disk_edges(S, pa, pb)
        pa, pb = pa[keep], pb[keep]
        if len(pa):
            p, u = G.blocks(np.zeros(len(pa), dtype=np.int64), G.site_keys[0][pa], 3)
            if _short_triangle(S, W, pa[p], pb[p], u):
                return True

    # (c) triangles with exactly one large vertex: the large sites of the
    # 5x5 block around each cell holding a small-small edge
    ea, eb, er = np.concatenate(ea), np.concatenate(eb), np.concatenate(er)
    if not len(ea):
        return False
    cells = np.zeros(len(G.run_size), dtype=bool)
    cells[er] = True
    anchors = np.flatnonzero(cells)
    owner, u = G.blocks(G.run_grid[anchors], G.keys.ravel()[G.run_start[anchors]], 2)
    keep = large_mask[u]
    owner, u = owner[keep], u[keep]
    anchor_of = np.cumsum(cells)[er] - 1
    p, j = ranges_concat(np.searchsorted(owner, anchor_of),
                         np.searchsorted(owner, anchor_of + 1))
    return _short_triangle(S, W, ea[p], eb[p], u[j])


def _short_triangle(S: SiteSet, W: float, s: np.ndarray, t: np.ndarray,
                    u: np.ndarray) -> bool:
    """Is some (s_i, t_i, u_i), with s_i t_i a disk-graph edge, a triangle
    of perimeter at most W?

    The edge tests are exact (``disk_edges``); the ``np.hypot`` prefilter,
    padded by one part in 10^9, keeps every triple whose canonical
    perimeter can be <= W, and only its survivors are evaluated by
    ``triangle_perimeter``."""
    keep = (u != s) & (u != t)
    keep[keep] = disk_edges(S, s[keep], u[keep]) & disk_edges(S, t[keep], u[keep])
    s, t, u = s[keep], t[keep], u[keep]
    xs, ys = S.xs, S.ys
    per = (np.hypot(xs[s] - xs[t], ys[s] - ys[t])
           + np.hypot(xs[s] - xs[u], ys[s] - ys[u])
           + np.hypot(xs[t] - xs[u], ys[t] - ys[u]))
    for i in np.flatnonzero(per <= W * (1.0 + 1e-9)).tolist():
        if triangle_perimeter(S[int(s[i])], S[int(t[i])], S[int(u[i])]) <= W:
            return True
    return False


# ---------------------------------------------------------------------------
# shortest triangle via the optimization framework


def shortest_triangle_disk(S: SiteSet, rng_seed: int = 0) -> Optional[Triangle]:
    """Globally minimum-perimeter triangle of the disk graph, or None."""
    return shortest_triangle(
        S, find_triangle_disk, decide_perimeter,
        lambda sub: brute_shortest_triangle(build_disk_graph_brute(sub), sub),
        rng_seed)
