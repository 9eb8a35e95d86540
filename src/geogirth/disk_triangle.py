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
from .grids import GridIndex, ShiftedGrids, close_pairs
from .graphs import (Triangle, UndirectedGraph, brute_shortest_triangle,
                     brute_triangle, build_disk_graph_brute)
from .sites import InvariantViolation, SiteSet, disk_edge, triangle_perimeter
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

    Grid side is W/(3*sqrt(2)) so a cell's diameter is W/3: (a) any in-cell
    triangle qualifies; failing that, every triangle has a large vertex
    (radius > ell/4) and is caught either by the two-large-vertex scan (b)
    or the short-edge-plus-large-vertex scan (c) over 5x5 cell blocks.
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
    half_w = W / 2.0
    half_w_pad = half_w * (1.0 + 1e-9)

    grids = [GridIndex(S, ell, ox, oy) for ox, oy in ShiftedGrids(ell).offsets]

    # (a) per-cell triangle search; cache plane cell graphs for step (c)
    cell_graphs: list[list] = [[] for _ in range(4)]
    for gi, G in enumerate(grids):
        large_per_run = G.run_reduce(large_mask.astype(np.int64))
        multi = np.flatnonzero(G.run_sizes >= 2)
        for r in multi.tolist():
            ids = G.order[G.run_starts[r]:G.run_ends[r]]
            if len(ids) >= 3:
                sub = S.subset(ids.tolist())
                out = build_plane_or_witness(sub)
                if not out.plane:
                    return True
                if planar_triangle(out.graph, sub) is not None:
                    return True
                cell_graphs[gi].append((r, ids, out.graph))
            else:
                cell_graphs[gi].append((r, ids, None))
            nl = int(large_per_run[r])
            if nl > 18:
                raise InvariantViolation(
                    f"triangle-free cell holds {nl} > 18 large sites")

    # (b) triangles with two large vertices: large pairs within W/2 from a
    # single coarse-grid join; the third vertex is scanned over the 7x7
    # block around the first one (covering everything within W/2 of it)
    lidx = np.flatnonzero(large_mask)
    if len(lidx) >= 2:
        pa, pb = close_pairs(S.xs, S.ys, lidx, half_w_pad)
        if len(pa):
            keep = pa < pb
            pa, pb = pa[keep], pb[keep]
            dx = S.xs[pa] - S.xs[pb]
            dy = S.ys[pa] - S.ys[pb]
            rr = S.rs[pa] + S.rs[pb]
            keep = dx * dx + dy * dy <= rr * rr
            pa, pb = pa[keep], pb[keep]
        block_cache: dict[int, np.ndarray] = {}
        for s_id, t_id in zip(pa.tolist(), pb.tolist()):
            s_site, t_site = S[s_id], S[t_id]
            block = block_cache.get(s_id)
            if block is None:
                block = grids[0].block_sites(s_id, 3)
                block_cache[s_id] = block
            for u_id in block.tolist():
                if u_id == s_id or u_id == t_id:
                    continue
                u_site = S[u_id]
                if not disk_edge(s_site, u_site) or not disk_edge(t_site, u_site):
                    continue
                if triangle_perimeter(s_site, t_site, u_site) <= W:
                    return True

    # (c) triangles with exactly one large vertex: the small-small edge is
    # short (<= ell/2), hence inside a single cell of one of the grids
    for gi, G in enumerate(grids):
        for r, ids, graph in cell_graphs[gi]:
            if graph is None:
                a, b = int(ids[0]), int(ids[1])
                pairs = [(a, b)] if disk_edge(S[a], S[b]) else []
            else:
                pairs = [(int(ids[u]), int(ids[v])) for u, v, _ in graph.edges()]
            pairs = [(a, b) for a, b in pairs
                     if not large_mask[a] and not large_mask[b]]
            if not pairs:
                continue
            block = G.block_sites(int(ids[0]), 2)
            ul = block[large_mask[block]]
            if len(ul) == 0:
                continue
            for a, b in pairs:
                sa, sb = S[a], S[b]
                for u_id in ul.tolist():
                    if u_id == a or u_id == b:
                        continue
                    u_site = S[u_id]
                    if not disk_edge(sa, u_site) or not disk_edge(sb, u_site):
                        continue
                    if triangle_perimeter(sa, sb, u_site) <= W:
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
