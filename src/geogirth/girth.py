"""Unweighted and weighted girth of a disk graph.

The unweighted girth is 3 exactly when the graph is not plane; otherwise a
pruned all-roots BFS on the explicit plane graph gives the answer.  The
weighted girth combines the shortest triangle with two sparse searches: the
girth of the plane graph on small sites, and shortest cycles through each
large site inside 7x7 grid blocks scaled by the shortest triangle.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .disk_triangle import shortest_triangle_disk
from .graphs import (Cycle, Triangle, UndirectedGraph,
                     brute_girth_unweighted)
from .grids import GridIndex
from .sites import InvariantViolation, SiteSet, disk_edge, dist
from .sweep import build_plane_or_witness

SQRT2 = math.sqrt(2.0)


@dataclass
class ShortestPathTree:
    """Dijkstra tree rooted at `root` with, per vertex, the second vertex on
    the root path (the root's child leading to it)."""

    root: int
    dist: list[float]
    parent: list[int]
    branch: list[int]


def dijkstra_tree(g: UndirectedGraph, root: int) -> ShortestPathTree:
    n = g.n
    INF = math.inf
    d = [INF] * n
    par = [-1] * n
    d[root] = 0.0
    heap = [(0.0, root)]
    done = [False] * n
    order = []
    while heap:
        du, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        order.append(u)
        for v, w in g.adj[u]:
            nd = du + w
            if nd < d[v]:
                d[v] = nd
                par[v] = u
                heapq.heappush(heap, (nd, v))
    branch = [-1] * n
    for u in order:
        p = par[u]
        if p == -1:
            continue
        branch[u] = u if p == root else branch[p]
    return ShortestPathTree(root, d, par, branch)


def shortest_cycle_through(g: UndirectedGraph, s: int) -> Optional[Cycle]:
    """Shortest cycle containing s: two shortest-path-tree branches closed
    by one non-tree edge.

    Assumes nonnegative weights, pairwise-distinct path lengths (realized by
    deterministic tie-breaking) and that every edge is the shortest path
    between its endpoints; violations are not detected here.
    """
    t = dijkstra_tree(g, s)
    best_len = math.inf
    best_edge = None
    d, par, br = t.dist, t.parent, t.branch
    for u in range(g.n):
        du = d[u]
        if not math.isfinite(du):
            continue
        for v, w in g.adj[u]:
            if v < u or not math.isfinite(d[v]):
                continue
            if par[v] == u or par[u] == v:
                continue
            bu = br[u] if u != s else -1
            bv = br[v] if v != s else -1
            if bu == bv:
                continue
            cand = du + w + d[v]
            if cand < best_len:
                best_len = cand
                best_edge = (u, v, w)
    if best_edge is None:
        return None
    u, v, _ = best_edge
    left = []
    x = u
    while x != -1:
        left.append(x)
        x = par[x]
    left.reverse()  # s .. u
    right = []  # v, parent(v), ..., child of s
    x = v
    while x != s:
        right.append(x)
        x = par[x]
    return Cycle(tuple(left + right), best_len)


# ---------------------------------------------------------------------------
# planar substitutes (exact, asymptotically coarser than the cited
# black boxes; see decisions ledger)


def planar_girth_unweighted(g: UndirectedGraph) -> Optional[int]:
    """Exact girth of a (plane) graph by pruned all-roots BFS."""
    return brute_girth_unweighted(g)


def planar_weighted_girth(g: UndirectedGraph) -> Optional[Cycle]:
    """Exact minimum-weight cycle by running the shortest-cycle-through
    search from every vertex that can lie on a cycle."""
    # iteratively strip degree <= 1 vertices; they are on no cycle
    deg = [len(a) for a in g.adj]
    alive = [True] * g.n
    stack = [v for v in range(g.n) if deg[v] <= 1]
    adj_alive = [set(v for v, _ in g.adj[u]) for u in range(g.n)]
    while stack:
        v = stack.pop()
        if not alive[v]:
            continue
        alive[v] = False
        for u in adj_alive[v]:
            adj_alive[u].discard(v)
            deg[u] -= 1
            if deg[u] <= 1 and alive[u]:
                stack.append(u)
    best: Optional[Cycle] = None
    for v in range(g.n):
        if not alive[v]:
            continue
        cand = shortest_cycle_through(g, v)
        if cand is not None and (best is None or cand.key() < best.key()):
            best = cand
    return best


# ---------------------------------------------------------------------------
# disk-graph girth


def girth_unweighted(S: SiteSet) -> Optional[int]:
    """Hop length of the shortest cycle of the disk graph, None for forests."""
    n = len(S)
    if n < 3:
        return None
    outcome = build_plane_or_witness(S)
    if not outcome.plane:
        return 3
    return planar_girth_unweighted(outcome.graph)


def _triangle_as_cycle(t: Triangle) -> Cycle:
    return Cycle(t.sorted_ids, t.perimeter)


def _induced_graph(S: SiteSet, ids: list[int]) -> tuple[UndirectedGraph, SiteSet]:
    sub = S.subset(ids)
    out = build_plane_or_witness(sub)
    if not out.plane:
        raise InvariantViolation(
            "small-site subgraph must be plane when no short triangle exists")
    return out.graph, sub


def weighted_girth_disk(S: SiteSet, rng_seed: int = 0) -> Optional[Cycle]:
    """Minimum-weight cycle of the disk graph, or None if it is a forest."""
    n = len(S)
    if n < 3:
        return None
    tri = shortest_triangle_disk(S, rng_seed=rng_seed)
    if tri is None:
        outcome = build_plane_or_witness(S)
        if not outcome.plane:
            raise InvariantViolation("triangle-free disk graph must be plane")
        return planar_weighted_girth(outcome.graph)

    W = tri.perimeter
    best = _triangle_as_cycle(tri)
    ell = W / (3.0 * SQRT2)
    large_mask = S.rs >= ell / 4.0

    # cycles entirely on small sites: their graph is triangle-free (any
    # triangle there would beat W), hence plane
    small_ids = np.flatnonzero(~large_mask).tolist()
    if len(small_ids) >= 3:
        g_small, _ = _induced_graph(S, small_ids)
        c = planar_weighted_girth(g_small)
        if c is not None:
            mapped = Cycle(tuple(small_ids[v] for v in c.vertices), c.length)
            if mapped.key() < best.key():
                best = mapped

    # cycles through a large site: shorter than W means diameter < W/2,
    # so they live in the 7x7 block around the site's grid cell
    G = GridIndex(S, ell, 0.0, 0.0)
    lidx = np.flatnonzero(large_mask)
    if len(lidx):
        blk_sizes_run = G.block_reduce(G.run_sizes, 3)
        cand = lidx[blk_sizes_run[G.site_run[lidx]] >= 3]
        for s_id in cand.tolist():
            block = G.block_sites(int(s_id), 3)
            ids = sorted(int(v) for v in block)
            sub = S.subset(ids)
            g_sub = _disk_graph_mixed(sub, ell)
            pos = ids.index(s_id)
            c = shortest_cycle_through(g_sub, pos)
            if c is not None:
                mapped = Cycle(tuple(ids[v] for v in c.vertices), c.length)
                if mapped.key() < best.key():
                    best = mapped
    return best


def _disk_graph_mixed(sub: SiteSet, ell: float) -> UndirectedGraph:
    """Disk graph on a block: plane sweep over the (triangle-free) small
    sites plus pairwise scans against the O(1) large sites."""
    k = len(sub)
    small = [i for i in range(k) if sub.rs[i] < ell / 4.0]
    large = [i for i in range(k) if sub.rs[i] >= ell / 4.0]
    g = UndirectedGraph(k)
    if len(small) >= 2:
        small_sub = sub.subset(small)
        out = build_plane_or_witness(small_sub)
        if not out.plane:
            raise InvariantViolation("small-site block graph must be plane")
        for u, v, w in out.graph.edges():
            g.add_edge(small[u], small[v], w)
    for i, u in enumerate(large):
        su = sub[u]
        for v in large[i + 1:]:
            if disk_edge(su, sub[v]):
                g.add_edge(u, v, dist(su, sub[v]))
        for v in small:
            if disk_edge(su, sub[v]):
                g.add_edge(u, v, dist(su, sub[v]))
    return g
