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


class _Settled(dict):
    """Per-vertex values of the settled vertices; others read `default`."""

    def __init__(self, default):
        super().__init__()
        self.default = default

    def __missing__(self, v):
        return self.default


@dataclass
class ShortestPathTree:
    """Dijkstra tree rooted at `root` with, per settled vertex, its distance,
    its parent and the second vertex on the root path (the root's child
    leading to it).  Vertices not settled read as distance inf, parent and
    branch -1.  ``dist`` lists the settled vertices in the order settled."""

    root: int
    dist: _Settled
    parent: _Settled
    branch: _Settled


def dijkstra_tree(g: UndirectedGraph, root: int, bound: float = math.inf) -> ShortestPathTree:
    """Shortest-path tree of the vertices closer to `root` than bound/2
    (all vertices reachable from it when the bound is infinite)."""
    half = bound / 2.0
    d = _Settled(math.inf)
    par = _Settled(-1)
    branch = _Settled(-1)
    reach = {root: 0.0}             # tentative distances
    via = {}                        # tentative parents
    heap = [(0.0, root)]
    while heap:
        du, u = heapq.heappop(heap)
        if u in d:
            continue
        if not du < half:
            break
        d[u] = du
        if u != root:
            p = par[u] = via[u]
            branch[u] = u if p == root else branch[p]
        for v, w in g.adj[u]:
            nd = du + w
            if nd < reach.get(v, math.inf):
                reach[v] = nd
                via[v] = u
                heapq.heappush(heap, (nd, v))
    return ShortestPathTree(root, d, par, branch)


def shortest_cycle_through(g: UndirectedGraph, s: int,
                           bound: float = math.inf) -> Optional[Cycle]:
    """Shortest cycle containing s and shorter than `bound`: two
    shortest-path-tree branches closed by one non-tree edge.

    Both ends of such an edge lie closer to s than bound/2, so only those
    vertices are settled and scanned.  Assumes nonnegative weights,
    pairwise-distinct path lengths (realized by deterministic tie-breaking)
    and that every edge is the shortest path between its endpoints;
    violations are not detected here.
    """
    t = dijkstra_tree(g, s, bound)
    best_len = bound
    best_edge = None
    d, par, br = t.dist, t.parent, t.branch
    for u in sorted(d):         # in id order: ties go to the smaller ids
        du = d[u]
        for v, w in g.adj[u]:
            if v < u or v not in d:
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
# plane girth: exact searches standing in for the linear-time plane-graph
# algorithms the paper cites (Chang & Lu for the girth, Lacki & Sankowski
# for the weighted girth), which are not implemented here


def planar_girth_unweighted(g: UndirectedGraph) -> Optional[int]:
    """Exact girth of a (plane) graph by pruned all-roots BFS."""
    return brute_girth_unweighted(g)


def planar_weighted_girth(g: UndirectedGraph) -> Optional[Cycle]:
    """Exact minimum-weight cycle by running the shortest-cycle-through
    search, bounded by the best cycle so far, from every vertex that can
    lie on a cycle."""
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
    # a cycle through v shorter than the best so far stays within half
    # the best length of v, so each search stops there
    best: Optional[Cycle] = None
    for v in range(g.n):
        if not alive[v]:
            continue
        cand = shortest_cycle_through(g, v, math.inf if best is None else best.length)
        if cand is not None:
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
