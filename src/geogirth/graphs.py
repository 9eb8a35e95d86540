"""Explicit graph structures and brute-force oracles.

Every quantity the fast algorithms compute has an independent slow oracle
here: O(n^2) graph construction, O(n^3) triangle scans, BFS girth, and the
edge-removal minimum-weight-cycle search.  Oracles are deterministic: ties
are always broken toward smaller vertex ids.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .sites import SiteSet, triangle_perimeter

ORACLE_CAP = 512


@dataclass(frozen=True)
class Triangle:
    ids: tuple[int, int, int]
    perimeter: float

    @property
    def sorted_ids(self) -> tuple[int, int, int]:
        return tuple(sorted(self.ids))

    def key(self):
        return (self.perimeter, self.sorted_ids)


@dataclass(frozen=True)
class Cycle:
    vertices: tuple[int, ...]
    length: float

    @property
    def hops(self) -> int:
        return len(self.vertices)

    def key(self):
        return (self.length, tuple(sorted(self.vertices)))


def better_triangle(a: Optional[Triangle], b: Optional[Triangle]) -> Optional[Triangle]:
    if a is None:
        return b
    if b is None:
        return a
    return a if a.key() <= b.key() else b


class UndirectedGraph:
    """Adjacency-list weighted graph; symmetric, no loops or parallel edges."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int):
        self.n = n
        self.adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]

    def add_edge(self, u: int, v: int, w: float) -> None:
        if u == v:
            raise ValueError("self-loop")
        self.adj[u].append((v, w))
        self.adj[v].append((u, w))

    def edges(self):
        for u in range(self.n):
            for v, w in self.adj[u]:
                if u < v:
                    yield u, v, w

    def edge_count(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return any(x == v for x, _ in self.adj[u])


class DirectedGraph:
    __slots__ = ("n", "out")

    def __init__(self, n: int):
        self.n = n
        self.out: list[list[tuple[int, float]]] = [[] for _ in range(n)]

    def add_arc(self, u: int, v: int, w: float) -> None:
        if u == v:
            raise ValueError("self-loop")
        self.out[u].append((v, w))

    def arcs(self):
        for u in range(self.n):
            for v, w in self.out[u]:
                yield u, v, w

    def arc_count(self) -> int:
        return sum(len(a) for a in self.out)

    def has_arc(self, u: int, v: int) -> bool:
        return any(x == v for x, _ in self.out[u])


# ---------------------------------------------------------------------------
# brute-force construction


def _pair_matrices(S: SiteSet):
    dx = S.xs[:, None] - S.xs[None, :]
    dy = S.ys[:, None] - S.ys[None, :]
    d2 = dx * dx + dy * dy
    return d2


def disk_adjacency(S: SiteSet) -> np.ndarray:
    d2 = _pair_matrices(S)
    rr = S.rs[:, None] + S.rs[None, :]
    adj = d2 <= rr * rr
    np.fill_diagonal(adj, False)
    return adj


def tx_adjacency(S: SiteSet) -> np.ndarray:
    d2 = _pair_matrices(S)
    adj = d2 <= (S.rs * S.rs)[:, None]
    np.fill_diagonal(adj, False)
    return adj


def build_disk_graph_brute(S: SiteSet) -> UndirectedGraph:
    """O(n^2) pairwise scan; edge uv iff the two disks intersect."""
    g = UndirectedGraph(len(S))
    adj = disk_adjacency(S)
    d = np.sqrt(_pair_matrices(S))
    iu, iv = np.nonzero(np.triu(adj, 1))
    for u, v in zip(iu.tolist(), iv.tolist()):
        g.add_edge(u, v, float(d[u, v]))
    return g


def build_tx_graph_brute(S: SiteSet) -> DirectedGraph:
    g = DirectedGraph(len(S))
    adj = tx_adjacency(S)
    d = np.sqrt(_pair_matrices(S))
    iu, iv = np.nonzero(adj)
    for u, v in zip(iu.tolist(), iv.tolist()):
        g.add_arc(u, v, float(d[u, v]))
    return g


# ---------------------------------------------------------------------------
# triangles


def _graph_triangle_perimeter(S: SiteSet, i: int, j: int, k: int) -> float:
    return triangle_perimeter(S[i], S[j], S[k])


def brute_triangle(g: UndirectedGraph, S: SiteSet) -> Optional[Triangle]:
    """First triangle in lexicographic (i, j, k) order, or None."""
    n = g.n
    nbr = [np.zeros(n, dtype=bool) for _ in range(n)]
    for u in range(n):
        for v, _ in g.adj[u]:
            nbr[u][v] = True
    for i in range(n):
        ni = nbr[i]
        for j in range(i + 1, n):
            if not ni[j]:
                continue
            common = ni & nbr[j]
            common[: j + 1] = False
            ks = np.nonzero(common)[0]
            if ks.size:
                k = int(ks[0])
                return Triangle((i, j, k), _graph_triangle_perimeter(S, i, j, k))
    return None


def brute_directed_triangle(g: DirectedGraph, S: SiteSet) -> Optional[Triangle]:
    """First directed 3-cycle by sorted vertex triple, or None."""
    n = g.n
    a = np.zeros((n, n), dtype=bool)
    for u in range(n):
        for v, _ in g.out[u]:
            a[u, v] = True
    # quick absence check: path of length 2 closed by a back arc
    m = a.astype(np.uint8)
    if not ((m @ m).astype(bool) & a.T).any():
        return None
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if (a[i, j] and a[j, k] and a[k, i]) or (a[i, k] and a[k, j] and a[j, i]):
                    return Triangle((i, j, k), _graph_triangle_perimeter(S, i, j, k))
    return None


def brute_shortest_triangle(g: UndirectedGraph, S: SiteSet) -> Optional[Triangle]:
    """Global minimum-perimeter triangle by full O(n^3) scan."""
    n = g.n
    a = np.zeros((n, n), dtype=bool)
    for u in range(n):
        for v, _ in g.adj[u]:
            a[u, v] = True
    best: Optional[Triangle] = None
    for i in range(n):
        for j in range(i + 1, n):
            if not a[i, j]:
                continue
            row = a[i] & a[j]
            row[: j + 1] = False
            for k in np.nonzero(row)[0].tolist():
                cand = Triangle((i, j, k), _graph_triangle_perimeter(S, i, j, k))
                best = better_triangle(best, cand)
    return best


def brute_shortest_directed_triangle(g: DirectedGraph, S: SiteSet) -> Optional[Triangle]:
    n = g.n
    a = np.zeros((n, n), dtype=bool)
    for u in range(n):
        for v, _ in g.out[u]:
            a[u, v] = True
    best: Optional[Triangle] = None
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if (a[i, j] and a[j, k] and a[k, i]) or (a[i, k] and a[k, j] and a[j, i]):
                    cand = Triangle((i, j, k), _graph_triangle_perimeter(S, i, j, k))
                    best = better_triangle(best, cand)
    return best


# ---------------------------------------------------------------------------
# girth oracles


def brute_girth_unweighted(g: UndirectedGraph) -> Optional[int]:
    """BFS from every vertex; the shortest cycle closed by a non-tree edge
    at equal or adjacent levels yields the exact girth."""
    best: Optional[int] = None
    for root in range(g.n):
        depth = {root: 0}
        parent = {root: -1}
        queue = [root]
        qi = 0
        while qi < len(queue):
            u = queue[qi]
            qi += 1
            du = depth[u]
            if best is not None and 2 * du >= best:
                break  # no shorter cycle reachable from this root
            for v, _ in g.adj[u]:
                if v not in depth:
                    depth[v] = du + 1
                    parent[v] = u
                    queue.append(v)
                elif parent[u] != v:
                    cand = du + depth[v] + 1
                    if best is None or cand < best:
                        best = cand
        if best == 3:
            return 3
    return best


def _dijkstra(g: UndirectedGraph, s: int, skip_edge=None):
    """Binary-heap Dijkstra; ties resolved by smaller vertex id."""
    n = g.n
    INF = float("inf")
    d = [INF] * n
    par = [-1] * n
    d[s] = 0.0
    heap = [(0.0, s)]
    done = [False] * n
    while heap:
        du, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for v, w in g.adj[u]:
            if skip_edge is not None and (u, v) in skip_edge:
                continue
            nd = du + w
            if nd < d[v]:
                d[v] = nd
                par[v] = u
                heapq.heappush(heap, (nd, v))
    return d, par


def brute_min_weight_cycle(g: UndirectedGraph) -> Optional[Cycle]:
    """Edge-removal oracle: drop each edge uv, take shortest path u->v plus
    the edge; the minimum over all edges is the exact minimum-weight cycle."""
    best: Optional[Cycle] = None
    for u, v, w in g.edges():
        skip = {(u, v), (v, u)}
        d, par = _dijkstra(g, u, skip_edge=skip)
        if d[v] == float("inf"):
            continue
        length = d[v] + w
        path = []
        x = v
        while x != -1:
            path.append(x)
            x = par[x]
        path.reverse()  # u ... v; closing edge v-u
        cand = Cycle(tuple(path), length)
        if best is None or cand.key() < best.key():
            best = cand
    return best


def enumerate_simple_cycles(g: UndirectedGraph, max_n: int = 12):
    """All simple cycles (as vertex tuples starting at their smallest vertex)
    by DFS; exponential, for tiny oracle instances only."""
    if g.n > max_n:
        raise ValueError("exhaustive cycle enumeration capped at n <= %d" % max_n)
    cycles = []
    n = g.n
    adj = [[v for v, _ in g.adj[u]] for u in range(n)]

    def extend(path, seen):
        start = path[0]
        u = path[-1]
        for v in adj[u]:
            if v == start and len(path) >= 3:
                if path[1] < path[-1]:  # canonical orientation, count once
                    length = 0.0
                    for a, b in zip(path, path[1:] + [start]):
                        length += next(w for x, w in g.adj[a] if x == b)
                    cycles.append((tuple(path), length))
            elif v not in seen and v > start:
                seen.add(v)
                path.append(v)
                extend(path, seen)
                path.pop()
                seen.remove(v)

    for s in range(n):
        extend([s], {s})
    return cycles


def cycle_is_valid(g: UndirectedGraph, c: Cycle, tol: float = 1e-9) -> bool:
    vs = c.vertices
    if len(vs) < 3 or len(set(vs)) != len(vs):
        return False
    total = 0.0
    for a, b in zip(vs, vs[1:] + (vs[0],)):
        w = next((w for x, w in g.adj[a] if x == b), None)
        if w is None:
            return False
        total += w
    return abs(total - c.length) <= tol * max(1.0, abs(total))


def triangle_is_valid_disk(S: SiteSet, t: Triangle) -> bool:
    from .sites import disk_edge
    i, j, k = t.ids
    if len({i, j, k}) != 3:
        return False
    return (disk_edge(S[i], S[j]) and disk_edge(S[j], S[k]) and disk_edge(S[i], S[k]))


def triangle_is_valid_tx(S: SiteSet, t: Triangle) -> bool:
    from .sites import tx_edge
    i, j, k = t.ids
    if len({i, j, k}) != 3:
        return False
    fwd = tx_edge(S[i], S[j]) and tx_edge(S[j], S[k]) and tx_edge(S[k], S[i])
    rev = tx_edge(S[i], S[k]) and tx_edge(S[k], S[j]) and tx_edge(S[j], S[i])
    return fwd or rev
