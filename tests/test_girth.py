"""Girth: unweighted, shortest cycle through a vertex, weighted."""

import math
import random

import pytest

from geogirth.girth import (dijkstra_tree, girth_unweighted,
                            planar_weighted_girth, shortest_cycle_through,
                            weighted_girth_disk)
from geogirth.graphs import (UndirectedGraph, brute_girth_unweighted,
                             brute_min_weight_cycle, build_disk_graph_brute,
                             cycle_is_valid)
from geogirth.sites import Site, SiteSet


def S(*triples):
    return SiteSet([Site(i, x, y, r) for i, (x, y, r) in enumerate(triples)])


def _weighted_cycle_graph(weights):
    g = UndirectedGraph(len(weights))
    n = len(weights)
    for i, w in enumerate(weights):
        g.add_edge(i, (i + 1) % n, w)
    return g


def test_girth_dense_overlap_is_three():
    rng = random.Random(50)
    ss = SiteSet([Site(i, rng.uniform(0, 0.3), rng.uniform(0, 0.3), 1.0)
                  for i in range(15)])
    assert girth_unweighted(ss) == 3


def test_girth_square_of_disks_is_four():
    # four unit disks at the corners of a square of side 1.9: adjacent
    # corners intersect (1.9 < 2), diagonals do not (2.69 > 2)
    ss = S((0, 0, 1), (1.9, 0, 1), (1.9, 1.9, 1), (0, 1.9, 1))
    assert brute_girth_unweighted(build_disk_graph_brute(ss)) == 4
    assert girth_unweighted(ss) == 4


def test_girth_matches_bfs_oracle(make_sites):
    rng = random.Random(51)
    for _ in range(120):
        n = rng.randint(1, 128)
        ss = make_sites(n, seed=rng.randrange(10**6),
                        rmax=rng.choice([0.04, 0.1, 0.25]))
        assert girth_unweighted(ss) == brute_girth_unweighted(build_disk_graph_brute(ss))


def test_dijkstra_tree_branch_vertices():
    g = _weighted_cycle_graph([1.0, 1.0, 5.0, 1.5])
    t = dijkstra_tree(g, 0)
    assert t.dist[0] == 0.0
    assert t.branch[1] == 1 and t.branch[2] == 1
    assert t.branch[3] == 3  # reached directly along the closing edge
    for v in range(1, 4):
        p = t.parent[v]
        w = next(w for x, w in g.adj[p] if x == v)
        assert t.dist[v] == pytest.approx(t.dist[p] + w)


def test_cycle_through_whole_cycle_and_pendant():
    g = _weighted_cycle_graph([1.0, 2.0, 0.5, 1.5])
    for s in range(4):
        c = shortest_cycle_through(g, s)
        assert c is not None and c.length == pytest.approx(5.0)
        assert sorted(c.vertices) == [0, 1, 2, 3]
        assert cycle_is_valid(g, c)
    g2 = UndirectedGraph(5)
    for (u, v), w in zip(((0, 1), (1, 2), (2, 0), (3, 4)), (1, 1, 1, 1)):
        g2.add_edge(u, v, float(w))
    assert shortest_cycle_through(g2, 3) is None
    assert shortest_cycle_through(g2, 0).length == pytest.approx(3.0)


def _brute_cycle_through(g, s):
    best = None
    adj = [[v for v, _ in g.adj[u]] for u in range(g.n)]

    def w(a, b):
        return next(w for x, w in g.adj[a] if x == b)

    def extend(path, seen):
        nonlocal best
        u = path[-1]
        for v in adj[u]:
            if v == s and len(path) >= 3:
                length = sum(w(a, b) for a, b in zip(path, path[1:] + [s]))
                if best is None or length < best:
                    best = length
            elif v not in seen and v != s:
                seen.add(v)
                path.append(v)
                extend(path, seen)
                path.pop()
                seen.remove(v)

    extend([s], {s})
    return best


def test_cycle_through_matches_exhaustive(make_sites):
    rng = random.Random(52)
    for _ in range(50):
        ss = make_sites(rng.randint(3, 11), seed=rng.randrange(10**6),
                        rmax=rng.choice([0.2, 0.4]))
        g = build_disk_graph_brute(ss)
        for s in range(g.n):
            slow = _brute_cycle_through(g, s)
            fast = shortest_cycle_through(g, s)
            if slow is None:
                assert fast is None
            else:
                assert fast is not None
                assert fast.length == pytest.approx(slow, rel=1e-12)
                assert cycle_is_valid(g, fast)


def test_cycle_structure_two_tree_paths_plus_edge(make_sites):
    # the optimal cycle through s decomposes as two shortest-path-tree
    # branches joined by one non-tree edge
    rng = random.Random(53)
    checked = 0
    while checked < 40:
        ss = make_sites(rng.randint(4, 12), seed=rng.randrange(10**6), rmax=0.35)
        g = build_disk_graph_brute(ss)
        s = rng.randrange(g.n)
        c = shortest_cycle_through(g, s)
        if c is None:
            continue
        t = dijkstra_tree(g, s)
        vs = list(c.vertices)
        assert vs[0] == s
        # find the closing edge: consecutive pair (u, v) with both the
        # prefix up to u and the suffix after v being tree paths
        found = False
        for cut in range(1, len(vs)):
            left, right = vs[:cut], vs[cut:]
            ok = all(t.parent[b] == a for a, b in zip(left, left[1:])) and \
                all(t.parent[a] == b for a, b in
                    zip(right, right[1:] + [s]))
            if ok:
                found = True
                break
        assert found
        checked += 1


def test_non_simple_closed_walks_share_branch(make_sites):
    # edges whose endpoints hang off the same root branch close walks that
    # revisit the branch point, never simple cycles through the root
    rng = random.Random(54)
    for _ in range(30):
        ss = make_sites(rng.randint(5, 14), seed=rng.randrange(10**6), rmax=0.3)
        g = build_disk_graph_brute(ss)
        s = rng.randrange(g.n)
        t = dijkstra_tree(g, s)
        for u in range(g.n):
            for v, _ in g.adj[u]:
                if v <= u or u == s or v == s:
                    continue
                if t.parent[u] == v or t.parent[v] == u:
                    continue
                if not (math.isfinite(t.dist[u]) and math.isfinite(t.dist[v])):
                    continue
                if t.branch[u] == t.branch[v]:
                    # walk s..u, edge, v..s revisits the shared branch child
                    path_u = set()
                    x = u
                    while x != -1:
                        path_u.add(x)
                        x = t.parent[x]
                    x = v
                    shared = False
                    while x != -1:
                        if x in path_u and x != s:
                            shared = True
                        x = t.parent[x]
                    assert shared


def test_weighted_girth_trivial_cases():
    tri = S((0, 0, 1), (1.5, 0, 1), (0.75, 1, 1))
    c = weighted_girth_disk(tri)
    assert c.length == pytest.approx(4.0)
    # triangle of perimeter 10.4 plus a distant lighter square cycle
    tri2 = [(0, 0, 2.0), (4, 0, 2.0), (2, 3, 2.0)]
    sq = [(100, 0, 1.0), (101.9, 0, 1.0), (101.9, 1.9, 1.0), (100, 1.9, 1.0)]
    ss = S(*(tri2 + sq))
    brute = brute_min_weight_cycle(build_disk_graph_brute(ss))
    c = weighted_girth_disk(ss)
    assert c.length == pytest.approx(brute.length)
    assert sorted(set(c.vertices)) == [3, 4, 5, 6]


def test_weighted_girth_matches_edge_removal_oracle(make_sites):
    rng = random.Random(55)
    for trial in range(150):
        n = rng.randint(3, 48)
        ss = make_sites(n, seed=rng.randrange(10**6),
                        rmax=rng.choice([0.06, 0.15, 0.3]))
        g = build_disk_graph_brute(ss)
        slow = brute_min_weight_cycle(g)
        fast = weighted_girth_disk(ss, rng_seed=trial)
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert abs(fast.length - slow.length) <= 1e-9 * max(1.0, slow.length)
            assert cycle_is_valid(g, fast)


def test_weighted_girth_at_most_shortest_triangle(make_sites):
    from geogirth.disk_triangle import shortest_triangle_disk
    rng = random.Random(56)
    done = 0
    while done < 30:
        ss = make_sites(rng.randint(6, 40), seed=rng.randrange(10**6), rmax=0.25)
        t = shortest_triangle_disk(ss)
        if t is None:
            continue
        c = weighted_girth_disk(ss)
        assert c is not None and c.length <= t.perimeter * (1 + 1e-12)
        done += 1


def test_girth_three_iff_triangle(make_sites):
    from geogirth.disk_triangle import find_triangle_disk
    rng = random.Random(57)
    for _ in range(60):
        ss = make_sites(rng.randint(3, 48), seed=rng.randrange(10**6),
                        rmax=rng.choice([0.1, 0.25]))
        assert (girth_unweighted(ss) == 3) == (find_triangle_disk(ss) is not None)


def test_planar_weighted_girth_forest_and_single_cycle():
    g = UndirectedGraph(4)
    g.add_edge(0, 1, 1.0)
    g.add_edge(1, 2, 1.0)
    assert planar_weighted_girth(g) is None
    g = _weighted_cycle_graph([1.0, 1.0, 2.0, 0.25])
    c = planar_weighted_girth(g)
    assert c.length == pytest.approx(4.25)


def test_planar_weighted_girth_on_jittered_lattice():
    # 16 x 16 lattice, unit spacing, jitter +-0.05, radii U(0.52, 0.6): a
    # triangle-free plane graph of girth 4 with distinct cycle lengths, on
    # which each bounded search stops well before the whole graph
    rng = random.Random(59)
    ss = S(*[(i + rng.uniform(-0.05, 0.05), j + rng.uniform(-0.05, 0.05),
              rng.uniform(0.52, 0.6)) for i in range(16) for j in range(16)])
    g = build_disk_graph_brute(ss)
    exp = brute_min_weight_cycle(g)
    assert girth_unweighted(ss) == 4
    for c in (planar_weighted_girth(g), weighted_girth_disk(ss)):
        assert cycle_is_valid(g, c)
        assert c.length == pytest.approx(exp.length, rel=1e-9)
        assert sorted(c.vertices) == sorted(exp.vertices)


def test_bounded_cycle_search_keeps_only_shorter_cycles():
    g = _weighted_cycle_graph([1.0, 2.0, 0.5, 1.5])
    assert shortest_cycle_through(g, 0, 5.0) is None
    assert shortest_cycle_through(g, 0, math.nextafter(5.0, 6.0)).length == 5.0
    # the bounded tree settles only vertices closer than bound/2
    t = dijkstra_tree(g, 0, 2.0)
    assert dict(t.dist) == {0: 0.0}
    assert t.dist[1] == math.inf and t.parent[1] == -1 and t.branch[1] == -1
    assert sorted(dijkstra_tree(g, 0, 3.1).dist) == [0, 1, 3]
