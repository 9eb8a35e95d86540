"""Graph structures and the brute-force oracles."""

import math
import random

import pytest

from geogirth.graphs import (brute_directed_triangle,
                             brute_girth_unweighted, brute_min_weight_cycle,
                             brute_shortest_triangle, brute_triangle,
                             build_disk_graph_brute, build_tx_graph_brute,
                             cycle_is_valid, enumerate_simple_cycles,
                             UndirectedGraph)
from geogirth.sites import Site, SiteSet, disk_edge, tx_edge


def S(*triples):
    return SiteSet([Site(i, x, y, r) for i, (x, y, r) in enumerate(triples)])


def test_disk_graph_collinear_and_singleton():
    g = build_disk_graph_brute(S((0, 0, 1), (1.5, 0, 1), (4, 0, 1)))
    assert sorted((u, v) for u, v, _ in g.edges()) == [(0, 1)]
    assert build_disk_graph_brute(S((0, 0, 1))).edge_count() == 0


def test_disk_graph_recount(make_sites):
    ss = make_sites(64, seed=10)
    g = build_disk_graph_brute(ss)
    cnt = sum(1 for i in range(64) for j in range(i + 1, 64) if disk_edge(ss[i], ss[j]))
    assert g.edge_count() == cnt
    # symmetry invariant
    for u in range(g.n):
        for v, w in g.adj[u]:
            assert (u, w) in [(x, y) for x, y in g.adj[v]]


def test_tx_graph_three_sites_and_recount(make_sites):
    ss = S((0, 0, 2), (1, 0, 3), (0.5, 0.5, 1))
    g = build_tx_graph_brute(ss)
    arcs = sorted((u, v) for u, v, _ in g.arcs())
    assert arcs == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
    assert build_tx_graph_brute(S((0, 0, 1))).arc_count() == 0
    ss = make_sites(64, seed=11)
    g = build_tx_graph_brute(ss)
    cnt = sum(1 for i in range(64) for j in range(64)
              if i != j and tx_edge(ss[i], ss[j]))
    assert g.arc_count() == cnt


def test_brute_triangle_perimeter_and_path():
    ss = S((0, 0, 1), (1.5, 0, 1), (0.75, 1, 1))
    t = brute_triangle(build_disk_graph_brute(ss), ss)
    assert t is not None and t.perimeter == pytest.approx(4.0)
    # path graph: no triangle
    ss = S((0, 0, 1), (1.5, 0, 1), (3.0, 0, 1))
    assert brute_triangle(build_disk_graph_brute(ss), ss) is None


def test_brute_directed_triangle_three_site_instance():
    ss = S((0, 0, 2), (1, 0, 3), (0.5, 0.5, 1))
    t = brute_directed_triangle(build_tx_graph_brute(ss), ss)
    assert t is not None and t.sorted_ids == (0, 1, 2)


def test_brute_shortest_triangle_picks_smaller():
    # two disjoint triangles, perimeters 4.0 and 6.0
    tri1 = [(0, 0, 1), (1.5, 0, 1), (0.75, 1, 1)]
    tri2 = [(100, 0, 1.5), (102, 0, 1.5), (101, 1.99, 1.6)]
    ss = S(*(tri1 + tri2))
    t = brute_shortest_triangle(build_disk_graph_brute(ss), ss)
    assert t.sorted_ids == (0, 1, 2)
    assert t.perimeter == pytest.approx(4.0)
    only = S(*tri1)
    assert brute_shortest_triangle(build_disk_graph_brute(only), only).perimeter == \
        pytest.approx(4.0)
    path = S((0, 0, 1), (1.5, 0, 1), (3.0, 0, 1))
    assert brute_shortest_triangle(build_disk_graph_brute(path), path) is None


def _four_cycle_graph(weights=(1.0, 1.0, 1.0, 1.0)):
    g = UndirectedGraph(4)
    for (u, v), w in zip(((0, 1), (1, 2), (2, 3), (3, 0)), weights):
        g.add_edge(u, v, w)
    return g


def test_brute_girth_four_cycle_and_tree():
    assert brute_girth_unweighted(_four_cycle_graph()) == 4
    g = UndirectedGraph(4)
    g.add_edge(0, 1, 1.0)
    g.add_edge(1, 2, 1.0)
    g.add_edge(1, 3, 1.0)
    assert brute_girth_unweighted(g) is None


def test_brute_girth_vs_exhaustive_enumeration(make_sites):
    rng = random.Random(12)
    for _ in range(40):
        ss = make_sites(rng.randint(3, 12), seed=rng.randrange(10**6), rmax=0.4)
        g = build_disk_graph_brute(ss)
        cycles = enumerate_simple_cycles(g)
        expected = min((len(c) for c, _ in cycles), default=None)
        assert brute_girth_unweighted(g) == expected


def test_brute_min_weight_cycle_cases():
    c = brute_min_weight_cycle(_four_cycle_graph())
    assert c.length == pytest.approx(4.0) and c.hops == 4
    # 3-4-5 triangle plus a lighter 4-cycle elsewhere
    g = UndirectedGraph(7)
    g.add_edge(0, 1, 3.0)
    g.add_edge(1, 2, 4.0)
    g.add_edge(2, 0, 5.0)
    for (u, v), w in zip(((3, 4), (4, 5), (5, 6), (6, 3)), (3.0, 3.0, 2.5, 2.5)):
        g.add_edge(u, v, w)
    c = brute_min_weight_cycle(g)
    assert c.length == pytest.approx(11.0)
    assert sorted(set(c.vertices)) == [3, 4, 5, 6]
    assert cycle_is_valid(g, c)


def test_min_cycle_lower_bound_sanity(make_sites):
    # cycle length is at least 3 times the smallest pairwise distance on it
    rng = random.Random(13)
    for _ in range(25):
        ss = make_sites(rng.randint(4, 24), seed=rng.randrange(10**6), rmax=0.3)
        g = build_disk_graph_brute(ss)
        c = brute_min_weight_cycle(g)
        if c is None:
            continue
        dmin = min(math.dist((ss[u].x, ss[u].y), (ss[v].x, ss[v].y))
                   for i, u in enumerate(c.vertices) for v in c.vertices[i + 1:])
        assert c.length >= 3 * dmin - 1e-12


def test_oracle_determinism(make_sites):
    ss = make_sites(40, seed=14, rmax=0.25)
    g1 = build_disk_graph_brute(ss)
    g2 = build_disk_graph_brute(ss)
    assert brute_triangle(g1, ss) == brute_triangle(g2, ss)
    assert brute_shortest_triangle(g1, ss) == brute_shortest_triangle(g2, ss)
    c1, c2 = brute_min_weight_cycle(g1), brute_min_weight_cycle(g2)
    assert (c1 is None) == (c2 is None)
    if c1 is not None:
        assert c1.vertices == c2.vertices and c1.length == c2.length
