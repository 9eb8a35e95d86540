"""Triangle existence, the perimeter decision, and the shortest triangle."""

import math
import random

import numpy as np
import pytest

import geogirth.disk_triangle as disk_triangle
from geogirth.disk_triangle import (decide_perimeter, find_triangle_disk,
                                    planar_triangle, shortest_triangle_disk)
from geogirth.generator import GeneratorSpec, generate
from geogirth.girth import girth_unweighted, weighted_girth_disk
from geogirth.graphs import (brute_girth_unweighted, brute_min_weight_cycle,
                             brute_shortest_triangle, brute_triangle,
                             build_disk_graph_brute, triangle_is_valid_disk)
from geogirth.grids import ShiftedGridIndex
from geogirth.sites import Site, SiteSet
from geogirth.sweep import build_plane_or_witness

SQRT2 = math.sqrt(2.0)


def S(*triples):
    return SiteSet([Site(i, x, y, r) for i, (x, y, r) in enumerate(triples)])


def test_find_triangle_far_disks_none():
    assert find_triangle_disk(S((0, 0, 1), (10, 0, 1), (0, 10, 1))) is None


def test_find_triangle_explicit():
    t = find_triangle_disk(S((0, 0, 1), (1.5, 0, 1), (0.75, 1, 1)))
    assert t is not None and t.sorted_ids == (0, 1, 2)


def test_find_triangle_dense_clique():
    rng = random.Random(30)
    sites = [Site(i, rng.uniform(0, 0.4), rng.uniform(0, 0.4), 1.0) for i in range(20)]
    ss = SiteSet(sites)
    t = find_triangle_disk(ss)
    assert t is not None and triangle_is_valid_disk(ss, t)


def test_find_triangle_matches_oracle(make_sites):
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randint(1, 64)
        ss = make_sites(n, seed=rng.randrange(10**6),
                        rmax=rng.choice([0.05, 0.12, 0.3]))
        fast = find_triangle_disk(ss)
        slow = brute_triangle(build_disk_graph_brute(ss), ss)
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert triangle_is_valid_disk(ss, fast)


def test_planar_triangle_k3_and_tree():
    ss = S((0, 0, 1), (1.5, 0, 1), (0.75, 1, 1))
    out = build_plane_or_witness(ss)
    assert out.plane
    assert planar_triangle(out.graph, ss) is not None
    tree = S((0, 0, 1), (1.5, 0, 1), (3.0, 0, 1))
    out = build_plane_or_witness(tree)
    assert planar_triangle(out.graph, tree) is None


def test_planar_triangle_matches_neighbor_intersection_oracle(make_sites):
    rng = random.Random(32)
    checked = 0
    while checked < 30:
        ss = make_sites(rng.randint(4, 64), seed=rng.randrange(10**6), rmax=0.08)
        out = build_plane_or_witness(ss)
        if not out.plane:
            continue
        got = planar_triangle(out.graph, ss)
        g = out.graph
        nbr = [set(v for v, _ in g.adj[u]) for u in range(g.n)]
        exists = any((nbr[u] & nbr[v]) - {u, v}
                     for u in range(g.n) for v in nbr[u] if v > u)
        assert (got is not None) == exists
        checked += 1


def test_grid_cover_property():
    # any triangle with edges <= ell/2 fits inside a cell of one of the
    # four shifted grids the decision buckets the sites into
    rng = random.Random(33)
    ell = 1.0
    pts = []
    for _ in range(100_000):
        ax, ay = rng.uniform(-3, 3), rng.uniform(-3, 3)
        # two more vertices within ell/2 of a, with all pairwise <= ell/2
        while True:
            bx, by = ax + rng.uniform(-0.5, 0.5), ay + rng.uniform(-0.5, 0.5)
            cx, cy = ax + rng.uniform(-0.5, 0.5), ay + rng.uniform(-0.5, 0.5)
            if math.dist((ax, ay), (bx, by)) <= 0.5 and \
               math.dist((ax, ay), (cx, cy)) <= 0.5 and \
               math.dist((bx, by), (cx, cy)) <= 0.5:
                break
        pts += [(ax, ay), (bx, by), (cx, cy)]
    xs, ys = np.array(pts).T
    keys = ShiftedGridIndex(xs, ys, ell).site_keys.reshape(4, -1, 3)
    # per triangle, some grid gives its three vertices one cell key
    assert (keys == keys[:, :, :1]).all(axis=2).any(axis=0).all()


def test_decide_perimeter_boundaries():
    ss = S((0, 0, 1), (1.5, 0, 1), (0.75, 1, 1))  # perimeter exactly 4.0
    assert decide_perimeter(ss, 4.0)
    assert not decide_perimeter(ss, 3.9)
    assert decide_perimeter(ss, 10.0)
    assert not decide_perimeter(S((0, 0, 1), (5, 0, 1)), 100.0)  # n = 2


def test_decide_perimeter_matches_brute(make_sites):
    rng = random.Random(34)
    for _ in range(300):
        n = rng.randint(3, 48)
        ss = make_sites(n, seed=rng.randrange(10**6),
                        rmax=rng.choice([0.06, 0.15, 0.35]))
        best = brute_shortest_triangle(build_disk_graph_brute(ss), ss)
        if best is None:
            W = rng.uniform(0.05, 3.0)
            assert not decide_perimeter(ss, W)
        else:
            P = best.perimeter
            assert decide_perimeter(ss, P)
            assert not decide_perimeter(ss, P * (1 - 1e-6))
            assert decide_perimeter(ss, P * rng.uniform(1.0, 2.0))
            W = rng.uniform(0.2, 1.8) * P
            assert decide_perimeter(ss, W) == (P <= W)


def _rim_pairs(rng, n):
    """Large disks, each with up to two pairs of touching small disks on its
    rim: short triangles with one large and two small vertices."""
    pts = []
    while len(pts) < n:
        cx, cy, cr = rng.uniform(0, 3), rng.uniform(0, 3), rng.uniform(0.1, 0.25)
        pts.append((cx, cy, cr))
        for _ in range(rng.randint(0, 2)):
            a, rs = rng.uniform(0, 2 * math.pi), rng.uniform(0.004, 0.01)
            for da in (0.0, rng.uniform(0.5, 1.9) * rs / cr):
                d = cr + rng.uniform(-0.5, 0.9) * rs
                pts.append((cx + d * math.cos(a + da), cy + d * math.sin(a + da), rs))
    return SiteSet([Site(i, x, y, r) for i, (x, y, r) in enumerate(pts[:n])])


def _check_against_brute(ss, extra_ws=()):
    """decide_perimeter at the shortest perimeter P, at both of its float
    neighbours (the values the optimization probes with) and at extra W."""
    best = brute_shortest_triangle(build_disk_graph_brute(ss), ss)
    if best is None:
        for W in extra_ws:
            assert not decide_perimeter(ss, W)
        return None
    P = best.perimeter
    for W in (P, np.nextafter(P, -np.inf), np.nextafter(P, np.inf), *extra_ws):
        assert decide_perimeter(ss, float(W)) == (P <= W), (P, W)
    return P


def test_decide_perimeter_at_optimization_probes(monkeypatch):
    # which batched step, (b) two large vertices or (c) one, answers true
    decided = {"b": 0, "c": 0}
    short_triangle = disk_triangle.short_triangle

    def counting(S, W, s, t, u, edges):
        found = short_triangle(S, W, s, t, u, edges)
        if found:
            ell = W / (3.0 * SQRT2) * (1.0 - 1e-12)
            decided["b" if S.rs[s[0]] > ell / 4.0 else "c"] += 1
        return found

    monkeypatch.setattr(disk_triangle, "short_triangle", counting)
    rng = random.Random(39)
    families = ({}, {"centers": "clustered"}, {"radius_law": "power"})
    for trial in range(90):
        n = rng.randint(8, 96)
        ss = generate(GeneratorSpec(n=n, seed=rng.randrange(10**6),
                                    **families[trial % 3]))
        _check_against_brute(ss, (rng.uniform(0.05, 1.0),))
    for _ in range(60):
        _check_against_brute(_rim_pairs(rng, rng.randint(8, 96)),
                             (rng.uniform(0.05, 1.0),))
    assert decided["b"] >= 20 and decided["c"] >= 20, decided


def test_decide_perimeter_far_offset_uses_python_int_keys():
    rng = random.Random(40)
    checked = 0
    for _ in range(12):
        n = rng.randint(8, 64)
        ss = SiteSet([Site(i, 1e8 + rng.uniform(0, 0.2), 1e8 + rng.uniform(0, 0.2),
                           rng.uniform(0.004, 0.02)) for i in range(n)])
        P = _check_against_brute(ss, (0.01, 0.05))
        if P is None:
            continue
        # at W = 2P the cell indices still pass 2^30: the object-key
        # fallback decides every probe
        assert ShiftedGridIndex(ss.xs, ss.ys, 2.0 * P / (3.0 * SQRT2)).keys.dtype == object
        for W in (P / 2.0, 2.0 * P):
            assert decide_perimeter(ss, W) == (P <= W)
        checked += 1
    assert checked >= 6


def test_decide_perimeter_python_int_keys_keep_cells_apart():
    # at W = 1e-6 site 0 lies in grid-0 cell (0, 2^32) and sites 1, 2 in
    # cell (1, 0); packed with base 2^32 both cells would be key 2^32, and
    # the three disks of radius 1000 would form an in-cell triangle
    W = 1e-6
    ell = W / (3.0 * SQRT2)
    ss = S((0.5 * ell, (2 ** 32 + 0.5) * ell, 1000.0), (1.5 * ell, 0.5 * ell, 1000.0),
           (1.5 * ell, 0.6 * ell, 1000.0))
    P = _check_against_brute(ss, (W, 1e-3))
    assert P > 2000.0


def test_decide_perimeter_tangent_disks():
    # 4x4 lattice of radius-0.5 disks: each neighbour pair is tangent, and
    # the lattice graph is triangle-free
    lattice = [(float(i), float(j), 0.5) for i in range(4) for j in range(4)]
    _check_against_brute(S(*lattice), (0.5, 1.0, 3.0, 2.0 + SQRT2, 4.0, 12.0, 100.0))
    # exactly tangent triangles: at W = 12 the 3-4-5 one has three large
    # vertices (step b); at W = 90 the 9-40-41 one has two small vertices,
    # of radii 4 and 5, and one large (step c)
    for tri, P in ((((0.0, 0.0, 2.0), (3.0, 0.0, 1.0), (3.0, 4.0, 3.0)), 12.0),
                   (((0.0, 0.0, 4.0), (9.0, 0.0, 5.0), (0.0, 40.0, 36.0)), 90.0)):
        assert _check_against_brute(S(*tri), (P / 2.0, 2.0 * P)) == P


def test_tangent_lattices_match_the_oracles():
    # k x k lattices of radius-0.5 disks at integer points: neighbours are
    # tangent, so the arc sweep meets shared event points everywhere
    for k in range(2, 13):
        ss = S(*[(float(i), float(j), 0.5) for i in range(k) for j in range(k)])
        g = build_disk_graph_brute(ss)
        assert brute_triangle(g, ss) is None
        assert find_triangle_disk(ss) is None
        assert shortest_triangle_disk(ss) is None
        assert not decide_perimeter(ss, 100.0)
        assert girth_unweighted(ss) == brute_girth_unweighted(g) == 4
        assert weighted_girth_disk(ss).length == brute_min_weight_cycle(g).length == 4.0


def test_decide_perimeter_third_vertex_three_cells_away():
    # large s, large t and small u with |su| just below W/2 = P/2: at
    # W = P, u lies three grid-0 cells from the pair's anchor s, so only
    # the full 7x7 block of step (b) holds it
    tri = ((0.0, 0.0, 1.91), (1.05, 0.05, 0.9), (2.1, 0.0, 0.2))
    P = brute_shortest_triangle(build_disk_graph_brute(S(*tri)), S(*tri)).perimeter
    ell = P / (3.0 * SQRT2)
    for sx, sy, swap in ((1, 1, False), (-1, 1, False), (1, -1, True), (-1, -1, True)):
        pts = [(sx * x + 0.999 * ell * sx, sy * y + 0.5 * ell, r) for x, y, r in tri]
        if swap:
            pts = [(y, x, r) for x, y, r in pts]
        assert _check_against_brute(S(*pts), (P / 2.0, 2.0 * P)) is not None


def test_decide_perimeter_monotone(make_sites):
    rng = random.Random(35)
    for _ in range(40):
        ss = make_sites(rng.randint(3, 40), seed=rng.randrange(10**6), rmax=0.2)
        answers = [decide_perimeter(ss, w) for w in (0.05, 0.1, 0.2, 0.4, 0.8, 1.6)]
        # once true, stays true
        assert answers == sorted(answers)


def test_shortest_triangle_single_instance():
    ss = S((0, 0, 1), (1.5, 0, 1), (0.75, 1, 1))
    t = shortest_triangle_disk(ss)
    assert t.perimeter == pytest.approx(4.0) and t.sorted_ids == (0, 1, 2)
    assert shortest_triangle_disk(S((0, 0, 1), (10, 0, 1), (5, 8, 1))) is None


def test_shortest_triangle_matches_brute(make_sites):
    rng = random.Random(36)
    for trial in range(200):
        n = rng.randint(3, 48)
        ss = make_sites(n, seed=rng.randrange(10**6),
                        rmax=rng.choice([0.08, 0.2, 0.4]))
        slow = brute_shortest_triangle(build_disk_graph_brute(ss), ss)
        fast = shortest_triangle_disk(ss, rng_seed=trial)
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert abs(fast.perimeter - slow.perimeter) <= 1e-9 * max(1.0, slow.perimeter)
            assert fast.sorted_ids == slow.sorted_ids


def test_shortest_triangle_seed_independent(make_sites):
    ss = make_sites(48, seed=37, rmax=0.25)
    ref = shortest_triangle_disk(ss, rng_seed=0)
    for seed in range(1, 8):
        t = shortest_triangle_disk(ss, rng_seed=seed)
        assert t.sorted_ids == ref.sorted_ids and t.perimeter == ref.perimeter


def test_decision_of_computed_shortest(make_sites):
    # decide(P) is true and decide((1 - 1e-6) P) is false on non-degenerate
    # random instances
    rng = random.Random(38)
    done = 0
    while done < 25:
        ss = make_sites(rng.randint(6, 40), seed=rng.randrange(10**6), rmax=0.25)
        t = shortest_triangle_disk(ss, rng_seed=done)
        if t is None:
            continue
        assert decide_perimeter(ss, t.perimeter)
        assert not decide_perimeter(ss, t.perimeter * (1 - 1e-6))
        done += 1
