"""Directed triangles in transmission graphs."""

import math
import random

import numpy as np
import pytest

import geogirth.tx as tx
from geogirth.disk_triangle import decide_perimeter
from geogirth.graphs import (brute_directed_triangle, brute_shortest_directed_triangle,
                             brute_shortest_triangle, build_disk_graph_brute,
                             build_tx_graph_brute, triangle_is_valid_tx)
from geogirth.grids import GridIndex
from geogirth.sites import Site, SiteSet, tx_edge
from geogirth.tx import (decide_tx_perimeter, find_directed_triangle,
                         shortest_triangle_tx)


def S(*triples):
    return SiteSet([Site(i, x, y, r) for i, (x, y, r) in enumerate(triples)])


TX3 = ((0.0, 0.0, 2.0), (1.0, 0.0, 3.0), (0.5, 0.5, 1.0))


def test_context_scales():
    # the decision calls sites of radius above ell = W/sqrt(27) large,
    # because any triangle inside a disk of radius r has perimeter
    # <= 3*sqrt(3)*r; spot-check with inscribed equilateral triangles
    rng = random.Random(90)
    for _ in range(2000):
        r = rng.uniform(0.1, 3.0)
        ang = rng.uniform(0, 2 * math.pi)
        pts = [(r * math.cos(ang + k * 2 * math.pi / 3),
                r * math.sin(ang + k * 2 * math.pi / 3)) for k in range(3)]
        peri = sum(math.dist(pts[i], pts[(i + 1) % 3]) for i in range(3))
        assert peri <= 3 * math.sqrt(3) * r * (1 + 1e-12)


def test_find_directed_triangle_three_sites():
    t = find_directed_triangle(S(*TX3))
    assert t is not None and t.sorted_ids == (0, 1, 2)


def test_find_directed_triangle_disjoint_none():
    ss = S((0, 0, 0.5), (10, 0, 0.5), (0, 10, 0.5), (10, 10, 0.5))
    assert find_directed_triangle(ss) is None


def test_find_directed_triangle_matches_oracle(make_sites):
    rng = random.Random(91)
    for _ in range(250):
        n = rng.randint(1, 64)
        ss = make_sites(n, seed=rng.randrange(10**6),
                        rmax=rng.choice([0.06, 0.15, 0.4]))
        fast = find_directed_triangle(ss)
        slow = brute_directed_triangle(build_tx_graph_brute(ss), ss)
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert triangle_is_valid_tx(ss, fast)


def test_decide_tx_three_site_perimeter():
    ss = S(*TX3)
    peri = 1.0 + math.sqrt(0.5) + math.sqrt(0.5)
    assert peri == pytest.approx(2.41421356, abs=1e-6)
    assert decide_tx_perimeter(ss, 2.5)
    assert not decide_tx_perimeter(ss, 2.4)
    # triangle-free: always false
    ss = S((0, 0, 0.5), (10, 0, 0.5), (0, 10, 0.5))
    for w in (0.5, 5.0, 500.0):
        assert not decide_tx_perimeter(ss, w)


def test_decide_tx_matches_brute(make_sites):
    rng = random.Random(92)
    for _ in range(300):
        n = rng.randint(3, 48)
        ss = make_sites(n, seed=rng.randrange(10**6),
                        rmax=rng.choice([0.08, 0.2, 0.45]))
        best = brute_shortest_directed_triangle(build_tx_graph_brute(ss), ss)
        if best is None:
            assert not decide_tx_perimeter(ss, rng.uniform(0.1, 4.0))
        else:
            P = best.perimeter
            assert decide_tx_perimeter(ss, P)
            assert not decide_tx_perimeter(ss, P * (1 - 1e-6))
            W = rng.uniform(0.3, 1.7) * P
            assert decide_tx_perimeter(ss, W) == (P <= W)


def test_decide_tx_monotone(make_sites):
    rng = random.Random(93)
    for _ in range(40):
        ss = make_sites(rng.randint(3, 40), seed=rng.randrange(10**6), rmax=0.25)
        answers = [decide_tx_perimeter(ss, w)
                   for w in (0.05, 0.12, 0.3, 0.7, 1.6, 4.0)]
        assert answers == sorted(answers)


def test_small_to_large_indegree_bound(make_sites):
    # when the decision is negative, every large site has at most six
    # incoming transmission arcs from small sites
    rng = random.Random(94)
    checked = 0
    while checked < 40:
        ss = make_sites(rng.randint(4, 40), seed=rng.randrange(10**6), rmax=0.3)
        best = brute_shortest_directed_triangle(build_tx_graph_brute(ss), ss)
        W = rng.uniform(0.1, 2.0) if best is None else best.perimeter * 0.95
        if decide_tx_perimeter(ss, W):
            continue
        ell = W / math.sqrt(27.0) * (1.0 - 1e-12)
        for t in range(len(ss)):
            if ss.rs[t] <= ell:
                continue
            indeg = sum(1 for s in range(len(ss))
                        if s != t and ss.rs[s] <= ell and tx_edge(ss[s], ss[t]))
            assert indeg <= 6
        checked += 1


def test_shortest_tx_single_and_none():
    t = shortest_triangle_tx(S(*TX3))
    assert t is not None and t.perimeter == pytest.approx(2.41421356, abs=1e-6)
    assert shortest_triangle_tx(S((0, 0, 0.5), (10, 0, 0.5), (0, 10, 0.5))) is None


def test_shortest_tx_matches_brute(make_sites):
    rng = random.Random(95)
    for trial in range(200):
        n = rng.randint(3, 48)
        ss = make_sites(n, seed=rng.randrange(10**6),
                        rmax=rng.choice([0.08, 0.2, 0.45]))
        slow = brute_shortest_directed_triangle(build_tx_graph_brute(ss), ss)
        fast = shortest_triangle_tx(ss, rng_seed=trial)
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert abs(fast.perimeter - slow.perimeter) <= 1e-9 * max(1.0, slow.perimeter)
            assert fast.sorted_ids == slow.sorted_ids


def test_reported_triples_satisfy_all_arcs(make_sites):
    rng = random.Random(96)
    found = 0
    while found < 60:
        ss = make_sites(rng.randint(3, 48), seed=rng.randrange(10**6), rmax=0.3)
        t = find_directed_triangle(ss)
        if t is None:
            continue
        assert triangle_is_valid_tx(ss, t)
        found += 1


def _check_tx_against_brute(ss, extra_ws=()):
    """decide_tx_perimeter at the optimum P, its float neighbours and
    `extra_ws` against the oracle; returns P, or None if triangle-free."""
    best = brute_shortest_directed_triangle(build_tx_graph_brute(ss), ss)
    if best is None:
        for W in extra_ws:
            assert not decide_tx_perimeter(ss, W)
        return None
    P = best.perimeter
    for W in (P, np.nextafter(P, -np.inf), np.nextafter(P, np.inf), *extra_ws):
        assert decide_tx_perimeter(ss, float(W)) == (P <= W), (P, W)
    return P


def test_decide_tx_far_offset_uses_python_int_keys(monkeypatch):
    # candidate pairs with a small in-neighbour x reach the batched test
    # through the cell-index window, here on Python-int cell indices
    small_pairs = []
    batched = tx.short_triangle

    def counting(S, W, s, t, u, edges):
        ell = W / math.sqrt(27.0) * (1.0 - 1e-12)
        small_pairs.append(int((S.rs[s] <= ell).sum()))
        return batched(S, W, s, t, u, edges)

    monkeypatch.setattr(tx, "short_triangle", counting)
    rng = random.Random(97)
    checked = 0
    for _ in range(40):
        n = rng.randint(8, 48)
        ss = SiteSet([Site(i, 1e8 + rng.uniform(0, 0.1), -1e8 + rng.uniform(0, 0.1),
                           rng.uniform(0.005, 0.05)) for i in range(n)])
        P = _check_tx_against_brute(ss, (0.01, 0.05))
        if P is None:
            continue
        for W in (P / 2.0, 2.0 * P):
            assert decide_tx_perimeter(ss, W) == (P <= W)
        # at the optimum the grid's cell indices pass 2^30
        assert GridIndex(ss, P / math.sqrt(54.0)).ix.dtype == object
        checked += 1
    assert checked >= 20
    assert sum(1 for m in small_pairs if m) >= 10


def test_decide_tx_closes_through_small_in_neighbour(monkeypatch):
    # t -> y -> x -> t with t large and x, y small: for W in [s, 1.3 s] no
    # step before (4) sees the triangle (x, y alone form none, no cell of
    # diameter <= 0.25 s holds all three, t has one small in-neighbour),
    # and x is t's small in-neighbour, not a large site of its block
    decided_by_small_x = []
    batched = tx.short_triangle

    def counting(S, W, s, t, u, edges):
        small = S.rs[s] <= W / math.sqrt(27.0) * (1.0 - 1e-12)
        decided_by_small_x.append(batched(S, W, s[small], t[small], u[small], edges))
        return batched(S, W, s, t, u, edges)

    monkeypatch.setattr(tx, "short_triangle", counting)
    rng = random.Random(98)
    base = np.array([(0.0, 0.0, 0.5), (0.18, 0.0, 0.19), (0.18, 0.18, 0.19)])
    for _ in range(30):
        s = rng.uniform(0.01, 100.0)
        ang = rng.uniform(0.0, 2.0 * math.pi)
        c, d = math.cos(ang), math.sin(ang)
        ox, oy = rng.uniform(-50, 50), rng.uniform(-50, 50)
        xs = ox + s * (c * base[:, 0] - d * base[:, 1])
        ys = oy + s * (d * base[:, 0] + c * base[:, 1])
        # isolated decoys far from the triangle and from each other
        dec = [(ox + s * 10.0 * (k + 1), oy - s * 10.0, s * 0.05) for k in range(4)]
        ss = SiteSet.from_arrays(np.concatenate((xs, [p[0] for p in dec])),
                                 np.concatenate((ys, [p[1] for p in dec])),
                                 np.concatenate((s * base[:, 2], [p[2] for p in dec])))
        ws = [s * rng.uniform(1.0, 1.3) for _ in range(3)]
        P = _check_tx_against_brute(ss, ws)
        assert P is not None and P < s
        decided_by_small_x.clear()
        for W in ws:
            assert decide_tx_perimeter(ss, W)
        assert decided_by_small_x == [True] * len(ws)


def test_decisions_build_no_site_tuples(monkeypatch, make_sites):
    rng = random.Random(99)
    cases = []
    for _ in range(40):
        ss = make_sites(rng.randint(3, 48), seed=rng.randrange(10**6),
                        rmax=rng.choice([0.08, 0.2, 0.45]))
        disk = brute_shortest_triangle(build_disk_graph_brute(ss), ss)
        directed = brute_shortest_directed_triangle(build_tx_graph_brute(ss), ss)
        cases.append((ss, disk, directed, rng.uniform(0.3, 1.7)))

    def no_tuples(self):
        raise AssertionError("Site tuples built")

    monkeypatch.setattr(SiteSet, "sites", property(no_tuples))
    for ss, disk, directed, c in cases:
        for best, decide in ((disk, decide_perimeter), (directed, decide_tx_perimeter)):
            if best is None:
                assert not decide(ss, c)
                continue
            P = best.perimeter
            for W in (P, float(np.nextafter(P, -np.inf)), c * P):
                assert decide(ss, W) == (P <= W)
