"""Arc sweep, containment edges, crossing detection, triangle extraction."""

import random

import pytest

from geogirth.graphs import build_disk_graph_brute
from geogirth.sites import Site, SiteSet, circle_circle_points, disk_edge
from geogirth.sweep import (_ArcSweep, build_plane_or_witness,
                            find_segment_crossing, proper_crossing,
                            triangle_from_crossing)


def S(*triples):
    return SiteSet([Site(i, x, y, r) for i, (x, y, r) in enumerate(triples)])


def _nested(a, b):
    """One of the two disks contains the other (no boundary crossing)."""
    dx, dy, dr = a.x - b.x, a.y - b.y, abs(a.r - b.r)
    return dx * dx + dy * dy <= dr * dr


def _containment_edges(ss):
    """The nested pairs among the edges the arc sweep reports."""
    res = _ArcSweep(ss).run()
    return sorted(p for p in res.edge_pairs if _nested(ss[p[0]], ss[p[1]])), \
        res.edge_exceeded


def test_arc_intersections_disjoint_tangent_lens():
    res = _ArcSweep(S((0, 0, 1), (5, 0, 1)), inter_limit=100).run()
    assert res.intersections == [] and not res.inter_exceeded
    res = _ArcSweep(S((0, 0, 1), (2, 0, 1)), inter_limit=100).run()
    assert len(res.intersections) == 1 and not res.inter_exceeded
    res = _ArcSweep(S((0, 0, 1), (1, 0, 1)), inter_limit=100).run()
    assert len(res.intersections) == 2


def test_arc_intersections_match_pairwise_enumeration(make_sites):
    rng = random.Random(20)
    for _ in range(30):
        ss = make_sites(rng.randint(2, 100), seed=rng.randrange(10**6),
                        rmax=rng.choice([0.06, 0.15, 0.4]))
        res = _ArcSweep(ss, inter_limit=10**9).run()
        got = sorted((round(x, 9), round(y, 9), i, j) for x, y, i, j in res.intersections)
        exp = sorted((round(p[0], 9), round(p[1], 9), i, j)
                     for i in range(len(ss)) for j in range(i + 1, len(ss))
                     for p in circle_circle_points(ss[i], ss[j]))
        assert got == exp


def test_arc_intersections_report_in_x_order_and_abort(make_sites):
    ss = make_sites(60, seed=21, rmax=0.4)
    res = _ArcSweep(ss, inter_limit=10**9).run()
    xs = [p[0] for p in res.intersections]
    assert xs == sorted(xs)
    if len(res.intersections) > 5:
        res2 = _ArcSweep(ss, inter_limit=5).run()
        assert res2.inter_exceeded and len(res2.intersections) == 6  # limit + 1 reports


def test_containment_nested_and_disjoint():
    edges, exc = _containment_edges(S((0, 0, 3), (0.5, 0, 1)))
    assert edges == [(0, 1)] and not exc
    edges, exc = _containment_edges(S((0, 0, 1), (5, 0, 1)))
    assert edges == []


def test_containment_matches_pairwise_scan(make_sites):
    rng = random.Random(22)
    for _ in range(40):
        ss = make_sites(rng.randint(2, 64), seed=rng.randrange(10**6),
                        rmax=rng.choice([0.2, 0.6, 1.2]))
        got, _ = _containment_edges(ss)
        exp = sorted((i, j) for i in range(len(ss)) for j in range(i + 1, len(ss))
                     if _nested(ss[i], ss[j]))
        assert got == exp


def test_plane_pipeline_edge_set_equals_brute(make_sites):
    rng = random.Random(23)
    planes = witnesses = 0
    for _ in range(60):
        ss = make_sites(rng.randint(2, 128), seed=rng.randrange(10**6),
                        rmax=rng.choice([0.04, 0.1, 0.3]))
        out = build_plane_or_witness(ss)
        brute = build_disk_graph_brute(ss)
        if out.plane:
            planes += 1
            assert set((u, v) for u, v, _ in out.graph.edges()) == \
                set((u, v) for u, v, _ in brute.edges())
            n = len(ss)
            assert out.graph.edge_count() <= max(0, 3 * n - 6) or n <= 3
            # independent quadratic segment-crossing check
            assert find_segment_crossing(
                ss, [(u, v) for u, v, _ in out.graph.edges()]) is None
        else:
            witnesses += 1
            a, b, c = out.witness.ids
            assert disk_edge(ss[a], ss[b]) and disk_edge(ss[b], ss[c]) \
                and disk_edge(ss[a], ss[c])
    assert planes > 5 and witnesses > 5


def test_plane_outcome_matches_quadratic_oracle(make_sites):
    # Plane <=> brute graph has <= 3n-6 edges and no proper segment crossing
    rng = random.Random(24)
    for _ in range(40):
        n = rng.randint(4, 48)
        ss = make_sites(n, seed=rng.randrange(10**6), rmax=rng.choice([0.06, 0.2]))
        out = build_plane_or_witness(ss)
        brute = build_disk_graph_brute(ss)
        edges = [(u, v) for u, v, _ in brute.edges()]
        crossing = None
        for i in range(len(edges)):
            for j in range(i + 1, len(edges)):
                (a, b), (c, d) = edges[i], edges[j]
                if len({a, b, c, d}) < 4:
                    continue
                if proper_crossing((ss.xs[a], ss.ys[a]), (ss.xs[b], ss.ys[b]),
                                   (ss.xs[c], ss.ys[c]), (ss.xs[d], ss.ys[d])):
                    crossing = (a, b, c, d)
                    break
            if crossing:
                break
        should_be_plane = len(edges) <= max(0, 3 * n - 6) and crossing is None
        assert out.plane == should_be_plane


def _common_point_exists(sa, sb, sc, samples=20000, seed=0):
    """Numeric check that three disks share a point (dense sampling plus the
    pairwise lens midpoints)."""
    cands = []
    for u, v in ((sa, sb), (sb, sc), (sa, sc)):
        pts = circle_circle_points(u, v)
        cands.extend(pts)
        if pts:
            cands.append(((pts[0][0] + pts[-1][0]) / 2, (pts[0][1] + pts[-1][1]) / 2))
    cands.extend([(s.x, s.y) for s in (sa, sb, sc)])
    rng = random.Random(seed)
    x0 = min(s.x - s.r for s in (sa, sb, sc))
    x1 = max(s.x + s.r for s in (sa, sb, sc))
    y0 = min(s.y - s.r for s in (sa, sb, sc))
    y1 = max(s.y + s.r for s in (sa, sb, sc))
    for _ in range(samples):
        cands.append((rng.uniform(x0, x1), rng.uniform(y0, y1)))
    eps = 1e-9 * max(s.r for s in (sa, sb, sc))
    for (px, py) in cands:
        if all((px - s.x) ** 2 + (py - s.y) ** 2 <= (s.r + eps) ** 2
               for s in (sa, sb, sc)):
            return True
    return False


def test_triangle_from_crossing_explicit():
    s, t = Site(0, 0, 0, 2.0), Site(1, 3, 0, 2.0)
    u, v = Site(2, 1, 1, 1.2), Site(3, 1, -1, 1.2)
    tri = triangle_from_crossing(s, t, u, v)
    ids = {0: s, 1: t, 2: u, 3: v}
    a, b, c = (ids[i] for i in tri.ids)
    assert disk_edge(a, b) and disk_edge(b, c) and disk_edge(a, c)
    assert _common_point_exists(a, b, c)


def test_triangle_from_crossing_random_crossings(make_sites):
    rng = random.Random(25)
    checked = 0
    while checked < 60:
        ss = make_sites(rng.randint(8, 40), seed=rng.randrange(10**6), rmax=0.35)
        g = build_disk_graph_brute(ss)
        edges = [(u, v) for u, v, _ in g.edges()]
        hit = find_segment_crossing(ss, edges)
        if hit is None:
            continue
        a, b, c, d = hit
        tri = triangle_from_crossing(ss[a], ss[b], ss[c], ss[d])
        x, y, z = (ss[i] for i in tri.ids)
        assert disk_edge(x, y) and disk_edge(y, z) and disk_edge(x, z)
        assert _common_point_exists(x, y, z, seed=checked)
        checked += 1


def test_triangle_from_crossing_rejects_noncrossing():
    s, t = Site(0, 0, 0, 2.0), Site(1, 3, 0, 2.0)
    u, v = Site(2, 10, 1, 1.2), Site(3, 10, -1, 1.2)
    with pytest.raises(ValueError):
        triangle_from_crossing(s, t, u, v)


def test_find_segment_crossing_against_quadratic(make_sites):
    rng = random.Random(26)
    for _ in range(40):
        ss = make_sites(rng.randint(4, 40), seed=rng.randrange(10**6),
                        rmax=rng.choice([0.1, 0.3]))
        g = build_disk_graph_brute(ss)
        edges = [(u, v) for u, v, _ in g.edges()]
        got = find_segment_crossing(ss, edges)
        exists = False
        for i in range(len(edges)):
            for j in range(i + 1, len(edges)):
                (a, b), (c, d) = edges[i], edges[j]
                if len({a, b, c, d}) < 4:
                    continue
                if proper_crossing((ss.xs[a], ss.ys[a]), (ss.xs[b], ss.ys[b]),
                                   (ss.xs[c], ss.ys[c]), (ss.xs[d], ss.ys[d])):
                    exists = True
        assert (got is not None) == exists
        if got is not None:
            a, b, c, d = got
            assert proper_crossing((ss.xs[a], ss.ys[a]), (ss.xs[b], ss.ys[b]),
                                   (ss.xs[c], ss.ys[c]), (ss.xs[d], ss.ys[d]))
