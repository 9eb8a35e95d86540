"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here.  Criterion 7 runs the full scaling bench
(four commands, n = 2^12 .. 2^17, median of 5 repeats per size) and is by
far the longest test in the suite.
"""

import math
import random
import sys
import time

import numpy as np

from geogirth.disk_triangle import (decide_perimeter, find_triangle_disk,
                                    shortest_triangle_disk)
from geogirth.girth import (dijkstra_tree, girth_unweighted,
                            shortest_cycle_through, weighted_girth_disk)
from geogirth.graphs import (brute_directed_triangle, brute_girth_unweighted,
                             brute_min_weight_cycle,
                             brute_shortest_directed_triangle,
                             brute_shortest_triangle, brute_triangle,
                             build_disk_graph_brute, build_tx_graph_brute,
                             triangle_is_valid_disk, triangle_is_valid_tx)
from geogirth.grids import ShiftedGridIndex
from geogirth.range_search import (ALPHA, QueryTripleR2, lifted_planes,
                                   lifted_points, lifted_violations, solve_R1,
                                   solve_R2)
from geogirth.sites import Site, SiteSet, circle_circle_points, disk_edge
from geogirth.sweep import find_segment_crossing, triangle_from_crossing
from geogirth.tx import find_directed_triangle, shortest_triangle_tx
from geogirth.zorder import GridCell, build_compressed_quadtree

REL = 1e-9


def _report(criterion: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def _mixed_instance(rng: random.Random, n: int) -> SiteSet:
    """Random instance under one of several radius laws."""
    law = rng.randrange(3)
    sites = []
    for i in range(n):
        x, y = rng.uniform(0, 1), rng.uniform(0, 1)
        if law == 0:
            r = rng.uniform(0.02, rng.choice([0.08, 0.18, 0.35]))
        elif law == 1:
            r = 0.02 * (1.0 - rng.random()) ** (-1.0 / 1.5)  # heavy tail
        else:
            r = abs(rng.gauss(0.12, 0.05)) + 0.01
        sites.append(Site(i, x, y, min(r, 2.0)))
    return SiteSet(sites)


def test_criterion_1_disk_triangle_presence():
    rng = random.Random(101)
    t0 = time.perf_counter()
    for trial in range(1000):
        n = rng.randint(3, 64)
        ss = _mixed_instance(rng, n)
        fast = find_triangle_disk(ss)
        slow = brute_triangle(build_disk_graph_brute(ss), ss)
        assert (fast is None) == (slow is None), f"trial {trial}"
        if fast is not None:
            assert triangle_is_valid_disk(ss, fast)
    elapsed = time.perf_counter() - t0
    _report("1 disk-triangle oracle equivalence", elapsed <= 60.0,
            f"1000 instances, {elapsed:.1f}s <= 60s")


def test_criterion_2_shortest_disk_triangle():
    rng = random.Random(102)
    for trial in range(200):
        n = rng.randint(3, 48)
        ss = _mixed_instance(rng, n)
        slow = brute_shortest_triangle(build_disk_graph_brute(ss), ss)
        fast = shortest_triangle_disk(ss, rng_seed=trial)
        assert (fast is None) == (slow is None), f"trial {trial}"
        if fast is not None:
            assert abs(fast.perimeter - slow.perimeter) <= REL * max(1.0, slow.perimeter)
            assert fast.sorted_ids == slow.sorted_ids, f"trial {trial}"
    _report("2 shortest disk triangle", True, "200 instances, rel 1e-9, same vertices")


def test_criterion_3_girths():
    rng = random.Random(103)
    for trial in range(300):
        n = rng.randint(1, 128)
        ss = _mixed_instance(rng, n)
        assert girth_unweighted(ss) == \
            brute_girth_unweighted(build_disk_graph_brute(ss)), f"trial {trial}"
    for trial in range(150):
        n = rng.randint(3, 48)
        ss = _mixed_instance(rng, n)
        slow = brute_min_weight_cycle(build_disk_graph_brute(ss))
        fast = weighted_girth_disk(ss, rng_seed=trial)
        assert (fast is None) == (slow is None), f"wtrial {trial}"
        if fast is not None:
            assert abs(fast.length - slow.length) <= REL * max(1.0, slow.length)
    _report("3 girth oracle equivalence", True,
            "300 unweighted + 150 weighted instances")


def test_criterion_4_transmission():
    rng = random.Random(104)
    for trial in range(500):
        n = rng.randint(1, 64)
        ss = _mixed_instance(rng, n)
        fast = find_directed_triangle(ss)
        slow = brute_directed_triangle(build_tx_graph_brute(ss), ss)
        assert (fast is None) == (slow is None), f"trial {trial}"
        if fast is not None:
            assert triangle_is_valid_tx(ss, fast)
    for trial in range(200):
        n = rng.randint(3, 48)
        ss = _mixed_instance(rng, n)
        slow = brute_shortest_directed_triangle(build_tx_graph_brute(ss), ss)
        fast = shortest_triangle_tx(ss, rng_seed=trial)
        assert (fast is None) == (slow is None), f"strial {trial}"
        if fast is not None:
            assert abs(fast.perimeter - slow.perimeter) <= REL * max(1.0, slow.perimeter)
            assert fast.sorted_ids == slow.sorted_ids
    _report("4 transmission oracle equivalence", True,
            "500 presence + 200 shortest instances")


def test_criterion_5_range_search_contracts():
    rng = random.Random(105)
    for trial in range(100):
        n = rng.randint(1, 256)
        ss = _mixed_instance(rng, n)
        out = solve_R1(ss)
        if out.is_crowded:
            ids = out.crowded.qualifying_sites(ss)
            assert len(ids) > ALPHA, f"R1 certificate recount trial {trial}"
        else:
            for s in range(n):
                exp = sorted(t for t in range(n) if t != s
                             and (ss.xs[s] - ss.xs[t]) ** 2 + (ss.ys[s] - ss.ys[t]) ** 2
                             <= ss.rs[s] ** 2 and ss.rs[t] >= ss.rs[s] / 2)
                assert sorted(out.edges[s].tolist()) == exp, f"R1 trial {trial} s={s}"
                assert len(exp) <= ALPHA
    for trial in range(100):
        n = rng.randint(1, 200)
        ss = _mixed_instance(rng, n)
        queries = []
        for _ in range(rng.randint(1, 50)):
            s = rng.randrange(n)
            r1 = float(ss.rs[s]) * rng.uniform(0.5, 1.5)
            queries.append(QueryTripleR2(int(s), r1, r1 * rng.uniform(1.01, 4.0)))
        got = solve_R2(ss, queries)
        exists = any(
            u != q.s and q.r1 <= ss.rs[u] < q.r2 and
            (ss.xs[u] - ss.xs[q.s]) ** 2 + (ss.ys[u] - ss.ys[q.s]) ** 2 <= ss.rs[u] ** 2
            for q in queries for u in range(n))
        assert (got is not None) == exists, f"R2 trial {trial}"
        if got is not None:
            u, qi = got
            q = queries[qi]
            d2 = (ss.xs[u] - ss.xs[q.s]) ** 2 + (ss.ys[u] - ss.ys[q.s]) ** 2
            assert u != q.s and q.r1 <= ss.rs[u] < q.r2 and d2 <= ss.rs[u] ** 2
    _report("5 range-search contracts", True, "100 R1 instances + 100 R2 batches")


def test_criterion_6_structural_constants():
    # the constants are enforced as runtime checks that raise; exercising
    # the machinery broadly must produce zero violations
    from geogirth.sites import InvariantViolation
    rng = random.Random(106)
    try:
        for trial in range(120):
            n = rng.randint(3, 96)
            ss = _mixed_instance(rng, n)
            best = brute_shortest_triangle(build_disk_graph_brute(ss), ss)
            if best is not None:
                decide_perimeter(ss, best.perimeter * rng.uniform(0.6, 1.5))
            decide_perimeter(ss, rng.uniform(0.05, 2.0))
            solve_R1(ss)
            weighted_girth_disk(ss, rng_seed=trial)
        # planarity cutoffs: a plane outcome respects 3n-6 (checked in the
        # pipeline); witness extraction succeeds whenever budgets trip
        for trial in range(60):
            n = rng.randint(4, 128)
            ss = _mixed_instance(rng, n)
            from geogirth.sweep import build_plane_or_witness
            out = build_plane_or_witness(ss)
            if out.plane:
                assert out.graph.edge_count() <= max(3 * n - 6, 0)
            else:
                assert triangle_is_valid_disk(ss, out.witness)
    except InvariantViolation as e:  # pragma: no cover
        _report("6 structural constants", False, str(e))
        return
    _report("6 structural constants", True,
            "18-large, 25-cell, 6-indegree, planar cutoffs: no violations")


def test_criterion_7_scaling():
    from geogirth.cli import bench_medians
    sizes = [2 ** k for k in range(12, 18)]
    limits = {"triangle": 2.4, "girth": 2.4, "tx-triangle": 2.4,
              "weighted-girth": 2.7}
    t0 = time.perf_counter()
    ok = True
    details = []
    for cmd, lim in limits.items():
        reps = 9 if cmd == "tx-triangle" else 5  # tx runs are cheap and jittery
        meds = bench_medians(cmd, sizes, repeats=reps, seed=0)
        ratios = [meds[i + 1] / meds[i] for i in range(len(meds) - 1)]
        worst = max(ratios)
        details.append(f"{cmd} worst ratio {worst:.2f} (limit {lim})")
        if worst > lim:
            ok = False
    elapsed = time.perf_counter() - t0
    if elapsed > 600.0:
        ok = False
    _report("7 scaling", ok, "; ".join(details) + f"; bench {elapsed:.0f}s <= 600s")


def test_criterion_8_determinism():
    rng = random.Random(108)
    for trial in range(20):
        n = rng.randint(8, 40)
        ss = _mixed_instance(rng, n)
        ref = (shortest_triangle_disk(ss, rng_seed=0),
               weighted_girth_disk(ss, rng_seed=0),
               shortest_triangle_tx(ss, rng_seed=0),
               find_triangle_disk(ss) is not None,
               girth_unweighted(ss),
               find_directed_triangle(ss) is not None)
        for seed in range(1, 20):
            got = (shortest_triangle_disk(ss, rng_seed=seed),
                   weighted_girth_disk(ss, rng_seed=seed),
                   shortest_triangle_tx(ss, rng_seed=seed),
                   find_triangle_disk(ss) is not None,
                   girth_unweighted(ss),
                   find_directed_triangle(ss) is not None)
            assert got == ref, f"instance {trial} seed {seed}"
    _report("8 determinism across seeds", True, "20 instances x 20 seeds")


def test_criterion_9_lemma_properties():
    rng = random.Random(109)

    # crossing edges always yield three disks with a common point
    checked = 0
    while checked < 40:
        n = rng.randint(8, 40)
        ss = _mixed_instance(rng, n)
        g = build_disk_graph_brute(ss)
        hit = find_segment_crossing(ss, [(u, v) for u, v, _ in g.edges()])
        if hit is None:
            continue
        a, b, c, d = hit
        tri = triangle_from_crossing(ss[a], ss[b], ss[c], ss[d])
        x, y, z = (ss[i] for i in tri.ids)
        assert disk_edge(x, y) and disk_edge(y, z) and disk_edge(x, z)
        # numeric common-point check via lens points and sampling
        cands = []
        for u, v in ((x, y), (y, z), (x, z)):
            cands += circle_circle_points(u, v)
        cands += [(s.x, s.y) for s in (x, y, z)]
        for _ in range(20000):
            cands.append((x.x + rng.uniform(-x.r, x.r), x.y + rng.uniform(-x.r, x.r)))
        eps = 1e-9 * max(x.r, y.r, z.r)
        assert any(all((px - s.x) ** 2 + (py - s.y) ** 2 <= (s.r + eps) ** 2
                       for s in (x, y, z)) for px, py in cands)
        checked += 1

    # grid cover of short-edge triangles: some of the four shifted grids of
    # the disk decision puts all three vertices in one cell
    pts = []
    for _ in range(100_000):
        ax, ay = rng.uniform(-2, 2), rng.uniform(-2, 2)
        bx, by = ax + rng.uniform(-0.5, 0.5), ay + rng.uniform(-0.5, 0.5)
        cx, cy = ax + rng.uniform(-0.5, 0.5), ay + rng.uniform(-0.5, 0.5)
        if max(math.dist((ax, ay), (bx, by)), math.dist((ax, ay), (cx, cy)),
               math.dist((bx, by), (cx, cy))) > 0.5:
            continue
        pts += [(ax, ay), (bx, by), (cx, cy)]
    xs, ys = np.array(pts).T
    keys = ShiftedGridIndex(xs, ys, 1.0).site_keys.reshape(4, -1, 3)
    assert (keys == keys[:, :, :1]).all(axis=2).any(axis=0).all()

    # optimal cycle through s = two tree branches plus one edge (n <= 12)
    checked = 0
    while checked < 50:
        ss = _mixed_instance(rng, rng.randint(4, 12))
        g = build_disk_graph_brute(ss)
        s = rng.randrange(g.n)
        c = shortest_cycle_through(g, s)
        if c is None:
            continue
        t = dijkstra_tree(g, s)
        vs = list(c.vertices)
        ok = False
        for cut in range(1, len(vs)):
            left, right = vs[:cut], vs[cut:]
            if all(t.parent[b] == a for a, b in zip(left, left[1:])) and \
               all(t.parent[a] == b for a, b in zip(right, right[1:] + [s])):
                ok = True
                break
        assert ok
        checked += 1

    # Z-predecessor contract on random cells: each cell's site range is
    # exactly the sites inside it
    for _ in range(40):
        n = rng.randint(1, 60)
        xs = np.array([rng.uniform(0.01, 0.99) for _ in range(n)])
        ys = np.array([rng.uniform(0.01, 0.99) for _ in range(n)])
        tree, zk = build_compressed_quadtree(xs, ys)
        cells = []
        for _ in range(100):
            l = rng.randint(0, 14)
            cells.append(GridCell(l, rng.randrange(1 << l), rng.randrange(1 << l)))
        lo, hi = tree.site_ranges(*zk.cell_keys(*(np.array(v) for v in zip(*cells))))
        for cell, a, b in zip(cells, lo.tolist(), hi.tolist()):
            x0, y0, x1, y1 = cell.bounds()
            assert sorted(tree.zorder_sites[a:b].tolist()) == sorted(
                i for i in range(n) if x0 <= xs[i] < x1 and y0 <= ys[i] < y1)

    # lifting equivalence, through solve_R2's violation test
    disks, points, inside = [], [], []
    for i in range(100_000):
        s = Site(i, rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0.01, 1.0))
        px, py = rng.uniform(-0.5, 1.5), rng.uniform(-0.5, 1.5)
        disks.append(s)
        points.append(Site(i, px, py, 1.0))
        inside.append((px - s.x) ** 2 + (py - s.y) ** 2 < s.r ** 2)
    planes = lifted_planes(SiteSet(disks))
    lifted = lifted_points(SiteSet(points), np.arange(len(points)))
    for a in range(0, len(points), 512):
        viol = np.diagonal(lifted_violations(lifted[a:a + 512], planes[a:a + 512]))
        assert viol.tolist() == inside[a:a + 512]

    _report("9 lemma property suites", True,
            "crossing/common-point, grid cover, cycle structure, "
            "Z-predecessor, lifting")
