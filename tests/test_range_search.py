"""Radius tree, canonical intervals, R1, lifted polytopes, R2."""

import math
import random

import numpy as np

from geogirth.generator import GeneratorSpec, generate
from geogirth.grids import GridIndex
from geogirth.radius_tree import RadiusTree
from geogirth.range_search import (ALPHA, CrowdedSquare, QueryTripleR2,
                                   build_query_hulls, lifted_planes,
                                   lifted_violations, solve_R1, solve_R2,
                                   upper_envelope_faces)
from geogirth.sites import Site, SiteSet
from geogirth.zorder import INT64_MAX_DEPTH, choose_depth


def S(*triples):
    return SiteSet([Site(i, x, y, r) for i, (x, y, r) in enumerate(triples)])


def canonical_nodes(B, r1, r2):
    """Canonical nodes partitioning {s : r1 <= r_s < r2} (r2=None: no cap)."""
    i2 = len(B.S) if r2 is None else B.index_of_radius(r2)
    return B.canonical_nodes_for_positions(B.index_of_radius(r1), i2)


# ---------------------------------------------------------------------------
# radius tree


def test_radius_tree_singleton_and_balanced_four():
    B = RadiusTree(S((0.1, 0.1, 1.0)))
    assert B.node_sites(B.root).tolist() == [0]
    ss = S((0.1, 0.1, 1.0), (0.2, 0.2, 2.0), (0.3, 0.3, 3.0), (0.4, 0.4, 4.0))
    B = RadiusTree(ss)
    assert B.node_sites(B.root).tolist() == [0, 1, 2, 3]
    kids = sorted(B.node_sites(int(v)).tolist()
                  for v in (B.left[B.root], B.right[B.root]))
    assert kids == [[0, 1], [2, 3]]


def test_radius_tree_interval_total_size(make_sites):
    rng = random.Random(70)
    for _ in range(10):
        n = rng.randint(2, 200)
        ss = make_sites(n, seed=rng.randrange(10**6))
        B = RadiusTree(ss)
        assert int((B.hi - B.lo).sum()) <= 2 * n * math.ceil(math.log2(n))
        for v in range(len(B)):
            sites = B.node_sites(v)
            radii = ss.rs[sites]
            assert (radii[1:] >= radii[:-1]).all()


def _stack_built_tree(n):
    """lo/hi/left/right of the radius tree built node by node in preorder."""
    m = 2 * n - 1
    lo, hi = [0] * m, [0] * m
    left, right = [-1] * m, [-1] * m
    nxt = 1
    stack = [(0, 0, n)]
    while stack:
        v, a, b = stack.pop()
        lo[v], hi[v] = a, b
        if b - a > 1:
            mid = (a + b) // 2
            left[v], right[v] = nxt, nxt + 1
            stack.append((nxt + 1, mid, b))
            stack.append((nxt, a, mid))
            nxt += 2
    return lo, hi, left, right


def test_radius_tree_arrays_match_stack_build():
    for n in list(range(1, 301)) + [16384]:
        rng = np.random.default_rng(n)
        ss = SiteSet._from_arrays(rng.random(n), rng.random(n), rng.random(n) + 0.01)
        B = RadiusTree(ss)
        got = (B.lo.tolist(), B.hi.tolist(), B.left.tolist(), B.right.tolist())
        assert got == _stack_built_tree(n), n
        assert B.root == 0


def test_canonical_nodes_cover_all_and_empty(make_sites):
    ss = make_sites(50, seed=71)
    B = RadiusTree(ss)
    all_nodes = canonical_nodes(B, 0.0, None)
    assert all_nodes == [B.root]
    assert canonical_nodes(B, 100.0, 200.0) == []


def test_canonical_nodes_partition_property(make_sites):
    rng = random.Random(72)
    for _ in range(40):
        n = rng.randint(1, 150)
        ss = make_sites(n, seed=rng.randrange(10**6), rmin=0.01, rmax=0.5)
        B = RadiusTree(ss)
        for _ in range(250):
            r1 = rng.uniform(0.0, 0.55)
            r2 = rng.uniform(r1, 0.6) if rng.random() < 0.7 else None
            nodes = canonical_nodes(B, r1, r2)
            assert len(nodes) <= 2 * math.ceil(math.log2(max(n, 2))) + 2
            union = []
            for v in nodes:
                union.extend(B.node_sites(v).tolist())
            assert len(union) == len(set(union))  # disjoint
            expected = [i for i in range(n)
                        if ss.rs[i] >= r1 and (r2 is None or ss.rs[i] < r2)]
            assert sorted(union) == expected


# ---------------------------------------------------------------------------
# R1


def _brute_r1_arrays(ss):
    """Per-site sorted target lists, vectorised over all pairs."""
    dx = ss.xs[:, None] - ss.xs[None, :]
    dy = ss.ys[:, None] - ss.ys[None, :]
    ok = (dx * dx + dy * dy <= (ss.rs ** 2)[:, None]) \
        & (ss.rs[None, :] >= ss.rs[:, None] / 2)
    np.fill_diagonal(ok, False)
    return [np.flatnonzero(row).tolist() for row in ok]


def _brute_r1(ss, qids=None, alpha=ALPHA):
    n = len(ss)
    if qids is None:
        qids = range(n)
    edges = [[] for _ in range(n)]
    for s in qids:
        for t in range(n):
            if t == s:
                continue
            d2 = (ss.xs[s] - ss.xs[t]) ** 2 + (ss.ys[s] - ss.ys[t]) ** 2
            if d2 <= ss.rs[s] ** 2 and ss.rs[t] >= ss.rs[s] / 2:
                edges[s].append(t)
    return edges


def test_r1_singleton():
    out = solve_R1(S((0.3, 0.3, 0.5)))
    assert not out.is_crowded
    assert [e.tolist() for e in out.edges] == [[]]


def test_r1_crowded_square_from_73_fat_disks():
    # 73 sites of radius >= 1 inside a unit square (every disk covers the
    # square), plus far-away outliers
    rng = random.Random(76)
    sites = [Site(i, rng.uniform(10, 11), rng.uniform(10, 11),
                  rng.uniform(1.5, 1.9)) for i in range(73)]
    sites += [Site(73 + i, 100 + 3 * i, -50.0, 0.05) for i in range(12)]
    ss = SiteSet(sites)
    out = solve_R1(ss)
    assert out.is_crowded
    assert len(out.crowded.qualifying_sites(ss)) > ALPHA


def test_r1_matches_brute_filter(make_sites):
    rng = random.Random(77)
    for _ in range(100)[:100]:
        n = rng.randint(1, 256)
        ss = make_sites(n, seed=rng.randrange(10**6),
                        rmin=0.01, rmax=rng.choice([0.05, 0.1, 0.2]))
        out = solve_R1(ss)
        exp = _brute_r1(ss)
        if out.is_crowded:
            assert len(out.crowded.qualifying_sites(ss)) > ALPHA
        else:
            assert max((len(e) for e in exp), default=0) <= ALPHA
            assert [sorted(e.tolist()) for e in out.edges] == \
                [sorted(e) for e in exp]


def test_r1_fat_leaf_aborts_on_dense_instance():
    # 40 sites (one fat leaf at the root) of nearly equal radius packed into
    # a square much smaller than their disks: a query's cells hold them all
    rng = random.Random(84)
    ss = S(*[(rng.uniform(0.0, 0.01), rng.uniform(0.0, 0.01), rng.uniform(0.2, 0.21))
             for _ in range(40)])
    out = solve_R1(ss, alpha=2)
    assert out.is_crowded and out.edges is None
    assert len(out.crowded.qualifying_sites(ss)) > 2
    # a grid cell, not the bounding square of one disk's crowded edge list
    assert out.crowded not in [
        CrowdedSquare(ss.xs[s] - ss.rs[s], ss.ys[s] - ss.rs[s], 2.0 * ss.rs[s])
        for s in range(len(ss))]


def test_r1_matches_brute_at_python_int_depth():
    # radii spanning 1e-11..0.3 and a cluster of 1e-9 disks a few 1e-12
    # apart need Z-order depth 74, beyond int64 keys, so the leaf search
    # runs on Python-int codes
    rng = np.random.default_rng(85)
    n = 200
    rs = np.exp(rng.uniform(math.log(1e-11), math.log(0.3), n)).tolist()
    pts = [(x, y, r) for x, y, r in zip(rng.random(n).tolist(), rng.random(n).tolist(), rs)]
    pts += [(0.5 + 2e-12 * i, 0.5 + 3e-12 * (i % 5), 1e-9 * (1 + i % 3)) for i in range(30)]
    ss = S(*pts)
    norm = ss.normalized()
    assert choose_depth(norm.xs, norm.ys, float(norm.rs.min())) == 74 > INT64_MAX_DEPTH
    out = solve_R1(ss)
    assert not out.is_crowded
    assert [e.tolist() for e in out.edges] == _brute_r1_arrays(ss)


def test_r1_matches_brute_past_int64_cell_indices():
    # radii down to 1e-21 of the extent: those disks' neighborhood levels
    # pass 62, so their cell indices are Python ints too
    rng = np.random.default_rng(86)
    n = 200
    rs = np.exp(rng.uniform(math.log(1e-21), math.log(0.3), n))
    rs[:3] = (1e-21, 3e-20, 2e-19)
    ss = SiteSet.from_arrays(rng.random(n), rng.random(n), rs)
    norm = ss.normalized()
    assert -math.floor(math.log2(float(norm.rs.min()))) > 62
    out = solve_R1(ss)
    assert not out.is_crowded
    assert [e.tolist() for e in out.edges] == _brute_r1_arrays(ss)


def test_r1_matches_brute_where_fat_leaves_dominate():
    ss = generate(GeneratorSpec(n=2000, r_min=0.01, r_max=0.1))
    out = solve_R1(ss)
    assert not out.is_crowded
    assert [e.tolist() for e in out.edges] == _brute_r1_arrays(ss)
    assert out.offsets[-1] == len(out.targets) == sum(len(e) for e in out.edges)


def test_r1_restricted_queries(make_sites):
    rng = random.Random(78)
    for _ in range(25):
        n = rng.randint(2, 120)
        ss = make_sites(n, seed=rng.randrange(10**6), rmin=0.01, rmax=0.25)
        qids = sorted(rng.sample(range(n), rng.randint(1, n)))
        out = solve_R1(ss, query_ids=qids)
        if out.is_crowded:
            assert len(out.crowded.qualifying_sites(ss)) > ALPHA
            continue
        exp = _brute_r1(ss, qids)
        for s in range(n):
            if s in set(qids):
                assert sorted(out.edges[s].tolist()) == sorted(exp[s])
            else:
                assert out.edges[s].tolist() == []


# ---------------------------------------------------------------------------
# lifted polytopes and R2


def test_union_polytope_single_disk_is_one_halfspace():
    ss = S((0.4, 0.4, 0.2)).normalized()
    B = RadiusTree(ss)
    lo, hi = int(B.lo[B.root]), int(B.hi[B.root])
    assert len(upper_envelope_faces(lifted_planes(ss)[B.order[lo:hi]])) == 1


def test_union_polytope_faces_match_coverage_oracle(make_sites):
    # a disk's plane misses the envelope exactly when the other disks cover it
    rng = random.Random(79)
    ss = make_sites(40, seed=80, rmin=0.05, rmax=0.35).normalized()
    B = RadiusTree(ss)
    for v in (B.root, int(B.left[B.root]), int(B.right[B.root])):
        lo, hi = int(B.lo[v]), int(B.hi[v])
        ids = B.order[lo:hi]
        faces = set(ids[upper_envelope_faces(lifted_planes(ss)[ids])].tolist())
        for k, sid in enumerate(ids.tolist()):
            x0, y0, r0 = ss.xs[sid], ss.ys[sid], ss.rs[sid]
            covered = True
            worst = None
            for _ in range(10_000):
                ang = rng.uniform(0, 2 * math.pi)
                rad = r0 * math.sqrt(rng.random())
                px, py = x0 + rad * math.cos(ang), y0 + rad * math.sin(ang)
                inside_other = any(
                    (px - ss.xs[t]) ** 2 + (py - ss.ys[t]) ** 2 <= ss.rs[t] ** 2
                    for t in ids.tolist() if t != sid)
                if not inside_other:
                    covered = False
                    break
            if not covered:
                # an uncovered patch forces a supporting face
                assert sid in faces


def test_query_hull_markers():
    ss = S((0.2, 0.2, 0.1), (0.6, 0.6, 0.3), (0.8, 0.3, 0.5))
    B = RadiusTree(ss)
    hulls = build_query_hulls(B, [QueryTripleR2(0, 0.05, 1.0)])
    tot = sum(len(h.query_idx) for h in hulls.values())
    assert tot >= 1
    assert all(len(h.points) == len(h.query_idx) for h in hulls.values())
    assert build_query_hulls(B, []) == {}


def test_r2_trivial_single_disk():
    ss = S((0.0, 0.0, 1.0), (0.5, 0.0, 0.4))
    got = solve_R2(ss, [QueryTripleR2(1, 0.5, 2.0)])
    assert got is not None and got[0] == 0
    # empty radius range
    assert solve_R2(ss, [QueryTripleR2(1, 5.0, 6.0)]) is None


def test_r2_matches_brute_filter(make_sites):
    rng = random.Random(81)
    for _ in range(100):
        n = rng.randint(1, 256)
        ss = make_sites(n, seed=rng.randrange(10**6), rmin=0.02,
                        rmax=rng.choice([0.15, 0.4]))
        queries = []
        for _ in range(rng.randint(1, 60)):
            s = rng.randrange(n)
            r1 = float(ss.rs[s]) * rng.uniform(0.5, 1.5)
            r2 = r1 * rng.uniform(1.01, 4.0)
            queries.append(QueryTripleR2(int(s), r1, r2))
        got = solve_R2(ss, queries)
        exists = any(
            u != q.s and q.r1 <= ss.rs[u] < q.r2 and
            (ss.xs[u] - ss.xs[q.s]) ** 2 + (ss.ys[u] - ss.ys[q.s]) ** 2 <= ss.rs[u] ** 2
            for q in queries for u in range(n))
        assert (got is not None) == exists
        if got is not None:
            u, qi = got
            q = queries[qi]
            assert u != q.s and q.r1 <= ss.rs[u] < q.r2
            d2 = (ss.xs[u] - ss.xs[q.s]) ** 2 + (ss.ys[u] - ss.ys[q.s]) ** 2
            assert d2 <= ss.rs[u] ** 2


def test_lifting_soundness_per_node(make_sites):
    # point in the union of a canonical interval's disks <=> its lift falls
    # below some bounding plane of the node's polytope
    rng = random.Random(82)
    ss = make_sites(64, seed=83, rmin=0.05, rmax=0.3).normalized()
    B = RadiusTree(ss)
    planes = lifted_planes(ss)[B.order]
    for _ in range(10_000):
        v = rng.randrange(len(B))
        lo, hi = int(B.lo[v]), int(B.hi[v])
        px, py = rng.uniform(0, 1), rng.uniform(0, 1)
        ids = B.order[lo:hi]
        in_union = any((px - ss.xs[t]) ** 2 + (py - ss.ys[t]) ** 2 < ss.rs[t] ** 2
                       for t in ids.tolist())
        pz = px * px + py * py
        viol = bool(lifted_violations(np.array([[px, py, pz]]), planes[lo:hi]).any())
        assert viol == in_union


# ---------------------------------------------------------------------------
# grid blocks


def test_sites_of_runs_keeps_run_order_and_skips_missing():
    ss = S((0.1, 0.1, 0.1), (2.1, 0.2, 0.1), (0.3, 0.4, 0.1), (2.5, 0.5, 0.1),
           (5.5, 5.5, 0.1))
    G = GridIndex(ss, 1.0)
    runs = {tuple(sorted(G.order[G.run_starts[r]:G.run_ends[r]].tolist())): r
            for r in range(len(G.run_keys))}
    assert sorted(runs) == [(0, 2), (1, 3), (4,)]
    got = G.sites_of_runs([runs[(4,)], -1, runs[(1, 3)], -1, runs[(0, 2)]])
    assert got.tolist() == [4, 1, 3, 0, 2]
    assert G.sites_of_runs(np.array([-1, -1])).tolist() == []
