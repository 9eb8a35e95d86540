"""Z-order, compressed quadtrees, predecessor queries, neighborhoods."""

import math
import random

import numpy as np
import pytest

import geogirth
from geogirth.zorder import (GridCell, ROOT, ZKeys, _locate,
                             build_compressed_quadtree, choose_depth,
                             neighborhood, z_predecessor)


def _z_keys(cells, depth=9):
    """Z-order sort keys (``ZKeys.cell_keys``' ckey) of the cells, batched."""
    levels, ixs, iys = (np.array(v) for v in zip(*cells))
    return ZKeys(depth).cell_keys(levels, ixs, iys)[2].tolist()


def z_compare(a: GridCell, b: GridCell, depth: int = 9) -> int:
    """-1, 0, +1 for a before/equal/after b, by their ``ZKeys`` sort keys."""
    ka, kb = _z_keys([a, b], depth)
    return (ka > kb) - (ka < kb)


def _slow_z(a: GridCell, b: GridCell) -> int:
    if a == b:
        return 0

    def digits(c):
        out = []
        for lev in range(1, c.level + 1):
            sh = c.level - lev
            xb = (c.ix >> sh) & 1
            yb = (c.iy >> sh) & 1
            out.append(2 * (1 - yb) + xb)
        return out

    da, db = digits(a), digits(b)
    m = min(len(da), len(db))
    if da[:m] == db[:m]:
        return -1 if len(da) > len(db) else 1  # contained cell first
    return -1 if da[:m] < db[:m] else 1


def _rand_cell(rng, max_level=7):
    l = rng.randint(0, max_level)
    return GridCell(l, rng.randrange(1 << l), rng.randrange(1 << l))


def test_z_compare_containment_and_figure_order():
    assert z_compare(GridCell(3, 2, 5), GridCell(1, 0, 1)) == -1  # inner first
    # NW child before SE child of the root
    assert z_compare(GridCell(1, 0, 1), GridCell(1, 1, 0)) == -1
    # full child order NW, NE, SW, SE
    nw, ne, sw, se = (GridCell(1, 0, 1), GridCell(1, 1, 1),
                      GridCell(1, 0, 0), GridCell(1, 1, 0))
    order = sorted([se, sw, ne, nw], key=lambda c: (0, c))
    assert sorted([se, sw, ne, nw],
                  key=lambda c: [z_compare(c, d) for d in (nw, ne, sw, se)].count(1)) \
        == [nw, ne, sw, se]


def test_z_compare_matches_path_expansion_oracle():
    rng = random.Random(60)
    pairs = [(_rand_cell(rng), _rand_cell(rng)) for _ in range(100_000)]
    ka = _z_keys([a for a, _ in pairs])
    kb = _z_keys([b for _, b in pairs])
    for (a, b), x, y in zip(pairs, ka, kb):
        assert (x > y) - (x < y) == _slow_z(a, b)


def test_z_compare_strict_total_order():
    rng = random.Random(61)
    triples = [tuple(_rand_cell(rng) for _ in range(3)) for _ in range(100_000)]
    ka, kb, kc = (_z_keys([t[i] for t in triples]) for i in range(3))
    for (a, b, c), x, y, z in zip(triples, ka, kb, kc):
        ab, ba = (x > y) - (x < y), (y > x) - (y < x)
        assert ab == -ba
        assert (ab == 0) == (a == b)
        if x <= y and y <= z:
            assert x <= z


def test_duplicate_coordinates_raise_the_package_invariant_violation():
    # every module raises the one class the package exports
    with pytest.raises(geogirth.InvariantViolation):
        build_compressed_quadtree([.25, .25, .5], [.25, .25, .5])


def test_quadtree_single_site_and_quadrant_centers():
    tree, zk = build_compressed_quadtree(np.array([0.3]), np.array([0.7]))
    assert len(tree) == 1 and tree.cell(0) == ROOT
    xs = np.array([0.25, 0.75, 0.25, 0.75])
    ys = np.array([0.75, 0.75, 0.25, 0.25])  # NW NE SW SE centers
    tree, zk = build_compressed_quadtree(xs, ys)
    cells = tree.cells()
    assert cells[-1] == ROOT  # root last in postorder
    leaves = [tree.cell(i) for i in range(len(tree)) if tree.is_leaf[i]]
    assert sorted(tuple(c) for c in leaves) == \
        [(1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1)]
    # linearization = NW, NE, SW, SE leaves then the root
    owner = [int(tree.leaf_site[i]) for i in range(4)]
    assert owner == [0, 1, 2, 3]


def test_quadtree_size_and_zorder(make_sites):
    rng = random.Random(62)
    for _ in range(30):
        n = rng.randint(1, 500)
        xs = np.array([rng.uniform(0.01, 0.99) for _ in range(n)])
        ys = np.array([rng.uniform(0.01, 0.99) for _ in range(n)])
        tree, zk = build_compressed_quadtree(xs, ys)
        assert len(tree) <= 2 * n
        keys = tree.ckey
        assert all(keys[i] < keys[i + 1] for i in range(len(keys) - 1))
        # every site's largest private cell appears as a leaf
        assert int(tree.is_leaf.sum()) == n


def test_quadtree_cell_queries_match_scan():
    rng = random.Random(63)
    for _ in range(60):
        n = rng.randint(1, 80)
        xs = np.array([rng.uniform(0.01, 0.99) for _ in range(n)])
        ys = np.array([rng.uniform(0.01, 0.99) for _ in range(n)])
        tree, zk = build_compressed_quadtree(xs, ys)
        for _ in range(120):
            l = rng.randint(0, 12)
            cell = GridCell(l, rng.randrange(1 << l), rng.randrange(1 << l))
            idx, kind = _locate(tree, *tree.zkeys.cell_key(cell))
            got = sorted(tree.sites_in_node(idx).tolist()) if kind == 2 else []
            x0, y0, x1, y1 = cell.bounds()
            exp = sorted(i for i in range(n)
                         if x0 <= xs[i] < x1 and y0 <= ys[i] < y1)
            assert got == exp


def test_z_predecessor_contract():
    rng = random.Random(64)
    for _ in range(30):
        n = rng.randint(1, 60)
        xs = np.array([rng.uniform(0.01, 0.99) for _ in range(n)])
        ys = np.array([rng.uniform(0.01, 0.99) for _ in range(n)])
        tree, zk = build_compressed_quadtree(xs, ys)
        for _ in range(350):
            l = rng.randint(0, 14)
            cell = GridCell(l, rng.randrange(1 << l), rng.randrange(1 << l))
            tau = z_predecessor(tree, cell)
            x0, y0, x1, y1 = cell.bounds()
            inside = sorted(i for i in range(n)
                            if x0 <= xs[i] < x1 and y0 <= ys[i] < y1)
            if tau is None:
                assert inside == []
                continue
            tx0, ty0, tx1, ty1 = tau.bounds()
            disjoint = tx1 <= x0 or x1 <= tx0 or ty1 <= y0 or y1 <= ty0
            if disjoint:
                assert inside == []
            else:
                tau_sites = sorted(i for i in range(n)
                                   if tx0 <= xs[i] < tx1 and ty0 <= ys[i] < ty1)
                assert inside == tau_sites


def test_z_predecessor_trivial_cases():
    xs = np.array([0.26, 0.76])
    ys = np.array([0.26, 0.76])
    tree, zk = build_compressed_quadtree(xs, ys)
    # query strictly before everything: NW-most deep cell holds no site
    c = GridCell(20, 0, (1 << 20) - 1)
    tau = z_predecessor(tree, c)
    if tau is not None:
        x0, y0, x1, y1 = c.bounds()
        tx0, ty0, tx1, ty1 = tau.bounds()
        assert tx1 <= x0 or x1 <= tx0 or ty1 <= y0 or y1 <= ty0
    # a leaf cell present in the linearization answers itself
    leaf_idx = int(np.flatnonzero(tree.is_leaf)[0])
    leaf = tree.cell(leaf_idx)
    assert z_predecessor(tree, leaf) == leaf


def test_neighborhood_bounds_and_exactness():
    rng = random.Random(65)
    for _ in range(100_000):
        x, y = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)
        r = min(rng.uniform(1e-4, 0.4), min(x, y, 1 - x, 1 - y) * 0.98)
        cells = neighborhood(x, y, r, 29)
        assert 1 <= len(cells) <= 25
        level = max(0, -math.floor(math.log2(r))) if r < 1 else 0
        side = 2.0 ** (-level)
        cx, cy = int(x // side), int(y // side)
        exp = set()
        for ix in range(max(0, cx - 4), min((1 << level) - 1, cx + 4) + 1):
            for iy in range(max(0, cy - 4), min((1 << level) - 1, cy + 4) + 1):
                nx = min(max(x, ix * side), (ix + 1) * side)
                ny = min(max(y, iy * side), (iy + 1) * side)
                if (nx - x) ** 2 + (ny - y) ** 2 <= r * r:
                    exp.add((level, ix, iy))
        assert set(tuple(c) for c in cells) == exp


def test_neighborhood_power_of_two_radius():
    cells = neighborhood(0.5, 0.5, 0.25, 29)
    assert len(cells) <= 25
    assert all(c.level == 2 for c in cells)


def test_choose_depth_separates_close_pairs():
    xs = np.array([0.5, 0.5 + 2 ** -40])
    ys = np.array([0.5, 0.5])
    d = choose_depth(xs, ys)
    tree, zk = build_compressed_quadtree(xs, ys, depth=d)
    assert int(tree.is_leaf.sum()) == 2
