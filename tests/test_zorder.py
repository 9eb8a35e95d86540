"""Z-order, compressed quadtrees, site-range queries, neighborhoods."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

import geogirth
from geogirth.zorder import (INT64_MAX_DEPTH, GridCell, ROOT, ZKeys,
                             build_compressed_quadtree, choose_depth,
                             neighborhood_cells)


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


def _site_ranges(tree, cells):
    """``CompressedQuadtree.site_ranges`` of GridCell queries."""
    levels, ixs, iys = (np.array(v, dtype=object) for v in zip(*cells))
    k0, k3, ck = tree.zkeys.cell_keys(levels, ixs, iys)
    lo, hi = tree.site_ranges(k0, k3, ck)
    return [sorted(tree.zorder_sites[a:b].tolist()) for a, b in zip(lo, hi)]


def _sites_in_cell(xs, ys, cell):
    """Brute scan: the sites whose level-`cell.level` cell is `cell`; the
    scaling by 2^level is exact, so this holds at any depth."""
    return sorted(i for i in range(len(xs))
                  if math.floor(xs[i] * 2.0 ** cell.level) == cell.ix
                  and math.floor(ys[i] * 2.0 ** cell.level) == cell.iy)


def test_quadtree_cell_queries_match_scan():
    rng = random.Random(63)
    for _ in range(60):
        n = rng.randint(1, 80)
        xs = np.array([rng.uniform(0.01, 0.99) for _ in range(n)])
        ys = np.array([rng.uniform(0.01, 0.99) for _ in range(n)])
        tree, zk = build_compressed_quadtree(xs, ys)
        cells = []
        for _ in range(120):
            l = rng.randint(0, 12)
            cells.append(GridCell(l, rng.randrange(1 << l), rng.randrange(1 << l)))
        for cell, got in zip(cells, _site_ranges(tree, cells)):
            x0, y0, x1, y1 = cell.bounds()
            exp = sorted(i for i in range(n)
                         if x0 <= xs[i] < x1 and y0 <= ys[i] < y1)
            assert got == exp


def test_z_predecessor_contract():
    # the site range of a query cell is exactly the sites inside it: the
    # predecessor contract (a disjoint predecessor means an empty query,
    # any other holds the query's sites) as seen through site ranges
    rng = random.Random(64)
    for _ in range(30):
        n = rng.randint(1, 60)
        xs = np.array([rng.uniform(0.01, 0.99) for _ in range(n)])
        ys = np.array([rng.uniform(0.01, 0.99) for _ in range(n)])
        tree, zk = build_compressed_quadtree(xs, ys)
        cells = []
        for _ in range(350):
            l = rng.randint(0, 14)
            cells.append(GridCell(l, rng.randrange(1 << l), rng.randrange(1 << l)))
        for cell, got in zip(cells, _site_ranges(tree, cells)):
            assert got == _sites_in_cell(xs, ys, cell)


def test_z_predecessor_trivial_cases():
    xs = np.array([0.26, 0.76])
    ys = np.array([0.26, 0.76])
    tree, zk = build_compressed_quadtree(xs, ys)
    # query strictly before everything: the NW-most deep cell holds no site
    c = GridCell(20, 0, (1 << 20) - 1)
    leaf_idx = int(np.flatnonzero(tree.is_leaf)[0])
    leaf = tree.cell(leaf_idx)
    # a leaf cell present in the linearization answers its own site, as
    # does a cell strictly inside the leaf that holds the site
    deep = GridCell(20, int(xs[0] * 2 ** 20), int(ys[0] * 2 ** 20))
    assert _site_ranges(tree, [c, leaf, deep, ROOT]) == \
        [[], [int(tree.leaf_site[leaf_idx])], [0], [0, 1]]


def test_site_ranges_at_python_int_depth():
    # depth 40 > INT64_MAX_DEPTH keeps keys as Python ints (a pair 2^-38
    # apart shares every cell down to level 37); at depth 80, cells around
    # a site below level 62 have Python-int indices as well
    rng = random.Random(66)
    for depth in (40, 80):
        for _ in range(20):
            n = rng.randint(2, 40)
            xs = [rng.uniform(0.01, 0.99) for _ in range(n)]
            ys = [rng.uniform(0.01, 0.99) for _ in range(n)]
            xs[1], ys[1] = xs[0] + 2.0 ** -38, ys[0]
            xs, ys = np.array(xs), np.array(ys)
            tree, zk = build_compressed_quadtree(xs, ys, depth=depth)
            assert depth > INT64_MAX_DEPTH and tree.ckey.dtype == object
            cells = []
            for _ in range(200):
                l = rng.randint(0, depth)
                if rng.random() < 0.5:    # a cell around a site, else anywhere
                    i = rng.randrange(n)
                    cells.append(GridCell(l, math.floor(xs[i] * 2.0 ** l),
                                          math.floor(ys[i] * 2.0 ** l)))
                else:
                    cells.append(GridCell(l, rng.randrange(1 << l), rng.randrange(1 << l)))
            for cell, got in zip(cells, _site_ranges(tree, cells)):
                assert got == _sites_in_cell(xs, ys, cell)


def _neighborhood_scan(x, y, r, depth):
    """Brute scan of the cells meeting a disk: every cell within four of
    the center's cell, at the disk's level."""
    level = max(0, -math.floor(math.log2(r))) if r < 1 else 0
    level = min(level, depth)
    side = 2.0 ** (-level)
    cx, cy = math.floor(x / side), math.floor(y / side)
    exp = set()
    for ix in range(max(0, cx - 4), min((1 << level) - 1, cx + 4) + 1):
        for iy in range(max(0, cy - 4), min((1 << level) - 1, cy + 4) + 1):
            nx = min(max(x, ix * side), (ix + 1) * side)
            ny = min(max(y, iy * side), (iy + 1) * side)
            if (nx - x) ** 2 + (ny - y) ** 2 <= r * r:
                exp.add((level, ix, iy))
    return exp


def _neighborhood_sets(xs, ys, rs, depth):
    disk, level, ix, iy = neighborhood_cells(np.array(xs), np.array(ys),
                                             np.array(rs), depth)
    out = [set() for _ in xs]
    for d, c in zip(disk.tolist(), zip(level.tolist(), ix.tolist(), iy.tolist())):
        out[d].add(c)
    return out, ix.dtype


def test_neighborhood_bounds_and_exactness():
    rng = random.Random(65)
    xs, ys, rs = [], [], []
    for _ in range(100_000):
        x, y = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)
        xs.append(x)
        ys.append(y)
        rs.append(min(rng.uniform(1e-4, 0.4), min(x, y, 1 - x, 1 - y) * 0.98))
    got, _ = _neighborhood_sets(xs, ys, rs, 29)
    for x, y, r, cells in zip(xs, ys, rs, got):
        assert 1 <= len(cells) <= 25
        assert cells == _neighborhood_scan(x, y, r, 29)


def test_neighborhood_power_of_two_radius():
    disk, level, ix, iy = neighborhood_cells(np.array([0.5]), np.array([0.5]),
                                             np.array([0.25]), 29)
    assert len(disk) <= 25
    assert level.tolist() == [2] * len(disk)


def _meets_disk_exactly(x, y, r, cell):
    fx, fy, side = Fraction(x), Fraction(y), Fraction(1, 1 << cell.level)
    nx = min(max(fx, cell.ix * side), (cell.ix + 1) * side)
    ny = min(max(fy, cell.iy * side), (cell.iy + 1) * side)
    return (nx - fx) ** 2 + (ny - fy) ** 2 <= Fraction(r) ** 2


def test_neighborhood_at_python_int_levels():
    # past level 29 the keys are Python ints; indices stay int64 up to level
    # 62 and become Python ints beyond.  Every float point in the disk lies
    # in a returned cell: points sampled over the disk's bounding square,
    # and the float neighbours of its center (deep disks are narrower than
    # one float step, 2^-53 here).  Up to level 53 the cell bounds are exact
    # floats and every returned cell meets the disk; deeper, rounded bounds
    # may keep a few more cells, which costs time only.
    rng = random.Random(67)
    for lo, hi, want in ((29.5, 53.0, np.int64), (53.5, 62.0, np.int64),
                         (62.5, 90.0, object)):
        xs = [rng.uniform(0.5, 0.95) for _ in range(300)]
        ys = [rng.uniform(0.5, 0.95) for _ in range(300)]
        rs = [2.0 ** -rng.uniform(lo, hi) for _ in range(300)]
        got, dtype = _neighborhood_sets(xs, ys, rs, 100)
        assert dtype == want
        for x, y, r, cells in zip(xs, ys, rs, got):
            assert 1 <= len(cells) <= 25
            level = next(iter(cells))[0]
            if level <= 53:
                assert all(_meets_disk_exactly(x, y, r, GridCell(*c)) for c in cells)
            pts = [(px, py) for px in (math.nextafter(x, 0), x, math.nextafter(x, 1))
                   for py in (math.nextafter(y, 0), y, math.nextafter(y, 1))]
            pts += [(x + rng.uniform(-r, r), y + rng.uniform(-r, r)) for _ in range(8)]
            for px, py in pts:
                d2 = (Fraction(px) - Fraction(x)) ** 2 + (Fraction(py) - Fraction(y)) ** 2
                if d2 <= Fraction(r) ** 2:
                    assert (level, math.floor(px * 2.0 ** level),
                            math.floor(py * 2.0 ** level)) in cells


def test_choose_depth_separates_close_pairs():
    xs = np.array([0.5, 0.5 + 2 ** -40])
    ys = np.array([0.5, 0.5])
    d = choose_depth(xs, ys)
    tree, zk = build_compressed_quadtree(xs, ys, depth=d)
    assert int(tree.is_leaf.sum()) == 2
