"""Grid bucketing and grid joins against brute force."""

import itertools
import math
import random

import numpy as np

from geogirth.grids import GridIndex, ShiftedGridIndex, close_pairs
from geogirth.sites import Site, SiteSet


def cell_of(x, y, ell, grid=0):
    """Cell of (x, y) in shifted grid `grid` of side ell, by the floor
    formula; grids 1, 2, 3 are shifted by ell/2 in x, y and both."""
    h = ell / 2.0
    ox, oy = ((0.0, 0.0), (h, 0.0), (0.0, h), (h, h))[grid]
    return math.floor((x - ox) / ell), math.floor((y - oy) / ell)


def brute_close_pairs(xs, ys, ids, radius):
    return sorted((a, b) for a, b in itertools.permutations(ids.tolist(), 2)
                  if (xs[a] - xs[b]) ** 2 + (ys[a] - ys[b]) ** 2 <= radius * radius)


def close_pair_cases():
    rng = random.Random(50)
    for m in (0, 1, 2, 2, 2):
        xs = np.array([rng.uniform(0, 1) for _ in range(m + 3)])
        ys = np.array([rng.uniform(0, 1) for _ in range(m + 3)])
        yield xs, ys, np.arange(1, m + 1), rng.choice([0.1, 0.5, 2.0])
    for _ in range(40):
        n = rng.randint(3, 80)
        xs = np.array([rng.uniform(-1, 1) for _ in range(n)])
        ys = np.array([rng.uniform(-1, 1) for _ in range(n)])
        ids = np.array(sorted(rng.sample(range(n), rng.randint(2, n))))
        yield xs, ys, ids, rng.uniform(0.05, 0.6)
    # sites exactly on the join-grid lines, at distances exactly `radius`
    for radius in (0.25, 0.5, 1.0):
        g = np.arange(-3, 4) * radius
        xs, ys = (a.ravel() for a in np.meshgrid(g, g))
        yield xs, ys, np.arange(len(xs)), radius
    # cell indices far past 2^30: Python-int keys
    for _ in range(5):
        n = rng.randint(2, 40)
        xs = np.array([1e8 + rng.uniform(0, 0.01) for _ in range(n)])
        ys = np.array([-1e8 + rng.uniform(0, 0.01) for _ in range(n)])
        yield xs, ys, np.arange(n), 1e-3


def test_close_pairs_matches_brute():
    for xs, ys, ids, radius in close_pair_cases():
        a, b = close_pairs(xs, ys, ids, radius)
        assert sorted(zip(a.tolist(), b.tolist())) == brute_close_pairs(xs, ys, ids, radius)


def far_cells(ell):
    """Sites in grid-0 cells (0, 2^32), (1, 0), (1, 1), (-1, 2^32) and
    (0, 0): packed with base 2^32, (0, 2^32) and (1, 0) share a key, and so
    do (-1, 2^32) and (0, 0)."""
    xs = np.array([0.5, 1.5, 1.5, -0.5, 0.5]) * ell
    ys = np.array([2 ** 32 + 0.5, 0.5, 1.5, 2 ** 32 + 0.5, 0.5]) * ell
    return xs, ys


def shifted_grid_cases():
    rng = random.Random(51)
    for ell, offset in [(rng.uniform(0.05, 0.5), 0.0) for _ in range(6)] + [(1e-3, 1e8),
                                                                            (1e-3, -1e8)]:
        n = rng.randint(1, 60)
        xs = np.array([offset + rng.uniform(0, 0.02 if offset else 1) for _ in range(n)])
        ys = np.array([rng.uniform(0, 0.02 if offset else 1) for _ in range(n)])
        yield xs, ys, ell, offset != 0.0
    yield (*far_cells(1e-6), 1e-6, True)


def test_shifted_grid_index_matches_cell_of():
    for xs, ys, ell, wide in shifted_grid_cases():
        n = len(xs)
        G = ShiftedGridIndex(xs, ys, ell)
        assert (G.keys.dtype == object) == wide
        cells = [[cell_of(x, y, ell, g) for x, y in zip(xs.tolist(), ys.tolist())]
                 for g in range(4)]
        # runs: the occupied cells of each grid, ids ascending
        order = G.order.ravel()
        runs = sorted((int(g), tuple(order[a:a + k].tolist()))
                      for g, a, k in zip(G.run_grid, G.run_start, G.run_size))
        expect = sorted((g, tuple(i for i in range(n) if cells[g][i] == c))
                        for g in range(4) for c in set(cells[g]))
        assert runs == expect
        # blocks around every site in every grid
        for k in (2, 3):
            owner, sites = G.blocks(np.repeat(np.arange(4), n), G.site_keys.ravel(), k)
            assert (np.diff(owner) >= 0).all()
            got = sorted(zip(owner.tolist(), sites.tolist()))
            want = sorted((g * n + i, j) for g in range(4) for i in range(n)
                          for j in range(n)
                          if abs(cells[g][j][0] - cells[g][i][0]) <= k
                          and abs(cells[g][j][1] - cells[g][i][1]) <= k)
            assert got == want


def test_grid_index_keeps_far_cells_apart():
    ell = 1e-6
    xs, ys = far_cells(ell)
    ss = SiteSet([Site(i, x, y, 1.0) for i, (x, y) in enumerate(zip(xs, ys))])
    G = GridIndex(ss, ell)
    cells = [cell_of(x, y, ell) for x, y in zip(xs.tolist(), ys.tolist())]
    assert len(G.run_keys) == len(set(cells))
    for i in range(len(xs)):
        want = [j for j in range(len(xs)) if abs(cells[j][0] - cells[i][0]) <= 1
                and abs(cells[j][1] - cells[i][1]) <= 1]
        assert sorted(G.block_sites(i, 1).tolist()) == want


def test_block_reduce_matches_brute_count():
    rng = random.Random(52)
    cases = list(shifted_grid_cases())
    for _ in range(300):
        n = rng.randint(1, 60)
        # cell indices pass 2^30 at offset 1e8: Python-int keys
        offset = rng.choice([0.0, 1e8, -1e8])
        ell = rng.uniform(0.002, 0.05) if offset else rng.uniform(0.02, 0.5)
        span = 0.1 if offset else rng.uniform(0.1, 2.0)
        xs = np.array([offset + rng.uniform(0, span) for _ in range(n)])
        ys = np.array([rng.uniform(0, span) for _ in range(n)])
        cases.append((xs, ys, ell, None))
    wide = 0
    for xs, ys, ell, _ in cases:
        G = GridIndex(SiteSet.from_arrays(xs, ys, np.ones(len(xs))), ell)
        wide += G.run_keys.dtype == object
        cells = [cell_of(float(xs[i]), float(ys[i]), ell)
                 for i in G.order[G.run_starts].tolist()]
        weights = np.array([rng.randint(0, 9) for _ in cells], dtype=np.int64)
        for per_run in (G.run_sizes, weights):
            for k in (1, 3, 4):
                want = [sum(int(w) for (qx, qy), w in zip(cells, per_run)
                            if abs(qx - cx) <= k and abs(qy - cy) <= k)
                        for cx, cy in cells]
                assert G.block_reduce(per_run, k).tolist() == want
    assert wide >= 150
