"""Directed triangles in transmission graphs, and the shortest one.

Detection follows the two-test scheme over the short edge lists of the
range reporter: a crowded square immediately yields a triangle among 73
nearby fat disks; otherwise edges st with r_t >= r_s are chased one hop
through the reported lists, and the leftover configurations (r_u below
r_t/2) become batched union-of-disks membership queries.  The weighted
decision localizes everything to grid cells scaled by the perimeter bound;
``shortest_triangle_tx`` hands it, the detection and the brute-force base
case to the shared optimization driver in ``chan``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .chan import shortest_triangle
from .graphs import (Triangle, brute_directed_triangle,
                     brute_shortest_directed_triangle, build_tx_graph_brute,
                     triangle_is_valid_tx)
from .grids import GridIndex, ranges_concat
from .range_search import ALPHA, QueryTripleR2, solve_R1, solve_R2
from .sites import InvariantViolation, SiteSet, triangle_perimeter, tx_edge

SQRT27 = math.sqrt(27.0)


@dataclass(frozen=True)
class TxDecisionContext:
    """Scales for one perimeter decision: threshold ell = W/sqrt(27) between
    small and large sites, grid side ell/sqrt(2)."""

    W: float

    @property
    def ell(self) -> float:
        # shrunk by one part in 10^12 so that presence-based steps certify
        # canonical perimeters strictly below W despite float rounding
        return self.W / SQRT27 * (1.0 - 1e-12)

    @property
    def grid_side(self) -> float:
        return self.ell / math.sqrt(2.0)


def _triangle(S: SiteSet, i: int, j: int, k: int) -> Triangle:
    tri = Triangle(tuple(sorted((i, j, k))), triangle_perimeter(S[i], S[j], S[k]))
    if not triangle_is_valid_tx(S, tri):
        raise InvariantViolation(f"reported triple {tri.ids} is not a directed triangle")
    return tri


def _crowded_triangle(S: SiteSet, square, alpha: int = ALPHA) -> Triangle:
    """A directed triangle among alpha + 1 fat sites of a crowded square."""
    ids = square.qualifying_sites(S)
    if len(ids) <= alpha:
        raise InvariantViolation(
            f"crowded square recounts to {len(ids)} <= {alpha} sites")
    ids = ids[:alpha + 1]
    sub = S.subset(ids)
    tri = brute_directed_triangle(build_tx_graph_brute(sub), sub)
    if tri is None:
        raise InvariantViolation("crowded square without a directed triangle")
    i, j, k = (ids[v] for v in tri.ids)
    return _triangle(S, i, j, k)


def find_directed_triangle(S: SiteSet) -> Optional[Triangle]:
    """Some directed triangle of the transmission graph, or None."""
    n = len(S)
    if n < 3:
        return None
    r1 = solve_R1(S)
    if r1.is_crowded:
        return _crowded_triangle(S, r1.crowded)
    offs, flat = r1.offsets, r1.targets
    if not len(flat):
        return None
    counts = np.diff(offs)
    src = np.repeat(np.arange(n, dtype=np.int64), counts)
    dst = flat
    # first test: edges st with r_t >= r_s, one more hop through the lists
    amask = S.rs[dst] >= S.rs[src]
    a_src, a_dst = src[amask], dst[amask]
    step = max(1, (1 << 20) // max(int(counts.max(initial=1)), 1))
    for c0 in range(0, len(a_src), step):
        s_blk = a_src[c0:c0 + step]
        t_blk = a_dst[c0:c0 + step]
        reps = counts[t_blk]
        if not int(reps.sum()):
            continue
        s_exp = np.repeat(s_blk, reps)
        t_exp = np.repeat(t_blk, reps)
        u_exp = flat[ranges_concat(offs[t_blk], offs[t_blk + 1])[1]]
        ok = (u_exp != s_exp) & (u_exp != t_exp)
        dx = S.xs[s_exp] - S.xs[u_exp]
        dy = S.ys[s_exp] - S.ys[u_exp]
        ok &= dx * dx + dy * dy <= S.rs[u_exp] * S.rs[u_exp]
        hit = np.flatnonzero(ok)
        if len(hit):
            h = int(hit[0])
            return _triangle(S, int(s_exp[h]), int(t_exp[h]), int(u_exp[h]))
    # second test: sites u with r_u in [r_s, r_t/2) and s inside D_u
    qmask = S.rs[a_dst] > 2.0 * S.rs[a_src]
    queries = [QueryTripleR2(int(s), float(S.rs[s]), float(S.rs[t]) / 2.0, tag=int(t))
               for s, t in zip(a_src[qmask].tolist(), a_dst[qmask].tolist())]
    found = solve_R2(S, queries)
    if found is not None:
        u, qi = found
        q = queries[qi]
        return _triangle(S, q.s, q.tag, u)
    return None


# ---------------------------------------------------------------------------
# the weighted decision


def decide_tx_perimeter(S: SiteSet, W: float) -> bool:
    """Does the transmission graph contain a directed triangle of perimeter
    at most W?"""
    if not (W > 0.0) or not math.isfinite(W):
        raise ValueError("W must be positive and finite")
    n = len(S)
    if n < 3:
        return False
    ctx = TxDecisionContext(W)
    ell = ctx.ell
    large_mask = S.rs > ell
    small_ids = np.flatnonzero(~large_mask)

    # (1) any triangle among small sites has perimeter <= W
    if len(small_ids) >= 3:
        if find_directed_triangle(S.subset(small_ids.tolist())) is not None:
            return True

    # (2) small -> large edges via the restricted range reporter; a crowded
    # square here has side < 2*ell and forces a short triangle, and a large
    # site with incoming degree > 6 forces one too.  The small in-neighbors
    # of a large site t, by increasing id, are in_src[in_offs[t]:in_offs[t + 1]]
    in_offs = np.zeros(n + 1, dtype=np.int64)
    in_src = np.empty(0, dtype=np.int64)
    if len(small_ids):
        r1 = solve_R1(S, query_ids=small_ids.tolist())
        if r1.is_crowded:
            return True
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(r1.offsets))
        to_large = large_mask[r1.targets]
        dst = r1.targets[to_large]
        indeg = np.bincount(dst, minlength=n)
        if int(indeg.max(initial=0)) > 6:
            return True
        np.cumsum(indeg, out=in_offs[1:])
        in_src = src[to_large][np.argsort(dst, kind="stable")]

    # (3) per grid cell: any in-cell triangle has perimeter <= W; three
    # large sites in one cell always form one
    G = GridIndex(S, ctx.grid_side, 0.0, 0.0)
    large_per_run = G.run_reduce(large_mask.astype(np.int64))
    if len(large_per_run) and int(large_per_run.max(initial=0)) >= 3:
        return True
    for r in np.flatnonzero(G.run_sizes >= 3).tolist():
        ids = G.order[G.run_starts[r]:G.run_ends[r]]
        if find_directed_triangle(S.subset(ids.tolist())) is not None:
            return True

    # (4) remaining triangles: the max-radius vertex t is large, the other
    # two vertices lie within W/2 of t, i.e. inside the 9x9 block of t's
    # cell (W/2 is 3.68 grid sides); t's cycle-predecessor x is either
    # large (O(1) per block) or one of t's <= 6 small in-neighbors.  The
    # blocks of all anchor cells come from one batched lookup, cut at the
    # cumulative block sizes.
    if not large_mask.any():
        return False
    runs = np.flatnonzero(large_per_run > 0)
    blk_runs = G.lookup_many(G.neighbor_keys(G.order[G.run_starts[runs]], 4).ravel())
    blocks = G.sites_of_runs(blk_runs)
    sizes = np.where(blk_runs >= 0, G.run_sizes[blk_runs], 0).reshape(len(runs), -1)
    ends = np.cumsum(sizes.sum(axis=1)).tolist()
    sites = S.sites
    for r, b0, b1 in zip(runs.tolist(), [0] + ends[:-1], ends):
        run_ids = G.order[G.run_starts[r]:G.run_ends[r]]
        block = blocks[b0:b1]
        block_list = block.tolist()
        block_set = set(block_list)
        t_in_cell = run_ids[large_mask[run_ids]]
        blk_large = block[large_mask[block]].tolist()
        for t in t_in_cell.tolist():
            xs = [u for u in blk_large if u != t]
            xs += [u for u in in_src[in_offs[t]:in_offs[t + 1]].tolist() if u in block_set]
            st = sites[t]
            for x in xs:
                sx = sites[x]
                if not tx_edge(sx, st):      # need the in-arc x -> t
                    continue
                for y in block_list:
                    if y == t or y == x:
                        continue
                    sy = sites[y]
                    # cycle t -> y -> x -> t
                    if not (tx_edge(st, sy) and tx_edge(sy, sx)):
                        continue
                    if triangle_perimeter(st, sx, sy) <= W:
                        return True
    return False


# ---------------------------------------------------------------------------
# shortest directed triangle


def shortest_triangle_tx(S: SiteSet, rng_seed: int = 0) -> Optional[Triangle]:
    """Minimum-perimeter directed triangle of the transmission graph."""
    return shortest_triangle(
        S, find_directed_triangle, decide_tx_perimeter,
        lambda sub: brute_shortest_directed_triangle(build_tx_graph_brute(sub), sub),
        rng_seed)
