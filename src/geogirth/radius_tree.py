"""Balanced binary tree over sites sorted by radius.

Each node owns a contiguous range of the radius-sorted order (its canonical
interval); any radius range splits into O(log n) canonical nodes.  Node
ids follow the preorder numbering of a stack-built tree: the root is 0 and
the k-th internal node in preorder has children 2k+1 and 2k+2.  The arrays
are built one level at a time in numpy; a node's k is its preorder index
minus the number of leaves before it, which is its range start.  The
compressed quadtrees of all canonical intervals are derived top-down: a
child's point set is a filtered copy of its parent's Z-sorted points, and
its quadtree is rebuilt from those in linear time.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .sites import SiteSet
from .zorder import (CompressedQuadtree, ZKeys,
                     build_compressed_quadtree_from_codes, choose_depth)


class RadiusTree:
    """Implicit balanced tree: node v covers positions [lo[v], hi[v]) of the
    radius-sorted site order; leaves are singletons."""

    __slots__ = ("S", "order", "radii_sorted", "pos_of_site",
                 "lo", "hi", "left", "right", "root")

    def __init__(self, S: SiteSet):
        n = len(S)
        if n == 0:
            raise ValueError("empty site set")
        self.S = S
        self.order = np.lexsort((np.arange(n), S.rs)).astype(np.int64)
        self.radii_sorted = S.rs[self.order]
        self.pos_of_site = np.empty(n, dtype=np.int64)
        self.pos_of_site[self.order] = np.arange(n)
        m = 2 * n - 1
        lo = np.empty(m, dtype=np.int64)
        hi = np.empty(m, dtype=np.int64)
        left = np.full(m, -1, dtype=np.int64)
        right = np.full(m, -1, dtype=np.int64)
        self.root = 0
        # one level at a time: node ids, ranges [a, b) and preorder indices
        v = np.zeros(1, dtype=np.int64)
        a = np.zeros(1, dtype=np.int64)
        b = np.full(1, n, dtype=np.int64)
        pre = np.zeros(1, dtype=np.int64)
        while len(v):
            lo[v] = a
            hi[v] = b
            split = b - a > 1
            v, a, b, pre = v[split], a[split], b[split], pre[split]
            mid = (a + b) // 2
            # pre - a internal nodes precede v in preorder (a leaves do)
            k = pre - a
            left[v] = 2 * k + 1
            right[v] = 2 * k + 2
            # the left subtree holds 2 * (mid - a) - 1 nodes
            pre = np.concatenate((pre + 1, pre + 2 * (mid - a)))
            v = np.concatenate((left[v], right[v]))
            a, b = np.concatenate((a, mid)), np.concatenate((mid, b))
        self.lo = lo
        self.hi = hi
        self.left = left
        self.right = right

    def __len__(self) -> int:
        return len(self.lo)

    @property
    def n_sites(self) -> int:
        return len(self.S)

    def node_sites(self, v: int) -> np.ndarray:
        """Canonical interval of v: site ids sorted by increasing radius."""
        return self.order[self.lo[v]:self.hi[v]]

    def interval_sizes_total(self) -> int:
        return int((self.hi - self.lo).sum())

    def index_of_radius(self, r: float) -> int:
        """First radius-sorted position with radius >= r."""
        return int(np.searchsorted(self.radii_sorted, r, side="left"))

    def canonical_nodes_for_positions(self, i1: int, i2: int) -> list[int]:
        """Maximal nodes tiling the position range [i1, i2)."""
        out: list[int] = []
        if i1 >= i2:
            return out
        stack = [self.root]
        while stack:
            v = stack.pop()
            a, b = self.lo[v], self.hi[v]
            if i1 <= a and b <= i2:
                out.append(v)
            elif i1 < b and i2 > a:
                stack.append(self.right[v])
                stack.append(self.left[v])
        return out


def canonical_nodes(B: RadiusTree, r1: float, r2: Optional[float]) -> list[int]:
    """Canonical nodes partitioning {s : r1 <= r_s < r2} (r2=None: no cap)."""
    i1 = B.index_of_radius(r1)
    i2 = B.n_sites if r2 is None else B.index_of_radius(r2)
    return B.canonical_nodes_for_positions(i1, i2)


def descend_quadtrees(B: RadiusTree,
                      visitor: Optional[Callable[[int, CompressedQuadtree], None]] = None,
                      depth: Optional[int] = None,
                      prune: Optional[Callable[[int], bool]] = None):
    """Linearized compressed quadtree of every canonical interval.

    Children are derived from the parent by filtering its Z-sorted points on
    the radius range and rebuilding in linear time.  With a visitor the
    trees are streamed in preorder (peak memory stays linear); otherwise a
    dict node -> tree is returned.  `prune` may cut subtrees that need no
    tree at all.
    """
    S = B.S
    if depth is None:
        depth = choose_depth(S.xs, S.ys, float(S.rs.min()))
    zk = ZKeys(depth)
    codes = zk.point_codes(S.xs, S.ys)
    z_order = np.argsort(codes, kind="stable").astype(np.int64)
    collected: Optional[dict] = None if visitor is not None else {}

    def visit(v: int, sites_z: np.ndarray, codes_z: np.ndarray) -> None:
        if prune is not None and prune(v):
            return
        tree = build_compressed_quadtree_from_codes(zk, sites_z, codes_z)
        if visitor is not None:
            visitor(v, tree)
        else:
            collected[v] = tree
        for child in (int(B.left[v]), int(B.right[v])):
            if child < 0:
                continue
            a, b = B.lo[child], B.hi[child]
            pos = B.pos_of_site[sites_z]
            mask = (pos >= a) & (pos < b)
            visit(child, sites_z[mask], codes_z[mask])

    visit(B.root, z_order, codes[z_order])
    return collected
