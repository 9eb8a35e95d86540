"""Balanced binary tree over sites sorted by radius.

Each node owns a contiguous range of the radius-sorted order (its canonical
interval); any radius range splits into O(log n) canonical nodes.  Node
ids follow the preorder numbering of a stack-built tree: the root is 0 and
the k-th internal node in preorder has children 2k+1 and 2k+2.  The arrays
are built one level at a time in numpy; a node's k is its preorder index
minus the number of leaves before it, which is its range start.
``range_search.solve_R1`` derives the compressed quadtrees of the canonical
intervals top-down: a child's point set is a filtered copy of its parent's
Z-sorted points, and its quadtree is rebuilt from those in linear time.
"""

from __future__ import annotations

import numpy as np

from .sites import SiteSet


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

    def node_sites(self, v: int) -> np.ndarray:
        """Canonical interval of v: site ids sorted by increasing radius."""
        return self.order[self.lo[v]:self.hi[v]]

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
