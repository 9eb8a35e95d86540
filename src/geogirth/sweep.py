"""Plane sweeps over circle arcs and straight edges.

Three cooperating pieces:

* an arc sweep (Bentley-Ottmann over the 2n x-monotone boundary arcs) that
  reports boundary-boundary intersections in x-order with an early abort,
  and tracks, for every arc in the status, the set of disks covering the
  face directly above it.  The face sets turn containment edges (one disk
  swallowing another, no boundary crossing) into O(1) lookups at
  circle-insertion events.
* a Shamos-Hoey style sweep over straight segments that finds one proper
  crossing between independent edges, or certifies there is none.
* the constructive extraction of a triangle from two crossing edges.

Status structures are plain ordered lists; comparisons are closed-form
evaluations at the current sweep abscissa, ties broken deterministically.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Optional

from .graphs import Triangle, UndirectedGraph
from .sites import (InvariantViolation, Site, SiteSet, circle_circle_points,
                    disk_edge, dist, triangle_perimeter)

INSERT, CROSS, REMOVE = 0, 1, 2

_EMPTY = frozenset()


@dataclass
class ArcSweepState:
    """Raw result of one arc sweep."""

    intersections: list          # (x, y, i, j) in report order
    inter_exceeded: bool
    edge_pairs: set              # all discovered edges as (min, max) pairs
    edge_exceeded: bool


class _ArcSweep:
    """One left-to-right sweep over all circle boundary arcs.

    Arcs are encoded as ints: (owner << 1) | is_upper.  The status is a list
    ordered by y at the current sweep position.
    """

    def __init__(self, S: SiteSet, inter_limit: Optional[int] = None,
                 edge_limit: Optional[int] = None):
        # plain Python floats: scalar math on numpy elements is several
        # times slower in the event loop
        self.cx = S.xs.tolist()
        self.cy = S.ys.tolist()
        self.cr = S.rs.tolist()
        self.cr2 = [r * r for r in self.cr]
        self.inter_limit = inter_limit
        self.edge_limit = edge_limit
        self.status: list[int] = []
        self.faces: dict[int, frozenset] = {}
        self.alive = [False] * len(S)
        # per circle pair, the boundary crossings not yet scheduled as
        # (x, y, index in circle_circle_points order)
        self._pending: dict[tuple[int, int], list] = {}
        self.state = ArcSweepState([], False, set(), False)
        self._events: list = []
        self._seq = 0

    # -- geometry helpers

    def _y(self, arc: int, x: float) -> float:
        o = arc >> 1
        dx = x - self.cx[o]
        h2 = self.cr2[o] - dx * dx
        h = math.sqrt(h2) if h2 > 0.0 else 0.0
        return self.cy[o] + h if arc & 1 else self.cy[o] - h

    def _slope_key(self, arc: int, x: float):
        """(dy/dx, curvature sign) just to the right of x; +-inf at the tips."""
        o = arc >> 1
        dx = x - self.cx[o]
        h2 = self.cr[o] * self.cr[o] - dx * dx
        h = math.sqrt(h2) if h2 > 0.0 else 0.0
        if h == 0.0:
            m = math.inf if (dx < 0) == bool(arc & 1) else -math.inf
            if dx == 0.0:
                m = math.inf if arc & 1 else -math.inf
        elif arc & 1:
            m = -dx / h
        else:
            m = dx / h
        curv = (-1.0 if arc & 1 else 1.0) / self.cr[o]
        return (m, curv, arc)

    # -- status search

    def _bisect(self, x: float, y: float) -> int:
        """First index whose arc-y at x is >= y."""
        st = self.status
        cx, cy, cr2 = self.cx, self.cy, self.cr2
        sqrt = math.sqrt
        lo, hi = 0, len(st)
        while lo < hi:
            mid = (lo + hi) >> 1
            arc = st[mid]
            o = arc >> 1
            dx = x - cx[o]
            h2 = cr2[o] - dx * dx
            if h2 > 0.0:
                ym = cy[o] + sqrt(h2) if arc & 1 else cy[o] - sqrt(h2)
            else:
                ym = cy[o]
            if ym < y:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def _find_arc(self, arc: int, x: float, y_hint: float) -> int:
        pos = self._bisect(x, y_hint)
        st = self.status
        n = len(st)
        if pos < n and st[pos] == arc:
            return pos
        for d in range(1, n + 1):
            i = pos - d
            if i >= 0 and st[i] == arc:
                return i
            i = pos + d
            if i < n and st[i] == arc:
                return i
            if pos - d < 0 and pos + d >= n:
                break
        return -1

    # -- event scheduling

    def _schedule_pair(self, arc_a: int, arc_b: int, cur_x: float) -> None:
        oa, ob = arc_a >> 1, arc_b >> 1
        if oa == ob:
            return
        key = (oa, ob) if oa < ob else (ob, oa)
        pending = self._pending.get(key)
        if pending is None:
            # circle_circle_points' own disjoint-or-nested test, done on the
            # coordinate lists: most adjacent pairs never cross
            i, j = key
            cx, cy, cr = self.cx, self.cy, self.cr
            dx, dy = cx[j] - cx[i], cy[j] - cy[i]
            d2 = dx * dx + dy * dy
            sum_r, dif_r = cr[i] + cr[j], cr[i] - cr[j]
            if d2 > sum_r * sum_r or d2 < dif_r * dif_r:
                pending = []
            else:
                # Sites from the lists: S[i] converts three numpy scalars
                pending = [(px, py, pidx) for pidx, (px, py) in enumerate(
                    circle_circle_points(Site(i, cx[i], cy[i], cr[i]),
                                         Site(j, cx[j], cy[j], cr[j])))]
            self._pending[key] = pending
        if not pending:
            return
        cy = self.cy
        # the sweep never moves left, so points behind it are dropped for good
        for p in list(pending):
            px, py, pidx = p
            if px < cur_x:
                pending.remove(p)
                continue
            if arc_a & 1:
                if py < cy[oa]:
                    continue
            elif py > cy[oa]:
                continue
            if arc_b & 1:
                if py < cy[ob]:
                    continue
            elif py > cy[ob]:
                continue
            pending.remove(p)
            self._seq += 1
            heapq.heappush(self._events,
                           (px, CROSS, py, self._seq, arc_a, arc_b, pidx))

    def _schedule_around(self, idx: int, cur_x: float) -> None:
        st = self.status
        if 0 <= idx < len(st):
            if idx > 0:
                self._schedule_pair(st[idx - 1], st[idx], cur_x)
            if idx + 1 < len(st):
                self._schedule_pair(st[idx], st[idx + 1], cur_x)

    # -- edge bookkeeping

    def _add_edge(self, i: int, j: int) -> bool:
        """Record a discovered edge; returns False once the budget is blown.

        Only pairs that pass ``disk_edge`` are recorded: at tangencies and
        shared event points the face sets can name disks that do not meet.
        """
        pair = (i, j) if i < j else (j, i)
        ep = self.state.edge_pairs
        if pair not in ep:
            # disk_edge on the coordinate lists
            dx = self.cx[i] - self.cx[j]
            dy = self.cy[i] - self.cy[j]
            rr = self.cr[i] + self.cr[j]
            if dx * dx + dy * dy > rr * rr:
                return True
            ep.add(pair)
            if self.edge_limit is not None and len(ep) > self.edge_limit:
                self.state.edge_exceeded = True
                return False
        return True

    # -- event handlers

    def _insert_circle(self, t: int, x: float) -> bool:
        y = self.cy[t]
        lo = self._bisect(x, y)
        st = self.status
        # the equal-y run is almost always empty; scan instead of a second
        # binary search
        hi = lo
        while hi < len(st) and self._y(st[hi], x) == y:
            hi += 1
        lower, upper = t << 1, (t << 1) | 1
        face_p = self.faces[st[lo - 1]] if lo > 0 else _EMPTY
        self.faces[lower] = face_p | {t}
        self.faces[upper] = face_p
        for s_id in face_p:
            if not self._add_edge(t, s_id):
                return False
        st.insert(hi, upper)
        st.insert(lo, lower)
        self.alive[t] = True
        # new adjacencies: below the lower arc, above the upper arc, and
        # against whatever equal-y run got sandwiched between them
        if lo > 0:
            self._schedule_pair(st[lo - 1], st[lo], x)
        if lo + 1 < len(st):
            self._schedule_pair(st[lo], st[lo + 1], x)
        up_idx = hi + 1
        self._schedule_pair(st[up_idx - 1], st[up_idx], x)
        if up_idx + 1 < len(st):
            self._schedule_pair(st[up_idx], st[up_idx + 1], x)
        return True

    def _remove_circle(self, t: int, x: float) -> None:
        y = self.cy[t]
        lower, upper = t << 1, (t << 1) | 1
        st = self.status
        pa = self._find_arc(lower, x, y)
        if 0 <= pa + 1 < len(st) and st[pa + 1] == upper:
            pb = pa + 1
        elif pa > 0 and st[pa - 1] == upper:
            pb = pa - 1
        else:
            pb = self._find_arc(upper, x, y)
        if pa < 0 or pb < 0:
            raise InvariantViolation(f"arc of circle {t} missing at removal")
        st = self.status
        for p in sorted((pa, pb), reverse=True):
            st.pop(p)
        self.alive[t] = False
        self.faces.pop(lower, None)
        self.faces.pop(upper, None)
        p = min(pa, pb)
        if 0 < p <= len(st) - 1:
            self._schedule_pair(st[p - 1], st[p], x)
        q = max(pa, pb) - 1
        if q != p and 0 < q <= len(st) - 1:
            self._schedule_pair(st[q - 1], st[q], x)

    def _cross(self, arc_a: int, arc_b: int, px: float, py: float) -> bool:
        oa, ob = arc_a >> 1, arc_b >> 1
        if not (self.alive[oa] and self.alive[ob]):
            return True
        st = self.status
        ia = self._find_arc(arc_a, px, py)
        if ia < 0:
            return True
        if ia + 1 < len(st) and st[ia + 1] == arc_b:
            ib = ia + 1
        elif ia > 0 and st[ia - 1] == arc_b:
            ib = ia - 1
        else:
            ib = self._find_arc(arc_b, px, py)
        if ib < 0:
            return True
        self.state.intersections.append((px, py, min(oa, ob), max(oa, ob)))
        ok = self._add_edge(oa, ob)
        if self.inter_limit is not None and \
                len(self.state.intersections) > self.inter_limit:
            self.state.inter_exceeded = True
            return False
        if not ok:
            return False

        st = self.status
        i0, i1 = (ia, ib) if ia < ib else (ib, ia)
        arc_x, arc_y = st[i0], st[i1]
        top = self.faces[arc_y]
        if arc_x & 1:
            right_face = top | {arc_x >> 1}
        elif not (arc_y & 1):
            below = self.faces[st[i0 - 1]] if i0 > 0 else _EMPTY
            right_face = below | {arc_y >> 1}
        else:
            right_face = top - {arc_x >> 1}
        self.faces[arc_y] = right_face
        self.faces[arc_x] = top
        if i1 == i0 + 1:
            st[i0], st[i1] = arc_y, arc_x
            # only the two outer adjacencies are new after the swap
            if i0 > 0:
                self._schedule_pair(st[i0 - 1], st[i0], px)
            if i1 + 1 < len(st):
                self._schedule_pair(st[i1], st[i1 + 1], px)
        else:
            # degenerate multi-event point: reorder by post-crossing slope
            pair = sorted((arc_x, arc_y), key=lambda a: self._slope_key(a, px))
            st.pop(i1)
            st.pop(i0)
            st.insert(i0, pair[1])
            st.insert(i0, pair[0])
            self._schedule_around(i0, px)
            self._schedule_around(i1, px)
        return True

    # -- main loop

    def run(self) -> ArcSweepState:
        # endpoint events are known upfront: sort them once and merge with
        # the (much smaller) dynamic heap of crossing events
        cx, cy, cr = self.cx, self.cy, self.cr
        endpoints = []
        for o in range(len(cx)):
            self._seq += 1
            endpoints.append((cx[o] - cr[o], INSERT, cy[o], self._seq, o))
            self._seq += 1
            endpoints.append((cx[o] + cr[o], REMOVE, cy[o], self._seq, o))
        endpoints.sort()
        ei, ne = 0, len(endpoints)
        ch = self._events
        pop = heapq.heappop
        while ei < ne or ch:
            if ch and (ei >= ne or ch[0] < endpoints[ei]):
                ev = pop(ch)
                if not self._cross(ev[4], ev[5], ev[0], ev[2]):
                    break
            else:
                ev = endpoints[ei]
                ei += 1
                if ev[1] == INSERT:
                    if not self._insert_circle(ev[4], ev[0]):
                        break
                else:
                    self._remove_circle(ev[4], ev[0])
        return self.state


# ---------------------------------------------------------------------------
# segment crossing sweep (Shamos-Hoey, detection only)


def _orient(ax, ay, bx, by, cx, cy) -> float:
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def proper_crossing(p1, p2, p3, p4) -> bool:
    """Open-segment crossing: both segments strictly straddle each other."""
    o1 = _orient(*p1, *p2, *p3)
    o2 = _orient(*p1, *p2, *p4)
    o3 = _orient(*p3, *p4, *p1)
    o4 = _orient(*p3, *p4, *p2)
    return ((o1 > 0) != (o2 > 0)) and (o1 != 0) and (o2 != 0) and \
           ((o3 > 0) != (o4 > 0)) and (o3 != 0) and (o4 != 0)


class _SegSweep:
    def __init__(self, S: SiteSet, edges):
        self.S = S
        xs, ys = S.xs.tolist(), S.ys.tolist()
        self.segs = []
        for (u, v) in edges:
            a = (xs[u], ys[u])
            b = (xs[v], ys[v])
            if a > b:
                a, b = b, a
                u, v = v, u
            self.segs.append((a, b, u, v))
        self.status: list[int] = []

    def _key(self, idx: int, x: float):
        (ax, ay), (bx, by), _, _ = self.segs[idx]
        if bx == ax:
            return (ay, math.inf, idx)
        t = (x - ax) / (bx - ax)
        y = ay + (by - ay) * t
        return (y, (by - ay) / (bx - ax), idx)

    def _check(self, i: int, j: int):
        a1, b1, u1, v1 = self.segs[i]
        a2, b2, u2, v2 = self.segs[j]
        if u1 in (u2, v2) or v1 in (u2, v2):
            return None
        if proper_crossing(a1, b1, a2, b2):
            return (u1, v1, u2, v2)
        return None

    def find_crossing(self):
        events = []
        for idx, (a, b, _, _) in enumerate(self.segs):
            events.append((a[0], 0, a[1], idx))
            events.append((b[0], 1, b[1], idx))
        events.sort()
        st = self.status
        for x, kind, _, idx in events:
            if kind == 0:
                key = self._key(idx, x)
                lo, hi = 0, len(st)
                while lo < hi:
                    mid = (lo + hi) // 2
                    if self._key(st[mid], x) < key:
                        lo = mid + 1
                    else:
                        hi = mid
                st.insert(lo, idx)
                for nb in (lo - 1, lo + 1):
                    if 0 <= nb < len(st):
                        hit = self._check(st[lo], st[nb])
                        if hit:
                            return hit
            else:
                try:
                    pos = st.index(idx)
                except ValueError:
                    raise InvariantViolation("segment missing at removal")
                st.pop(pos)
                if 0 < pos < len(st):
                    hit = self._check(st[pos - 1], st[pos])
                    if hit:
                        return hit
        return None


def find_segment_crossing(S: SiteSet, edges):
    """First proper crossing between two independent embedded edges, as a
    tuple (s, t, u, v) of site ids, or None if the drawing is plane."""
    if len(edges) < 2:
        return None
    return _SegSweep(S, edges).find_crossing()


# ---------------------------------------------------------------------------
# constructive triangle extraction from a crossing (two crossing edges of
# the disk graph always contain three pairwise-intersecting disks)


def _point_in_disk(px: float, py: float, s: Site) -> bool:
    dx, dy = px - s.x, py - s.y
    return dx * dx + dy * dy <= s.r * s.r


def triangle_from_crossing(s: Site, t: Site, u: Site, v: Site) -> Triangle:
    """Given edges st and uv of the disk graph crossing in their relative
    interiors, return three of the four sites whose disks pairwise
    intersect."""
    ids = {s.id, t.id, u.id, v.id}
    if len(ids) != 4:
        raise ValueError("crossing edges must have four distinct endpoints")
    if not (disk_edge(s, t) and disk_edge(u, v)):
        raise ValueError("st and uv must both be edges of the disk graph")
    p1, p2, p3, p4 = (s.x, s.y), (t.x, t.y), (u.x, u.y), (v.x, v.y)
    if not proper_crossing(p1, p2, p3, p4):
        raise ValueError("segments st and uv do not cross in their interiors")

    # crossing point a
    d1x, d1y = t.x - s.x, t.y - s.y
    d2x, d2y = v.x - u.x, v.y - u.y
    den = d1x * d2y - d1y * d2x
    ta = ((u.x - s.x) * d2y - (u.y - s.y) * d2x) / den
    ax, ay = s.x + ta * d1x, s.y + ta * d1y

    # relabel each pair so that a lies in the first disk
    if not _point_in_disk(ax, ay, s):
        s, t = t, s
    if not _point_in_disk(ax, ay, u):
        u, v = v, u
    # and the pairs so that r_u <= r_s
    if u.r > s.r:
        s, t, u, v = u, v, s, t

    def result(a: Site, b: Site, c: Site) -> Triangle:
        tri = Triangle(tuple(sorted((a.id, b.id, c.id))), triangle_perimeter(a, b, c))
        return tri

    if _point_in_disk(ax, ay, t):
        return result(s, t, u)
    # first point b on st inside D_t, walking from s toward t
    L = dist(s, t)
    bx = t.x + (s.x - t.x) * (t.r / L)
    by = t.y + (s.y - t.y) * (t.r / L)
    if _point_in_disk(bx, by, u):
        return result(s, t, u)
    return result(s, u, v)


# ---------------------------------------------------------------------------
# Plane / NotPlane pipeline


@dataclass(frozen=True)
class SweepOutcome:
    """Either an explicit plane disk graph or a witness triangle."""

    plane: bool
    graph: Optional[UndirectedGraph] = None
    witness: Optional[Triangle] = None

    @staticmethod
    def of_plane(graph: UndirectedGraph) -> "SweepOutcome":
        return SweepOutcome(True, graph=graph)

    @staticmethod
    def of_witness(tri: Triangle) -> "SweepOutcome":
        return SweepOutcome(False, witness=tri)


def _graph_from_pairs(S: SiteSet, pairs) -> tuple[UndirectedGraph, list]:
    g = UndirectedGraph(len(S))
    edges = sorted(pairs)
    xs, ys = S.xs.tolist(), S.ys.tolist()
    for u, v in edges:
        # dist() on the coordinate lists
        g.add_edge(u, v, math.hypot(xs[u] - xs[v], ys[u] - ys[v]))
    return g, edges


def _witness_from_edges(S: SiteSet, pairs) -> Triangle:
    hit = find_segment_crossing(S, sorted(pairs))
    if hit is None:
        raise InvariantViolation(
            "edge budget exceeded but no segment crossing found")
    a, b, c, d = hit
    return triangle_from_crossing(S[a], S[b], S[c], S[d])


def build_plane_or_witness(S: SiteSet) -> SweepOutcome:
    """Full pipeline: bounded arc sweep, containment edges, edge-count
    cutoff, then a crossing check of the straight-line embedding.

    Returns Plane(graph), whose straight-line drawing on the centers has no
    crossing, or NotPlane(triangle).
    """
    n = len(S)
    if n <= 3:
        from .graphs import build_disk_graph_brute
        g = build_disk_graph_brute(S)
        return SweepOutcome.of_plane(g)

    inter_limit = max(0, 6 * n - 12)
    edge_limit = max(0, 3 * n - 6)
    st = _ArcSweep(S, inter_limit=inter_limit, edge_limit=edge_limit).run()
    if st.inter_exceeded or st.edge_exceeded:
        return SweepOutcome.of_witness(_witness_from_edges(S, st.edge_pairs))

    g, edges = _graph_from_pairs(S, st.edge_pairs)
    hit = find_segment_crossing(S, edges)
    if hit is not None:
        a, b, c, d = hit
        return SweepOutcome.of_witness(
            triangle_from_crossing(S[a], S[b], S[c], S[d]))
    return SweepOutcome.of_plane(g)
