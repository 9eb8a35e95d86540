"""Sites, disks, geometric predicates, instance I/O and the package's
error classes.  (The paraboloid lifting of disks lives with its one user,
R2, in ``range_search``.)

Everything downstream works on a ``SiteSet``: n sites (center plus
positive radius) held as three float64 arrays, where site i, with id i, is
index i of each.  All decisive predicates are sign tests on polynomials of
the inputs evaluated in float64; the test suite cross-checks them against
exact rational arithmetic.  ``short_triangle`` is the one batched
candidate-triangle test of both perimeter decisions, over disk edges or
transmission arcs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np


class Site(NamedTuple):
    id: int
    x: float
    y: float
    r: float


class GeogirthError(Exception):
    """Base of every error the package raises itself."""


class InstanceError(GeogirthError, ValueError):
    """Raised for malformed or degenerate instance input."""


class InvariantViolation(GeogirthError, AssertionError):
    """A structural constant guaranteed by the geometry failed at runtime."""


@dataclass(frozen=True)
class Normalization:
    """Invertible similarity p -> (p - offset) / scale applied to a SiteSet."""

    offset_x: float
    offset_y: float
    scale: float


def coincident_centers(xs: np.ndarray, ys: np.ndarray):
    """(order, dup): the lexicographic order of the centers, and per pair of
    neighbours in it whether their centers are equal."""
    order = np.lexsort((ys, xs))
    sx, sy = xs[order], ys[order]
    return order, (sx[1:] == sx[:-1]) & (sy[1:] == sy[:-1])


class SiteSet:
    """An immutable set of n sites as float64 arrays ``xs``, ``ys`` (centers)
    and ``rs`` (radii); site i is index i.

    The constructors check every site: finite center, positive finite
    radius, no two equal centers.  ``Site`` tuples are built only when
    ``sites`` or iteration asks for them; hot paths index the arrays.
    """

    __slots__ = ("xs", "ys", "rs", "normalization", "_sites")

    def __init__(self, sites: Sequence[Site]):
        sites = tuple(sites)
        a = np.array(sites, dtype=np.float64).reshape(-1, 4)
        wrong = np.flatnonzero(a[:, 0] != np.arange(len(a)))
        if wrong.size:
            i = int(wrong[0])
            raise InstanceError(
                f"site ids must be the contiguous range 0..n-1 (got {sites[i].id} at {i})")
        self._set(a[:, 1], a[:, 2], a[:, 3], None)
        self._check()

    @classmethod
    def from_arrays(cls, xs, ys, rs) -> "SiteSet":
        """Site i is (xs[i], ys[i], rs[i]); checked like ``SiteSet(sites)``."""
        S = cls._from_arrays(xs, ys, rs)
        S._check()
        return S

    @classmethod
    def _from_arrays(cls, xs, ys, rs, normalization=None) -> "SiteSet":
        """Unchecked: for sets derived from a checked one."""
        obj = cls.__new__(cls)
        obj._set(xs, ys, rs, normalization)
        return obj

    def _set(self, xs, ys, rs, normalization) -> None:
        self.xs = np.ascontiguousarray(xs, dtype=np.float64)
        self.ys = np.ascontiguousarray(ys, dtype=np.float64)
        self.rs = np.ascontiguousarray(rs, dtype=np.float64)
        self.normalization = normalization
        self._sites = None

    def _check(self, coincidences=None) -> None:
        """Raise InstanceError naming the first site whose radius or center
        is invalid, or two sites with the same center.

        `coincidences` is ``coincident_centers(xs, ys)`` if the caller has
        it already."""
        xs, ys, rs = self.xs, self.ys, self.rs
        bad_r = ~((rs > 0) & np.isfinite(rs))
        bad = bad_r | ~(np.isfinite(xs) & np.isfinite(ys))
        if bad.any():
            i = int(np.argmax(bad))
            if bad_r[i]:
                raise InstanceError(
                    f"site {i}: radius must be positive and finite (got {float(rs[i])!r})")
            raise InstanceError(f"site {i}: non-finite coordinates")
        order, dup = coincidences or coincident_centers(xs, ys)
        if dup.any():
            k = int(np.argmax(dup))
            raise InstanceError(
                f"coincident sites {order[k]} and {order[k + 1]} violate general position")

    @property
    def sites(self) -> tuple:
        if self._sites is None:
            self._sites = tuple(Site(i, x, y, r) for i, (x, y, r) in enumerate(
                zip(self.xs.tolist(), self.ys.tolist(), self.rs.tolist())))
        return self._sites

    def __len__(self) -> int:
        return len(self.xs)

    def __getitem__(self, i: int) -> Site:
        if self._sites is not None:
            return self._sites[i]
        if i < 0:
            i += len(self.xs)
        return Site(i, float(self.xs[i]), float(self.ys[i]), float(self.rs[i]))

    def __iter__(self):
        return iter(self.sites)

    def subset(self, ids: Iterable[int]) -> "SiteSet":
        """Sites re-indexed 0..k-1; use the returned mapping to go back."""
        idx = np.asarray(ids if not isinstance(ids, (list, tuple)) else ids,
                         dtype=np.int64)
        return SiteSet._from_arrays(self.xs[idx], self.ys[idx], self.rs[idx])

    def normalized(self) -> "SiteSet":
        """Rescale so every disk lies strictly inside the unit square.

        Uses the bounding square of all disks expanded by 1%, which also
        forces every radius below sqrt(2).  The transform is recorded so
        lengths can be reported in original units.
        """
        if not len(self.xs):
            raise InstanceError("cannot normalize an empty site set")
        x0 = float(np.min(self.xs - self.rs))
        x1 = float(np.max(self.xs + self.rs))
        y0 = float(np.min(self.ys - self.rs))
        y1 = float(np.max(self.ys + self.rs))
        side = max(x1 - x0, y1 - y0)
        scale = side * 1.01
        # center the bounding square inside the unit square
        ox = x0 - (scale - (x1 - x0)) / 2.0
        oy = y0 - (scale - (y1 - y0)) / 2.0
        return SiteSet._from_arrays((self.xs - ox) / scale, (self.ys - oy) / scale,
                                    self.rs / scale,
                                    normalization=Normalization(ox, oy, scale))


# ---------------------------------------------------------------------------
# predicates


def dist(a: Site, b: Site) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)


def disk_edge(a: Site, b: Site) -> bool:
    """True iff |ab| <= r_a + r_b, as a sign test without square roots."""
    dx = a.x - b.x
    dy = a.y - b.y
    rr = a.r + b.r
    return dx * dx + dy * dy <= rr * rr


def disk_edges(S: "SiteSet", a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``disk_edge`` elementwise over id arrays: the same float64 operations
    in the same order, hence the same answers."""
    dx = S.xs[a] - S.xs[b]
    dy = S.ys[a] - S.ys[b]
    rr = S.rs[a] + S.rs[b]
    return dx * dx + dy * dy <= rr * rr


def tx_edge(a: Site, b: Site) -> bool:
    """True iff b lies in the disk of a (directed edge a -> b)."""
    dx = a.x - b.x
    dy = a.y - b.y
    return dx * dx + dy * dy <= a.r * a.r


def tx_edges(S: "SiteSet", a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``tx_edge`` elementwise over id arrays (arcs a -> b): the same
    float64 operations in the same order, hence the same answers."""
    dx = S.xs[a] - S.xs[b]
    dy = S.ys[a] - S.ys[b]
    ra = S.rs[a]
    return dx * dx + dy * dy <= ra * ra


def triangle_perimeter(s: Site, t: Site, u: Site) -> float:
    """Perimeter evaluated in a fixed (sorted-id) order so that every code
    path produces bit-identical sums for the same triangle."""
    a, b, c = sorted((s, t, u), key=lambda q: q.id)
    return dist(a, b) + dist(a, c) + dist(b, c)


def short_triangle(S: "SiteSet", W: float, s: np.ndarray, t: np.ndarray,
                   u: np.ndarray, edges) -> bool:
    """Is some (s_i, t_i, u_i), whose s_i t_i is an edge of the graph that
    ``edges`` tests (``disk_edges``, or ``tx_edges`` with the arc
    s_i -> t_i), a triangle s_i -> t_i -> u_i -> s_i of perimeter at most W?

    The edge tests are exact; the ``np.hypot`` prefilter, padded by one
    part in 10^9, keeps every triple whose canonical perimeter can be <= W,
    and only its survivors are evaluated by ``triangle_perimeter``."""
    keep = (u != s) & (u != t)
    keep[keep] = edges(S, t[keep], u[keep]) & edges(S, u[keep], s[keep])
    s, t, u = s[keep], t[keep], u[keep]
    xs, ys = S.xs, S.ys
    per = (np.hypot(xs[s] - xs[t], ys[s] - ys[t])
           + np.hypot(xs[s] - xs[u], ys[s] - ys[u])
           + np.hypot(xs[t] - xs[u], ys[t] - ys[u]))
    for i in np.flatnonzero(per <= W * (1.0 + 1e-9)).tolist():
        if triangle_perimeter(S[int(s[i])], S[int(t[i])], S[int(u[i])]) <= W:
            return True
    return False


# exact rational versions, used by the test suite as sign oracles.  Every
# float is an integer over a power of two, so scaling all inputs by the
# largest such denominator gives integers with the same signs as the
# rational expressions, without Fraction's per-operation gcd.

def _common_integers(*vals: float) -> list[int]:
    ratios = [v.as_integer_ratio() for v in vals]
    den = max(q for _, q in ratios)
    return [p * (den // q) for p, q in ratios]


def exact_disk_edge(a: Site, b: Site) -> bool:
    ax, bx, ay, by, ar, br = _common_integers(a.x, b.x, a.y, b.y, a.r, b.r)
    dx = ax - bx
    dy = ay - by
    rr = ar + br
    return dx * dx + dy * dy <= rr * rr


def exact_tx_edge(a: Site, b: Site) -> bool:
    ax, bx, ay, by, ar = _common_integers(a.x, b.x, a.y, b.y, a.r)
    dx = ax - bx
    dy = ay - by
    return dx * dx + dy * dy <= ar * ar


# ---------------------------------------------------------------------------
# circle-circle intersection


def circle_circle_points(a: Site, b: Site) -> list[tuple[float, float]]:
    """Intersection points of the two circle boundaries, ordered by (y, x).

    Returns [], one point (tangency) or two points.  Coincident circles
    violate general position and raise InstanceError.
    """
    dx = b.x - a.x
    dy = b.y - a.y
    d2 = dx * dx + dy * dy
    if d2 == 0.0:
        if a.r == b.r:
            raise InstanceError(f"coincident circles {a.id} and {b.id}")
        return []
    sum_r = a.r + b.r
    dif_r = a.r - b.r
    if d2 > sum_r * sum_r or d2 < dif_r * dif_r:
        return []
    d = math.sqrt(d2)
    # distance from a's center to the chord, along the center line
    along = (d2 + a.r * a.r - b.r * b.r) / (2.0 * d)
    h2 = a.r * a.r - along * along
    ux, uy = dx / d, dy / d
    mx, my = a.x + along * ux, a.y + along * uy
    if h2 <= 0.0:
        return [(mx, my)]
    h = math.sqrt(h2)
    p1 = (mx - h * uy, my + h * ux)
    p2 = (mx + h * uy, my - h * ux)
    if (p2[1], p2[0]) < (p1[1], p1[0]):
        return [p2, p1]
    return [p1, p2]


# ---------------------------------------------------------------------------
# instance file I/O
#
# Format: first line n, then n lines "x y r".  Writers emit 17 significant
# digits so round trips are exact.


def write_instance(path, siteset: SiteSet) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{len(siteset)}\n")
        for x, y, r in zip(siteset.xs.tolist(), siteset.ys.tolist(), siteset.rs.tolist()):
            f.write(f"{x:.17g} {y:.17g} {r:.17g}\n")


def read_instance(path) -> SiteSet:
    """Parse errors name the line; invalid sites are refused by the
    ``SiteSet`` check, which names site i (line i + 2)."""
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines:
        raise InstanceError(f"{path}: empty instance file")
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise InstanceError(f"{path}:1: expected site count, got {lines[0]!r}") from None
    if n < 0:
        raise InstanceError(f"{path}:1: negative site count")
    if len(lines) < n + 1:
        raise InstanceError(f"{path}: expected {n} site lines, found {len(lines) - 1}")
    rows = []
    for i in range(n):
        parts = lines[i + 1].split()
        if len(parts) != 3:
            raise InstanceError(f"{path}:{i + 2}: expected 'x y r', got {lines[i + 1]!r}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            raise InstanceError(f"{path}:{i + 2}: non-numeric field in {lines[i + 1]!r}") from None
    a = np.array(rows, dtype=np.float64).reshape(n, 3)
    return SiteSet.from_arrays(a[:, 0], a[:, 1], a[:, 2])
