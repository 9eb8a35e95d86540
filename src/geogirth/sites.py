"""Sites, disks, geometric predicates and the paraboloid lifting map.

Everything downstream works on a ``SiteSet``: a list of sites (center plus
positive radius) with dense ids 0..n-1.  All decisive predicates are sign
tests on polynomials of the inputs evaluated in float64; the test suite
cross-checks them against exact rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

SQRT2 = math.sqrt(2.0)


class Site(NamedTuple):
    id: int
    x: float
    y: float
    r: float


class LiftedHalfspace(NamedTuple):
    """Upper halfspace z >= a*x + b*y + c encoding one disk."""

    a: float
    b: float
    c: float


class LiftedPoint(NamedTuple):
    """Point on the paraboloid z = x^2 + y^2."""

    x: float
    y: float
    z: float


@dataclass(frozen=True)
class ToleranceConfig:
    """Comparison policy for the floating path.

    eps_dist is the relative tolerance used when comparing distances or
    cycle lengths against an oracle; predicates themselves are exact sign
    evaluations when eps_dist == 0.  Ties are always broken by smaller id.
    """

    eps_dist: float = 0.0

    def __post_init__(self):
        if self.eps_dist < 0:
            raise ValueError("eps_dist must be >= 0")

    def close(self, a: float, b: float) -> bool:
        if a == b:
            return True
        scale = max(abs(a), abs(b), 1e-300)
        return abs(a - b) <= max(self.eps_dist, 1e-9) * scale


DEFAULT_TOLERANCE = ToleranceConfig()


class InstanceError(ValueError):
    """Raised for malformed or degenerate instance input."""


class InvariantViolation(AssertionError):
    """A structural constant guaranteed by the geometry failed at runtime."""


@dataclass(frozen=True)
class Normalization:
    """Invertible similarity p -> (p - offset) / scale applied to a SiteSet."""

    offset_x: float
    offset_y: float
    scale: float

    def to_original(self, length: float) -> float:
        return length * self.scale


class SiteSet:
    """An immutable collection of sites with vectorized coordinate access.

    Site tuples are materialized lazily; hot paths index the coordinate
    arrays directly.
    """

    __slots__ = ("xs", "ys", "rs", "normalization", "_sites")

    def __init__(self, sites: Sequence[Site], normalization: Optional[Normalization] = None,
                 validate: bool = True):
        self._sites = tuple(sites)
        self.xs = np.array([s.x for s in self._sites], dtype=np.float64)
        self.ys = np.array([s.y for s in self._sites], dtype=np.float64)
        self.rs = np.array([s.r for s in self._sites], dtype=np.float64)
        self.normalization = normalization
        if validate:
            self._validate()

    @classmethod
    def _from_arrays(cls, xs, ys, rs, normalization=None) -> "SiteSet":
        obj = cls.__new__(cls)
        obj.xs = np.ascontiguousarray(xs, dtype=np.float64)
        obj.ys = np.ascontiguousarray(ys, dtype=np.float64)
        obj.rs = np.ascontiguousarray(rs, dtype=np.float64)
        obj.normalization = normalization
        obj._sites = None
        return obj

    @property
    def sites(self) -> tuple:
        if self._sites is None:
            self._sites = tuple(Site(i, x, y, r) for i, (x, y, r) in enumerate(
                zip(self.xs.tolist(), self.ys.tolist(), self.rs.tolist())))
        return self._sites

    def _validate(self):
        for i, s in enumerate(self._sites):
            if s.id != i:
                raise InstanceError(f"site ids must be the contiguous range 0..n-1 (got {s.id} at {i})")
            if not (s.r > 0) or not math.isfinite(s.r):
                raise InstanceError(f"site {i}: radius must be positive and finite (got {s.r!r})")
            if not (math.isfinite(s.x) and math.isfinite(s.y)):
                raise InstanceError(f"site {i}: non-finite coordinates")
        if len(self._sites) > 1:
            order = np.lexsort((self.ys, self.xs))
            sx, sy = self.xs[order], self.ys[order]
            dup = (sx[1:] == sx[:-1]) & (sy[1:] == sy[:-1])
            if dup.any():
                k = int(np.argmax(dup))
                raise InstanceError(
                    f"coincident sites {order[k]} and {order[k + 1]} violate general position")

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


def contains_disk(a: Site, b: Site) -> bool:
    """True iff D_b is contained in D_a (no boundary crossing)."""
    dx = a.x - b.x
    dy = a.y - b.y
    dr = a.r - b.r
    if dr < 0:
        return False
    return dx * dx + dy * dy <= dr * dr


def triangle_perimeter(s: Site, t: Site, u: Site) -> float:
    """Perimeter evaluated in a fixed (sorted-id) order so that every code
    path produces bit-identical sums for the same triangle."""
    a, b, c = sorted((s, t, u), key=lambda q: q.id)
    return dist(a, b) + dist(a, c) + dist(b, c)


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
# lifting


def lift_site(s: Site) -> LiftedHalfspace:
    """Halfspace z >= 2*x_s*x + 2*y_s*y + (r^2 - x_s^2 - y_s^2).

    A lifted point violates the halfspace exactly when the planar point lies
    inside D_s.
    """
    return LiftedHalfspace(2.0 * s.x, 2.0 * s.y, s.r * s.r - s.x * s.x - s.y * s.y)


def lift_point(x: float, y: float) -> LiftedPoint:
    return LiftedPoint(x, y, x * x + y * y)


def lifted_violates(p: LiftedPoint, h: LiftedHalfspace) -> bool:
    """z < a*x + b*y + c, i.e. the planar point is inside the disk."""
    return p.z < h.a * p.x + h.b * p.y + h.c


# ---------------------------------------------------------------------------
# instance file I/O
#
# Format: first line n, then n lines "x y r".  Writers emit 17 significant
# digits so round trips are exact.


def write_instance(path, siteset: SiteSet) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{len(siteset)}\n")
        for s in siteset:
            f.write(f"{s.x:.17g} {s.y:.17g} {s.r:.17g}\n")


def read_instance(path) -> SiteSet:
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
    sites = []
    for i in range(n):
        parts = lines[i + 1].split()
        if len(parts) != 3:
            raise InstanceError(f"{path}:{i + 2}: expected 'x y r', got {lines[i + 1]!r}")
        try:
            x, y, r = (float(p) for p in parts)
        except ValueError:
            raise InstanceError(f"{path}:{i + 2}: non-numeric field in {lines[i + 1]!r}") from None
        if not r > 0:
            raise InstanceError(f"{path}:{i + 2}: radius must be positive (got {r!r})")
        sites.append(Site(i, x, y, r))
    return SiteSet(sites)
