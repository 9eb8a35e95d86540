"""Geometric primitives: predicates, circle intersections, R2's lifting, I/O."""

import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from geogirth.generator import GeneratorSpec, generate
from geogirth.range_search import (lifted_planes, lifted_points,
                                   lifted_violations)
from geogirth.sites import (InstanceError, Site, SiteSet, circle_circle_points,
                            disk_edge, dist, exact_disk_edge, exact_tx_edge,
                            read_instance, triangle_perimeter, tx_edge,
                            write_instance)


def S(*triples):
    return SiteSet([Site(i, x, y, r) for i, (x, y, r) in enumerate(triples)])


def test_dist_identity_and_345():
    a = Site(0, 0.0, 0.0, 1.0)
    assert dist(a, a) == 0.0
    assert dist(a, Site(1, 3.0, 4.0, 1.0)) == 5.0


def test_dist_matches_high_precision_oracle():
    rng = random.Random(1)
    for _ in range(2000):
        a = Site(0, rng.uniform(-10, 10), rng.uniform(-10, 10), 1.0)
        b = Site(1, rng.uniform(-10, 10), rng.uniform(-10, 10), 1.0)
        got = dist(a, b)
        exact = (Fraction(a.x) - Fraction(b.x)) ** 2 + (Fraction(a.y) - Fraction(b.y)) ** 2
        ref = math.sqrt(float(exact))
        if ref:
            assert abs(got - ref) / ref <= 2.0 ** -50


def test_disk_edge_trivial():
    assert disk_edge(Site(0, 0, 0, 1.0), Site(1, 1.5, 0, 1.0))
    assert not disk_edge(Site(0, 0, 0, 1.0), Site(1, 3.0, 0, 1.0))


def test_tx_edge_trivial_and_asymmetry():
    a = Site(0, 0, 0, 2.0)
    b = Site(1, 1, 0, 3.0)
    assert tx_edge(a, b)
    assert tx_edge(b, a)
    assert not tx_edge(Site(0, 0, 0, 0.5), b)


def test_edge_predicates_match_rational_oracle():
    # one million samples against exact rational sign evaluation
    rng = random.Random(2)
    n = 1_000_000
    mism_disk = mism_tx = 0
    for _ in range(n):
        a = Site(0, rng.uniform(-4, 4), rng.uniform(-4, 4), rng.uniform(0.01, 3.0))
        b = Site(1, rng.uniform(-4, 4), rng.uniform(-4, 4), rng.uniform(0.01, 3.0))
        if disk_edge(a, b) != exact_disk_edge(a, b):
            mism_disk += 1
        if tx_edge(a, b) != exact_tx_edge(a, b):
            mism_tx += 1
    assert mism_disk == 0
    assert mism_tx == 0


def test_exact_predicates_match_fraction_arithmetic():
    # the sign oracles agree with Fraction evaluation on exact tangencies,
    # near-tangencies and operands whose exponents are far apart
    def frac_disk(a, b):
        dx, dy = Fraction(a.x) - Fraction(b.x), Fraction(a.y) - Fraction(b.y)
        rr = Fraction(a.r) + Fraction(b.r)
        return dx * dx + dy * dy <= rr * rr

    def frac_tx(a, b):
        dx, dy = Fraction(a.x) - Fraction(b.x), Fraction(a.y) - Fraction(b.y)
        return dx * dx + dy * dy <= Fraction(a.r) ** 2

    rng = random.Random(4)
    pairs = [(Site(0, 0.0, 0.0, 3.0), Site(1, 3.0, 4.0, 2.0)),
             (Site(0, 3.0, 4.0, 5.0), Site(1, 0.0, 0.0, 1e-20)),
             (Site(0, 0.0, 0.0, 5e-300), Site(1, 1e-300, -3e-300, 1e-310)),
             (Site(0, -0.0, 0.0, 1.0), Site(1, 1.0, -0.0, 2.0 ** -60))]
    for _ in range(2000):
        a = Site(0, rng.uniform(-4, 4), rng.uniform(-4, 4), rng.uniform(0.01, 3.0))
        ang, rb = rng.uniform(0, 2 * math.pi), rng.uniform(1e-9, 3.0)
        for d in (a.r + rb, a.r):
            pairs.append((a, Site(1, a.x + d * math.cos(ang), a.y + d * math.sin(ang), rb)))
        pairs.append((a, Site(1, a.x * 2.0 ** -40, a.y * 2.0 ** 40, rb)))
    for a, b in pairs:
        for u, v in ((a, b), (b, a)):
            assert exact_disk_edge(u, v) == frac_disk(u, v)
            assert exact_tx_edge(u, v) == frac_tx(u, v)


def test_tx_implies_disk_and_counterexample_exists():
    rng = random.Random(3)
    found_counter = False
    for _ in range(20000):
        a = Site(0, rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0.05, 0.6))
        b = Site(1, rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0.05, 0.6))
        if tx_edge(a, b) and tx_edge(b, a):
            assert disk_edge(a, b)
        if disk_edge(a, b) and not tx_edge(a, b) and not tx_edge(b, a):
            assert dist(a, b) > max(a.r, b.r)
            found_counter = True
    assert found_counter  # disk edge without either transmission arc


def test_circle_points_tangent_and_lens():
    pts = circle_circle_points(Site(0, 0, 0, 1.0), Site(1, 2.0, 0, 1.0))
    assert len(pts) == 1 and pts[0] == (1.0, 0.0)
    pts = circle_circle_points(Site(0, 0, 0, 1.0), Site(1, 1.0, 0, 1.0))
    assert len(pts) == 2
    ys = sorted(p[1] for p in pts)
    assert ys[0] == pytest.approx(-math.sqrt(3) / 2)
    assert ys[1] == pytest.approx(math.sqrt(3) / 2)
    assert all(p[0] == pytest.approx(0.5) for p in pts)


def test_circle_points_residuals():
    rng = random.Random(4)
    for _ in range(2000):
        a = Site(0, rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0.1, 0.8))
        b = Site(1, rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0.1, 0.8))
        for (px, py) in circle_circle_points(a, b):
            ra = (px - a.x) ** 2 + (py - a.y) ** 2 - a.r * a.r
            rb = (px - b.x) ** 2 + (py - b.y) ** 2 - b.r * b.r
            assert abs(ra) <= 1e-12 and abs(rb) <= 1e-12


def test_circle_points_coincident_rejected():
    with pytest.raises(InstanceError):
        circle_circle_points(Site(0, 0.25, 0.5, 1.0), Site(1, 0.25, 0.5, 1.0))


def _lifted_inside(disks: SiteSet, points: SiteSet) -> np.ndarray:
    """Per i, whether lifted point i violates disk i's lifted halfspace:
    ``solve_R2``'s violation test, one disk and one point at a time."""
    planes = lifted_planes(disks)
    pts = lifted_points(points, np.arange(len(points)))
    out = np.empty(len(points), dtype=bool)
    for a in range(0, len(points), 512):
        out[a:a + 512] = np.diagonal(lifted_violations(pts[a:a + 512], planes[a:a + 512]))
    return out


def test_lift_trivial_cases():
    disk = S((0.0, 0.0, 1.0))
    assert lifted_planes(disk).tolist() == [[0.0, 0.0, 1.0]]
    # center inside, (2, 0) outside
    pts = S((0.0, 0.0, 1.0), (2.0, 0.0, 1.0))
    assert lifted_violations(lifted_points(pts, np.arange(2)),
                             lifted_planes(disk)).tolist() == [[True], [False]]


def test_lift_equivalence_with_point_in_disk():
    rng = random.Random(5)
    disks, points, inside = [], [], []
    for i in range(100_000):
        s = Site(i, rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0.05, 0.9))
        px, py = rng.uniform(-0.5, 1.5), rng.uniform(-0.5, 1.5)
        disks.append(s)
        points.append(Site(i, px, py, 1.0))
        inside.append((px - s.x) ** 2 + (py - s.y) ** 2 < s.r * s.r)
    assert _lifted_inside(SiteSet(disks), SiteSet(points)).tolist() == inside


def test_normalization_unit_square_and_edge_preservation():
    rng = random.Random(6)
    for _ in range(50):
        n = rng.randint(1, 40)
        ss = SiteSet([Site(i, rng.uniform(-100, 100), rng.uniform(-50, 150),
                           rng.uniform(0.01, 30)) for i in range(n)])
        norm = ss.normalized()
        assert (norm.xs > 0).all() and (norm.xs < 1).all()
        assert (norm.ys > 0).all() and (norm.ys < 1).all()
        assert (norm.xs - norm.rs > 0).all() and (norm.xs + norm.rs < 1).all()
        assert (norm.rs <= math.sqrt(2)).all()
        for i in range(n):
            for j in range(i + 1, n):
                assert disk_edge(ss[i], ss[j]) == disk_edge(norm[i], norm[j])


def test_site_validation():
    with pytest.raises(InstanceError):
        SiteSet([Site(0, 0, 0, 0.0)])
    with pytest.raises(InstanceError):
        SiteSet([Site(0, 0, 0, 1.0), Site(1, 0, 0, 2.0)])  # coincident centers
    with pytest.raises(InstanceError):
        SiteSet([Site(1, 0, 0, 1.0)])  # ids must start at 0


def test_generate_refuses_invalid_radii():
    # a power law this close to gamma = 1 overflows to infinite radii,
    # which the site check that generate shares refuses by id
    spec = GeneratorSpec(n=50, radius_law="power", gamma=1.0 + 1e-7, seed=3)
    with np.errstate(over="ignore"), pytest.raises(InstanceError, match="radius"):
        generate(spec)


def test_instance_roundtrip(tmp_path):
    rng = random.Random(7)
    ss = SiteSet([Site(i, rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0.01, 2))
                  for i in range(37)])
    p = tmp_path / "inst.txt"
    write_instance(p, ss)
    back = read_instance(p)
    assert all(a == b for a, b in zip(ss, back))
    # byte-identical second write
    p2 = tmp_path / "inst2.txt"
    write_instance(p2, back)
    assert p.read_bytes() == p2.read_bytes()


def test_instance_parse_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("2\n0 0 1\n0.5 bad 1\n")
    with pytest.raises(InstanceError, match=":3"):
        read_instance(p)
    p.write_text("1\n0 0 -1\n")
    with pytest.raises(InstanceError, match="radius"):
        read_instance(p)
    p.write_text("3\n0 0 1\n")
    with pytest.raises(InstanceError):
        read_instance(p)


def test_triangle_perimeter_order_invariance():
    a, b, c = Site(0, 0, 0, 1), Site(1, 1.5, 0, 1), Site(2, 0.75, 1, 1)
    vals = {triangle_perimeter(*perm) for perm in
            ((a, b, c), (b, c, a), (c, a, b), (c, b, a))}
    assert len(vals) == 1
    assert vals.pop() == pytest.approx(4.0)


# each case: sites as (x, y, r) rows, and the site ids the error must name
NAN, INF = math.nan, math.inf
INVALID_SITES = {
    "nan x": ([(0, 0, 1), (NAN, 0, 1)], [1]),
    "nan y": ([(0, 0, 1), (1, 0, 1), (2, NAN, 1)], [2]),
    "+inf x": ([(INF, 0, 1), (1, 0, 1)], [0]),
    "-inf y": ([(0, 0, 1), (1, -INF, 1)], [1]),
    "zero radius": ([(0, 0, 1), (1, 0, 0.0)], [1]),
    "negative radius": ([(0, 0, -1), (1, 0, 1)], [0]),
    "nan radius": ([(0, 0, 1), (1, 0, 1), (2, 0, NAN)], [2]),
    "inf radius": ([(0, 0, 1), (1, 0, INF)], [1]),
    "coincident centres": ([(0, 0, 1), (3, 4, 1), (1, 1, 2), (3, 4, 5)], [1, 3]),
}


def _assert_names(err, ids):
    msg = str(err.value)
    assert [int(k) for k in re.findall(r"\d+", msg.split("(got")[0])] == ids, msg


@pytest.mark.parametrize("case", sorted(INVALID_SITES))
def test_site_check_names_the_offending_sites(case, tmp_path):
    rows, ids = INVALID_SITES[case]
    with pytest.raises(InstanceError) as err:
        SiteSet([Site(i, x, y, r) for i, (x, y, r) in enumerate(rows)])
    _assert_names(err, ids)
    xs, ys, rs = (np.array(c, dtype=np.float64) for c in zip(*rows))
    with pytest.raises(InstanceError) as err:
        SiteSet.from_arrays(xs, ys, rs)
    _assert_names(err, ids)
    p = tmp_path / "inst.txt"
    p.write_text(f"{len(rows)}\n" + "".join(f"{x!r} {y!r} {r!r}\n" for x, y, r in rows))
    with pytest.raises(InstanceError) as err:
        read_instance(p)
    _assert_names(err, ids)


def test_site_ids_must_be_contiguous():
    for ids, bad in (([1], 0), ([0, 2], 1), ([0, 1, 1], 2), ([1, 0], 0)):
        with pytest.raises(InstanceError, match=f"at {bad}"):
            SiteSet([Site(i, float(k), 0.0, 1.0) for k, i in enumerate(ids)])


def test_from_arrays_equals_site_constructor():
    rng = random.Random(8)
    rows = [(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0.01, 2)) for _ in range(50)]
    a = SiteSet([Site(i, *row) for i, row in enumerate(rows)])
    b = SiteSet.from_arrays(*(np.array(c) for c in zip(*rows)))
    for u in (a, b):
        assert u.xs.dtype == u.ys.dtype == u.rs.dtype == np.float64
    assert tuple(a) == tuple(b) == tuple(Site(i, *row) for i, row in enumerate(rows))
    assert len(SiteSet([])) == len(SiteSet.from_arrays([], [], [])) == 0
