import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from intxn_pipeline.geo import (
    EARTH_RADIUS_FT,
    FT_PER_DEG,
    GeoPoint,
    PolygonRing,
    angular_difference_deg,
    centroid,
    haversine_distance_ft,
    initial_bearing_deg,
    point_in_polygon,
    points_in_polygon,
    polyline_midpoint,
)

# Closed-form oracles: R * delta_lambda for the equatorial arc and
# R * pi/2 for the quarter great circle, R = 6,371 km at 0.3048 m/ft.
ONE_DEGREE_EQUATOR_FT = 364812.75145852607
QUARTER_CIRCLE_FT = 32833147.631267343


def test_haversine_identity():
    assert haversine_distance_ft(GeoPoint(0, 0), GeoPoint(0, 0)) == 0.0


def test_haversine_equatorial_degree():
    d = haversine_distance_ft(GeoPoint(0, 0), GeoPoint(0, 1))
    assert d == pytest.approx(ONE_DEGREE_EQUATOR_FT, abs=1.0)


def test_haversine_quarter_circle():
    d = haversine_distance_ft(GeoPoint(0, 0), GeoPoint(90, 0))
    assert d == pytest.approx(QUARTER_CIRCLE_FT, abs=5.0)


def _random_point(rng):
    return GeoPoint(rng.uniform(-90, 90), rng.uniform(-180, 180))


def test_haversine_symmetry():
    rng = random.Random(42)
    for _ in range(1000):
        a, b = _random_point(rng), _random_point(rng)
        assert haversine_distance_ft(a, b) == haversine_distance_ft(b, a)
        assert haversine_distance_ft(a, b) >= 0.0


def test_haversine_triangle_inequality():
    rng = random.Random(7)
    for _ in range(500):
        a, b, c = _random_point(rng), _random_point(rng), _random_point(rng)
        assert haversine_distance_ft(a, c) <= (
            haversine_distance_ft(a, b) + haversine_distance_ft(b, c) + 1e-6
        )


def test_bearing_cardinal_directions():
    assert initial_bearing_deg(GeoPoint(0, 0), GeoPoint(1, 0)) == pytest.approx(0.0)
    assert initial_bearing_deg(GeoPoint(0, 0), GeoPoint(0, 1)) == pytest.approx(90.0)
    assert initial_bearing_deg(GeoPoint(10, 20), GeoPoint(9, 20)) == pytest.approx(180.0)


def test_bearing_coincident_points_rejected():
    with pytest.raises(ValueError):
        initial_bearing_deg(GeoPoint(5, 5), GeoPoint(5, 5))


def test_bearing_range():
    rng = random.Random(3)
    for _ in range(500):
        a, b = _random_point(rng), _random_point(rng)
        if (a.lat_deg, a.lon_deg) == (b.lat_deg, b.lon_deg):
            continue
        bearing = initial_bearing_deg(a, b)
        assert 0.0 <= bearing < 360.0


def test_angular_difference_examples():
    assert angular_difference_deg(350, 10) == pytest.approx(20.0)
    assert angular_difference_deg(0, 180) == pytest.approx(180.0)
    assert angular_difference_deg(45, 45) == 0.0


def test_angular_difference_symmetry_and_range():
    rng = random.Random(11)
    for _ in range(500):
        h1, h2 = rng.uniform(0, 360), rng.uniform(0, 360)
        d = angular_difference_deg(h1, h2)
        assert d == angular_difference_deg(h2, h1)
        assert 0.0 <= d <= 180.0


UNIT_SQUARE = PolygonRing(
    (GeoPoint(0, 0), GeoPoint(0, 1), GeoPoint(1, 1), GeoPoint(1, 0))
)


def test_point_in_polygon_center():
    assert point_in_polygon(GeoPoint(0.5, 0.5), UNIT_SQUARE)


def test_point_in_polygon_outside():
    assert not point_in_polygon(GeoPoint(3.0, 0.5), UNIT_SQUARE)


def test_point_in_polygon_boundary_inclusive():
    assert point_in_polygon(GeoPoint(0.0, 0.5), UNIT_SQUARE)  # edge
    assert point_in_polygon(GeoPoint(1.0, 1.0), UNIT_SQUARE)  # vertex


def _winding_inside(pt: GeoPoint, verts) -> bool:
    # Independent winding-number oracle in the lon/lat plane.
    total = 0.0
    n = len(verts)
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        ang1 = math.atan2(a.lat_deg - pt.lat_deg, a.lon_deg - pt.lon_deg)
        ang2 = math.atan2(b.lat_deg - pt.lat_deg, b.lon_deg - pt.lon_deg)
        d = ang2 - ang1
        while d > math.pi:
            d -= 2 * math.pi
        while d < -math.pi:
            d += 2 * math.pi
        total += d
    return abs(total) > math.pi


def _seg_dist_planar(pt, a, b):
    ax, ay = a.lon_deg, a.lat_deg
    bx, by = b.lon_deg, b.lat_deg
    px, py = pt.lon_deg, pt.lat_deg
    dx, dy = bx - ax, by - ay
    denom = dx * dx + dy * dy
    t = 0.0 if denom == 0 else max(0.0, min(1.0, ((px - ax) * dx + (py - ay) * dy) / denom))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def test_point_in_polygon_matches_winding_oracle():
    rng = random.Random(2024)
    checked = 0
    while checked < 500:
        cx, cy = rng.uniform(-50, 50), rng.uniform(-50, 50)
        k = rng.randint(3, 8)
        angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(k))
        radius = rng.uniform(0.5, 2.0)
        verts = tuple(
            GeoPoint(cy + radius * math.sin(a), cx + radius * math.cos(a)) for a in angles
        )
        try:
            ring = PolygonRing(verts)
        except ValueError:
            continue  # nearly-coincident angles can degenerate
        pt = GeoPoint(cy + rng.uniform(-3, 3), cx + rng.uniform(-3, 3))
        near_edge = any(
            _seg_dist_planar(pt, verts[i], verts[(i + 1) % len(verts)]) < 1e-7
            for i in range(len(verts))
        )
        if near_edge:
            continue  # boundary points are ambiguous for the oracle
        assert point_in_polygon(pt, ring) == _winding_inside(pt, verts)
        checked += 1


@st.composite
def rings_and_points(draw):
    """A small simple ring near 41N 96W and points on, next to and around it.

    Radii and angles come from small pools, so horizontal and vertical
    edges, collinear vertices and points exactly on vertices and edges
    occur often. Every such point also appears one ulp off in each axis, and
    at and beyond the on-edge tolerance.
    """
    k = draw(st.integers(3, 7))
    steps = draw(st.lists(st.integers(1, 8), min_size=k, max_size=k))
    angles = np.cumsum(steps) * (2 * math.pi / sum(steps))
    radii = draw(st.lists(st.sampled_from([1e-3, 2e-3, 1.5e-3]), min_size=k, max_size=k))
    verts = tuple(
        GeoPoint(41.0 + round(r * math.sin(a), 6), -96.0 + round(r * math.cos(a), 6))
        for r, a in zip(radii, angles)
    )
    try:
        ring = PolygonRing(verts)
    except ValueError:
        assume(False)
    ts = [(0.5, draw(st.floats(0.0, 1.0))) for _ in verts]
    base = draw(
        st.lists(st.tuples(st.floats(40.997, 41.003), st.floats(-96.003, -95.997)), max_size=10)
    )
    return ring, _around(verts, ts, base)


def _around(verts, ts, base):
    """Each vertex, the points at fractions ``ts[i]`` along edge i, and those
    of ``base``, each also one ulp off in each axis and at and beyond the
    on-edge tolerance."""
    base = list(base)
    for i, a in enumerate(verts):
        b = verts[(i + 1) % len(verts)]
        base.append((a.lat_deg, a.lon_deg))
        for t in ts[i]:
            base.append((a.lat_deg + t * (b.lat_deg - a.lat_deg), a.lon_deg + t * (b.lon_deg - a.lon_deg)))
    points = []
    for lat, lon in base:
        points += [(lat, lon), (lat, lon + 1e-9), (lat - 1e-9, lon), (lat, lon - 2e-9)]
        for way in (-math.inf, math.inf):
            points += [(math.nextafter(lat, way), lon), (lat, math.nextafter(lon, way))]
    return points


# A square at the origin, where 1e-9 offsets are exact: points at exactly the
# on-edge tolerance from an edge, and one ulp beyond it.
EXACT = (
    PolygonRing(
        (GeoPoint(0.0, 0.0), GeoPoint(1e-3, 0.0), GeoPoint(1e-3, 1e-3), GeoPoint(0.0, 1e-3))
    ),
    [(5e-4, -1e-9), (5e-4, math.nextafter(-1e-9, -1.0)), (-1e-9, 5e-4), (5e-4, 1e-3 + 1e-9)],
)


# A degenerate triangle (a, a, b), whose edge a -> a has zero length: its
# on-edge test is the scalar distance rule. Points on the diagonal behind a
# lie inside, at and beyond that distance.
_A, _B = GeoPoint(41.0, -96.0), GeoPoint(41.001, -95.999)
DEGENERATE = (
    PolygonRing((_A, _A, _B)),
    _around(
        (_A, _A, _B),
        [(0.5,), (0.25, 0.5, 1.0), (0.5,)],
        [(41.0 - d, -96.0 - d) for d in (7e-10, 7.07e-10, 7.0710678e-10, 7.1e-10, 1e-9)],
    ),
)


@settings(max_examples=300, deadline=None)
@given(rings_and_points())
@example(EXACT)
@example(DEGENERATE)
def test_points_in_polygon_is_the_scalar_test(case):
    ring, points = case
    lats = np.array([p[0] for p in points])
    lons = np.array([p[1] for p in points])
    expected = [point_in_polygon(GeoPoint(lat, lon), ring) for lat, lon in points]
    assert points_in_polygon(ring, lats, lons).tolist() == expected


def test_centroid_singleton():
    p = GeoPoint(12.5, -33.25)
    assert centroid([p]) == p


def test_centroid_square_center():
    pts = [GeoPoint(0, 0), GeoPoint(0, 2), GeoPoint(2, 2), GeoPoint(2, 0)]
    c = centroid(pts)
    assert c.lat_deg == pytest.approx(1.0, abs=1e-12)
    assert c.lon_deg == pytest.approx(1.0, abs=1e-12)


def test_centroid_matches_mean_oracle():
    rng = random.Random(99)
    pts = [GeoPoint(rng.uniform(40, 41), rng.uniform(-97, -96)) for _ in range(50)]
    c = centroid(pts)
    assert c.lat_deg == pytest.approx(sum(p.lat_deg for p in pts) / 50, abs=1e-12)
    assert c.lon_deg == pytest.approx(sum(p.lon_deg for p in pts) / 50, abs=1e-12)


def test_centroid_empty_rejected():
    with pytest.raises(ValueError):
        centroid([])


def test_geopoint_validates_ranges():
    with pytest.raises(ValueError):
        GeoPoint(95, 0)
    with pytest.raises(ValueError):
        GeoPoint(0, 181)


def test_polygon_ring_validation():
    with pytest.raises(ValueError):
        PolygonRing((GeoPoint(0, 0), GeoPoint(0, 1)))
    with pytest.raises(ValueError):
        PolygonRing((GeoPoint(0, 0), GeoPoint(0, 1), GeoPoint(1, 1), GeoPoint(0, 0)))
    with pytest.raises(ValueError):  # bow-tie
        PolygonRing((GeoPoint(0, 0), GeoPoint(1, 1), GeoPoint(1, 0), GeoPoint(0, 1)))


def test_polyline_midpoint_straight_segment():
    mid = polyline_midpoint([GeoPoint(0, 0), GeoPoint(0, 1)])
    assert mid.lon_deg == pytest.approx(0.5, abs=1e-9)
    assert mid.lat_deg == pytest.approx(0.0, abs=1e-12)


def test_ft_per_deg_constant_consistency():
    # One degree of latitude measured by the haversine itself.
    d = haversine_distance_ft(GeoPoint(40, 0), GeoPoint(41, 0))
    assert d == pytest.approx(FT_PER_DEG, rel=1e-12)
    assert EARTH_RADIUS_FT == pytest.approx(6_371_000.0 / 0.3048)
