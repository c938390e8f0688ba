import functools
import itertools
import math
import operator
import random
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    PolygonRing,
    cell_block,
    cells_overlapping,
    centroid,
    check_ring,
    haversine_distance_ft,
    numpy_haversine_ft,
    point_in_polygon,
    point_to_segment_ft,
    polyline_midpoint,
    ring_table,
)

from intxn_pipeline import geo
from intxn_pipeline.geo import (
    EARTH_RADIUS_FT,
    FT_PER_DEG,
    HAVERSINE_ESTIMATE_ABS_FT,
    HAVERSINE_ESTIMATE_REL,
    ON_EDGE_TOL_DEG,
    RING_FAULTS,
    CellGrid,
    GeoPoint,
    RingTable,
    angular_difference_deg,
    centroids,
    edge_distances_ft,
    haversine_distances_ft,
    haversine_estimates_ft,
    in_box,
    initial_bearing_deg,
    nearest_distances_ft,
    points_in_polygon,
    polyline_midpoints,
    ring_faults,
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
    assert initial_bearing_deg(0.0, 0.0, 1.0, 0.0) == pytest.approx(0.0)
    assert initial_bearing_deg(0.0, 0.0, 0.0, 1.0) == pytest.approx(90.0)
    assert initial_bearing_deg(10.0, 20.0, 9.0, 20.0) == pytest.approx(180.0)


def test_bearing_coincident_points_rejected():
    with pytest.raises(ValueError):
        initial_bearing_deg(5.0, 5.0, 5.0, 5.0)


def test_bearing_range():
    rng = random.Random(3)
    for _ in range(500):
        a, b = _random_point(rng), _random_point(rng)
        if (a.lat_deg, a.lon_deg) == (b.lat_deg, b.lon_deg):
            continue
        bearing = initial_bearing_deg(a.lat_deg, a.lon_deg, b.lat_deg, b.lon_deg)
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
@given(st.lists(rings_and_points(), min_size=1, max_size=4), st.randoms())
@example([EXACT], random.Random(0))
@example([DEGENERATE], random.Random(0))
@example([EXACT, DEGENERATE, EXACT], random.Random(1))
def test_points_in_polygon_is_the_scalar_test(cases, rng):
    # One table holds every ring; each ring's points pair with it and with
    # the next ring, in a shuffled order.
    rings = [ring for ring, _ in cases]
    pairs = [
        (r, point)
        for i, (_, points) in enumerate(cases)
        for r in sorted({i, (i + 1) % len(cases)})
        for point in points
    ]
    rng.shuffle(pairs)
    which = np.array([r for r, _ in pairs])
    lats = np.array([lat for _, (lat, _) in pairs])
    lons = np.array([lon for _, (_, lon) in pairs])
    expected = [point_in_polygon(GeoPoint(lat, lon), rings[r]) for r, (lat, lon) in pairs]
    table = ring_table(rings)
    assert points_in_polygon(table, which, lats, lons).tolist() == expected
    with patch.object(geo, "POLYGON_TEST_BLOCK", 7):  # blocks split the pairs
        assert points_in_polygon(table, which, lats, lons).tolist() == expected
    assert points_in_polygon(table, which[:0], lats[:0], lons[:0]).tolist() == []
    assert table.bounds.T.tolist() == [list(ring.bounds(ON_EDGE_TOL_DEG)) for ring in rings]
    assert table.length.tolist() == [d for ring in rings for d in ring.edge_lengths()]


def _centroid(points):
    """``centroids`` of one run of ``points``."""
    lat, lon = centroids(*_columns([points]))
    return GeoPoint(float(lat[0]), float(lon[0]))


def test_centroid_singleton():
    p = GeoPoint(12.5, -33.25)
    assert _centroid([p]) == p


def test_centroid_square_center():
    pts = [GeoPoint(0, 0), GeoPoint(0, 2), GeoPoint(2, 2), GeoPoint(2, 0)]
    c = _centroid(pts)
    assert c.lat_deg == pytest.approx(1.0, abs=1e-12)
    assert c.lon_deg == pytest.approx(1.0, abs=1e-12)


def test_centroid_matches_mean_oracle():
    rng = random.Random(99)
    pts = [GeoPoint(rng.uniform(40, 41), rng.uniform(-97, -96)) for _ in range(50)]
    c = _centroid(pts)
    assert c.lat_deg == pytest.approx(math.fsum(p.lat_deg for p in pts) / 50, abs=1e-12)
    assert c.lon_deg == pytest.approx(math.fsum(p.lon_deg for p in pts) / 50, abs=1e-12)


def test_geopoint_validates_ranges():
    with pytest.raises(ValueError):
        GeoPoint(95, 0)
    with pytest.raises(ValueError):
        GeoPoint(0, 181)


@pytest.mark.parametrize("lat, lon", [(True, 0), (0, False), (False, 0.0)])
def test_geopoint_rejects_bool_coordinates(lat, lon):
    with pytest.raises(ValueError, match="bool"):
        GeoPoint(lat, lon)


def _ring_fault(lats, lons):
    """``ring_faults`` of one ring, as the text of its fault or None."""
    return RING_FAULTS[ring_faults(np.array(lats), np.array(lons), [0, len(lats)])[0]]


def _scalar_fault(lats, lons):
    """The scalar check's text for one ring, or None."""
    try:
        check_ring(lats, lons)
    except ValueError as exc:
        return str(exc)
    return None


def test_polygon_ring_validation():
    assert "at least 3 vertices" in _ring_fault([0.0, 0.0], [0.0, 1.0])
    repeated = _ring_fault([0.0, 0.0, 1.0, 0.0], [0.0, 1.0, 1.0, 0.0])
    assert "must not repeat its first vertex" in repeated
    assert "self-intersecting" in _ring_fault([0.0, 1.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0])  # bow-tie
    assert _ring_fault([0.0, 0.0, 1.0, 1.0], [0.0, 1.0, 1.0, 0.0]) is None


# Rings of up to 7 vertices on a 4x4 integer lattice, where bow-ties,
# collinear overlaps, touching vertices, a repeated first vertex and
# zero-length edges are common.
_lattice_rings = st.lists(
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=7), max_size=8
)


@settings(max_examples=400, deadline=None)
@given(_lattice_rings)
@example([[(0, 0), (1, 1), (0, 1), (1, 0)], [], [(0, 0), (1, 1), (1, 1)], [(0, 0), (2, 0), (1, 0)]])
@example([[(0, 1), (0, 0), (0, 2), (1, 1)]])  # vertex 0 on edge 1: only edge 3's end meets it
def test_ring_faults_are_the_scalar_check(rings):
    lats = [float(lat) for ring in rings for lat, _ in ring]
    lons = [float(lon) for ring in rings for _, lon in ring]
    first = np.cumsum([0, *map(len, rings)])
    expected = [_scalar_fault(lats[a:b], lons[a:b]) for a, b in zip(first, first[1:])]
    faults = ring_faults(np.array(lats), np.array(lons), first)
    assert [RING_FAULTS[fault] for fault in faults] == expected


def test_ring_faults_of_a_ring_spanning_several_blocks():
    # A regular 300-gon meets 44,550 pairs of edges; then one late vertex
    # moves past the next two, so edge 290 crosses edge 292.
    n = 300
    assert n * (n - 3) // 2 > 2 * geo.PAIR_BLOCK
    turns = [k / n for k in range(n)]
    turns[290] = 292.5 / n
    simple = [41.0 + 1e-3 * math.cos(2 * math.pi * k / n) for k in range(n)]
    lats = simple + [41.0 + 1e-3 * math.cos(2 * math.pi * t) for t in turns]
    lons = [-96.0 + 1e-3 * math.sin(2 * math.pi * k / n) for k in range(n)]
    lons += [-96.0 + 1e-3 * math.sin(2 * math.pi * t) for t in turns]
    assert _scalar_fault(lats[:n], lons[:n]) is None
    assert _scalar_fault(lats[n:], lons[n:]) == RING_FAULTS[3]
    assert ring_faults(np.array(lats), np.array(lons), [0, n, 2 * n]).tolist() == [0, 3]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=7),
             min_size=1, max_size=6),
    st.lists(st.tuples(st.integers(0, 5), st.floats(-1.0, 4.0), st.floats(-1.0, 4.0)), max_size=12),
    st.sampled_from([0.0, 41.0, -60.0]),
)
def test_edge_distances_are_the_scalar_distances(rings, points, lat0):
    # Lattice steps of 1e-4 degrees (~36 ft); repeated vertices give
    # zero-length edges, and a one-vertex ring is one.
    def at(lat, lon):
        return GeoPoint(lat0 + 1e-4 * lat, -96.0 + 1e-4 * lon)

    verts = [[at(*v) for v in ring] for ring in rings]
    pairs = [(k % len(rings), at(lat, lon)) for k, lat, lon in points]
    table = RingTable(*_columns(verts))
    which = np.array([r for r, _ in pairs], dtype=np.int64)
    lats, lons = (np.array([getattr(p, c) for _, p in pairs]) for c in ("lat_deg", "lon_deg"))
    expected = [
        min(point_to_segment_ft(p, a, b) for a, b in zip(verts[r], verts[r][1:] + verts[r][:1]))
        for r, p in pairs
    ]
    assert edge_distances_ft(table, which, lats, lons).tolist() == expected


def test_polyline_midpoint_straight_segment():
    lat, lon = polyline_midpoints(np.array([0.0, 0.0]), np.array([0.0, 1.0]), np.array([0, 2]))
    assert lon[0] == pytest.approx(0.5, abs=1e-9)
    assert lat[0] == pytest.approx(0.0, abs=1e-12)


# Vertices of short polylines and rings near one base point, often repeated
# (zero-length segments, whole lines of one point) or at a far lattice step.
_VERTEX_STEPS = st.sampled_from([0.0, 0.0, 1e-9, 2.0**-20, 1e-4, 3e-3, -7e-4])


@st.composite
def polylines(draw, min_size):
    base = (draw(st.floats(-89.0, 89.0)), draw(st.floats(-179.0, 179.0)))
    lines = draw(
        st.lists(
            st.lists(st.tuples(_VERTEX_STEPS, _VERTEX_STEPS), min_size=min_size, max_size=6),
            min_size=1, max_size=5,
        )
    )
    return [[GeoPoint(base[0] + a, base[1] + b) for a, b in line] for line in lines]


def _columns(lines):
    lat = np.array([p.lat_deg for line in lines for p in line])
    lon = np.array([p.lon_deg for line in lines for p in line])
    return lat, lon, np.cumsum([0] + [len(line) for line in lines])


@settings(max_examples=300, deadline=None)
@given(polylines(min_size=2))
def test_polyline_midpoints_are_the_scalar_walk(lines):
    lat, lon = polyline_midpoints(*_columns(lines))
    assert list(zip(lat.tolist(), lon.tolist())) == [
        (m.lat_deg, m.lon_deg) for m in map(polyline_midpoint, lines)
    ]


@settings(max_examples=200, deadline=None)
@given(polylines(min_size=1))
def test_centroids_are_the_scalar_sums(rings):
    lat, lon = centroids(*_columns(rings))
    assert list(zip(lat.tolist(), lon.tolist())) == [
        (c.lat_deg, c.lon_deg) for c in map(centroid, rings)
    ]


def _left_to_right(run):
    """Each prefix sum of ``run`` and its total, added left to right from 0.0."""
    prefixes = list(itertools.accumulate(run, operator.add, initial=0.0))
    return prefixes[:-1], functools.reduce(operator.add, run, 0.0)


def _run_shape(kind, rnd):
    """Run lengths: one run of 1,000 to 3,000 values beside many short ones,
    all of one length, or lengths skewed toward the short end."""
    if kind == "long":
        return [rnd.randint(1000, 3000)] + [rnd.randint(1, 14) for _ in range(rnd.randint(0, 300))]
    if kind == "equal":
        return [rnd.randint(1, 8)] * rnd.randint(1, 500)
    return [rnd.randint(0, 60) ** 2 // 60 + 1 for _ in range(rnd.randint(1, 200))]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["long", "equal", "skewed"]),
    st.integers(0, 2**32),
    st.sampled_from([None, 5, 64, 4096]),
)
def test_run_sums_add_left_to_right_from_zero(kind, seed, block):
    rnd = random.Random(seed)  # drawn here: the runs are too long for hypothesis to draw
    counts = _run_shape(kind, rnd)
    # Latitudes near 41.25, where sums of one run differ in their last bits
    # with the order or the method of adding; now and then a -0.0 run.
    rnd.shuffle(counts)
    values = [41.25 + rnd.uniform(-1e-3, 1e-3) for _ in range(sum(counts))]
    first = np.cumsum([0, *counts])
    if rnd.random() < 0.2:
        values[: counts[0]] = [-0.0] * counts[0]
    lat = np.array(values)
    with patch.object(geo, "RUN_SUM_BLOCK", block or geo.RUN_SUM_BLOCK):  # blocks split the runs
        before, total = geo._run_sums(lat, first)
        lats, lons = centroids(lat, lat[::-1].copy(), first)
    runs = [values[a:b] for a, b in zip(first.tolist(), first[1:].tolist())]
    expected = [_left_to_right(run) for run in runs]
    # Compared as bytes, so that -0.0 and 0.0 differ.
    assert before.tobytes() == np.array([x for xs, _ in expected for x in xs]).tobytes()
    assert total.tobytes() == np.array([t for _, t in expected]).tobytes()
    assert lats.tobytes() == np.array([t / len(run) for (_, t), run in zip(expected, runs)]).tobytes()
    reversed_runs = [values[::-1][a:b] for a, b in zip(first.tolist(), first[1:].tolist())]
    means = [_left_to_right(run)[1] / len(run) for run in reversed_runs]
    assert lons.tobytes() == np.array(means).tobytes()


# ---------------------------------------------------------------------------
# CellGrid against brute force. Every batched lookup goes through the
# per-row runs that ``oracles.cell_block`` and ``oracles.cells_overlapping``
# take one query at a time.


@st.composite
def binned_points(draw):
    lat0 = draw(st.sampled_from([0.0, 41.25, -63.0, 89.9, -89.9, 89.0]))
    lon0 = draw(st.sampled_from([-96.0, 0.0, 179.99, -179.99]))
    cell_ft = draw(st.sampled_from([50.0, 300.0, 1000.0]))
    spread = draw(st.sampled_from([1e-4, 2e-3, 1e-2]))
    n = draw(st.integers(0, 60))
    rnd = draw(st.randoms(use_true_random=False))
    lats = [min(89.9, max(-89.9, lat0 + rnd.uniform(-spread, spread))) for _ in range(n)]
    lons = [min(180.0, max(-180.0, lon0 + rnd.uniform(-spread, spread) * 20)) for _ in range(n)]
    return lats, lons, cell_ft, rnd


@settings(max_examples=200, deadline=None)
@given(binned_points(), st.lists(st.floats(-89.9, 89.9), max_size=3))
def test_cell_grid_block_holds_every_point_within_cell_ft(points, cover):
    lats, lons, cell_ft, rnd = points
    grid = CellGrid(lats, lons, cell_ft, cover_lats=cover)
    binned = list(map(GeoPoint, lats, lons))
    # Queries at a binned or covered latitude, near the points or anywhere;
    # a pair whose short way crosses the ±180° seam is not joined (below).
    for lat in lats[:8] + cover:
        for lon in lons[:4] + [rnd.uniform(-180.0, 180.0)]:
            query = GeoPoint(lat, lon)
            within = [
                i for i, p in enumerate(binned)
                if haversine_distance_ft(query, p) <= cell_ft and abs(p.lon_deg - lon) <= 180.0
            ]
            assert set(within) <= set(cell_block(grid, lat, lon).tolist())


@settings(max_examples=200, deadline=None)
@given(binned_points(), st.data())
def test_cell_grid_overlapping_holds_every_point_inside_the_box(points, data):
    lats, lons, cell_ft, rnd = points
    grid = CellGrid(lats, lons, cell_ft)
    lat_arr, lon_arr = np.array(lats), np.array(lons)
    for _ in range(6):
        s, n = sorted(rnd.uniform(-90.0, 90.0) if rnd.random() < 0.2 else rnd.choice(lats or [0.0]) +
                      rnd.uniform(-1e-3, 1e-3) for _ in range(2))
        w, e = sorted(rnd.choice(lons or [0.0]) + rnd.uniform(-2e-2, 2e-2) for _ in range(2))
        box = (s, w, n, e)
        inside = np.flatnonzero(in_box(box, lat_arr, lon_arr)).tolist()
        assert set(inside) <= set(cells_overlapping(grid, box).tolist())


def test_cell_grid_does_not_join_the_antimeridian():
    # Two points 2 ft apart across the ±180° seam: neither grid lookup
    # joins them, as the CellGrid docstring says.
    east, west = 180.0 - 2.5e-6, -180.0 + 2.5e-6
    assert haversine_distance_ft(GeoPoint(0.0, east), GeoPoint(0.0, west)) < 2.0
    grid = CellGrid([0.0, 0.0], [east, west], 100.0)
    assert cell_block(grid, 0.0, east).tolist() == [0]
    assert cell_block(grid, 0.0, west).tolist() == [1]
    assert cells_overlapping(grid, (-1e-3, east - 1e-3, 1e-3, 180.0)).tolist() == [0]
    assert cells_overlapping(grid, (-1e-3, -180.0, 1e-3, west + 1e-3)).tolist() == [1]


@settings(max_examples=100, deadline=None)
@given(binned_points(), st.sampled_from([1, 3, 64]))
def test_cell_grid_batched_lookups_are_the_single_ones(points, block):
    lats, lons, cell_ft, rnd = points
    grid = CellGrid(lats, lons, cell_ft)
    q_lats = [rnd.choice(lats or [0.0]) + rnd.uniform(-1e-3, 1e-3) for _ in range(20)]
    q_lons = [rnd.choice(lons or [0.0]) + rnd.uniform(-1e-2, 1e-2) for _ in range(20)]
    boxes = np.array([q_lats, q_lons, np.add(q_lats, 2e-3), np.add(q_lons, 3e-3)])
    with patch.object(geo, "PAIR_BLOCK", block):  # many blocks of pairs
        near = geo.joined(grid.block_pairs(np.array(q_lats), np.array(q_lons)))
        over = geo.joined(grid.overlap_pairs(boxes))
    for (query, point), single in (
        (near, [cell_block(grid, a, b) for a, b in zip(q_lats, q_lons)]),
        (over, [cells_overlapping(grid, tuple(box)) for box in boxes.T.tolist()]),
    ):
        assert (np.diff(query) >= 0).all()
        got = [sorted(point[query == q].tolist()) for q in range(20)]
        assert got == [s.tolist() for s in single]


# ---------------------------------------------------------------------------
# The numpy distance estimate and the filter built on it


def _pairs_near_and_far(rng, n):
    lat1 = rng.uniform(-90.0, 90.0, n)
    lon1 = rng.uniform(-180.0, 180.0, n)
    kind = rng.integers(0, 4, n)
    step = np.where(kind == 0, 1e-5, np.where(kind == 1, 1e-2, 10.0))
    lat2 = np.clip(lat1 + rng.normal(0.0, 1.0, n) * step, -90.0, 90.0)
    lon2 = np.clip(lon1 + rng.normal(0.0, 1.0, n) * step, -180.0, 180.0)
    # Near-antipodal pairs, where h is about 1, and pairs far apart.
    anti = kind == 3
    lat2[anti] = np.clip(-lat1[anti] + rng.normal(0.0, 1e-3, anti.sum()), -90.0, 90.0)
    lon2[anti] = lon1[anti] - np.sign(lon1[anti]) * 180.0 + rng.normal(0.0, 1e-3, anti.sum())
    lon2 = np.clip(lon2, -180.0, 180.0)
    return lat1, lon1, lat2, lon2


def test_haversine_estimate_is_within_its_bound():
    rng = np.random.default_rng(7)
    lat1, lon1, lat2, lon2 = _pairs_near_and_far(rng, 40_000)
    # And the poles, the equator and coincident points.
    extra = np.array(
        [[90.0, 0.0, 89.9999, 170.0], [-90.0, 0.0, -90.0, 90.0], [0.0, 0.0, 0.0, 0.0],
         [0.0, -180.0, 0.0, 180.0], [1e-300, 0.0, 0.0, 0.0], [45.0, 10.0, -45.0, -170.0]]
    ).T
    lat1, lon1, lat2, lon2 = (np.concatenate([a, b]) for a, b in zip((lat1, lon1, lat2, lon2), extra))
    exact = haversine_distances_ft(lat1, lon1, lat2, lon2)
    est = haversine_estimates_ft(lat1, lon1, lat2, lon2)
    known = ~np.isnan(est)
    assert (np.abs(est - exact)[known] <= HAVERSINE_ESTIMATE_REL * exact[known] + HAVERSINE_ESTIMATE_ABS_FT).all()
    # No estimate past sqrt(h) = 0.9 (a central angle of 2 asin(0.9)), and
    # one for every pair well inside it.
    angle = exact / EARTH_RADIUS_FT
    assert known[angle < 2.0 * math.asin(0.9) * (1 - 1e-9)].all()
    assert not known[angle > 2.0 * math.asin(0.9) * (1 + 1e-9)].any()
    assert (~known).sum() > 1000  # the near-antipodal pairs fall back


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=1, max_size=8), st.randoms(use_true_random=False))
def test_nearest_distances_refine_every_possible_nearest(sizes, rnd):
    # Groups of points about a junction, with exact ties (mirror images) and
    # one-ulp differences, and now and then a far or near-antipodal one.
    lat0, lon0 = 41.0, -96.0
    rows = []
    for size in sizes:
        group = []
        for _ in range(size):
            pick = rnd.random()
            if pick < 0.3 and group:
                lat, lon = group[-1]
                group.append((2 * lat0 - lat, lon))  # mirrored: an exact tie
            elif pick < 0.4 and group:
                lat, lon = group[-1]
                group.append((math.nextafter(lat, 90.0), lon))
            elif pick < 0.45:
                group.append((-lat0 + rnd.uniform(-1e-3, 1e-3), lon0 + 180.0))
            else:
                group.append((lat0 + rnd.uniform(-1e-3, 1e-3), lon0 + rnd.uniform(-1e-3, 1e-3)))
        rows.append(group)
    lat = np.array([p[0] for g in rows for p in g], dtype=float)
    lon = np.array([p[1] for g in rows for p in g], dtype=float)
    first = np.cumsum([0] + sizes)
    at_lat, at_lon = np.full(len(lat), lat0), np.full(len(lat), lon0)
    got = nearest_distances_ft(lat, lon, at_lat, at_lon, first)
    exact = haversine_distances_ft(lat, lon, at_lat, at_lon)
    for a, b in zip(first.tolist(), first[1:].tolist()):
        if a == b:
            continue
        low = exact[a:b].min()
        refined = np.isfinite(got[a:b])
        assert (got[a:b][refined] == exact[a:b][refined]).all()
        assert refined[exact[a:b] == low].all()  # every nearest and tie
        assert (exact[a:b][~refined] > low).all()


def test_haversine_estimate_is_the_old_numpy_haversine():
    # Where it gives a number, the estimate is the numpy haversine that
    # discovery used before, bit for bit, pair by pair and broadcast.
    rng = np.random.default_rng(11)
    lat1, lon1, lat2, lon2 = _pairs_near_and_far(rng, 200_000)
    est = haversine_estimates_ft(lat1, lon1, lat2, lon2)
    known = ~np.isnan(est)
    assert known.sum() > 140_000  # all but the near-antipodal pairs
    assert est[known].tobytes() == numpy_haversine_ft(lat1, lon1, lat2, lon2)[known].tobytes()
    centers = (41.25 + rng.normal(0.0, 0.01, (390, 1)), -96.0 + rng.normal(0.0, 0.01, (390, 1)))
    cands = 41.25 + rng.normal(0.0, 0.01, 476), -96.0 + rng.normal(0.0, 0.01, 476)
    broadcast = haversine_estimates_ft(*centers, *cands)
    for k in range(390):
        one = numpy_haversine_ft(float(centers[0][k, 0]), float(centers[1][k, 0]), *cands)
        assert broadcast[k].tobytes() == one.tobytes()


def test_ft_per_deg_constant_consistency():
    # One degree of latitude measured by the haversine itself.
    d = haversine_distance_ft(GeoPoint(40, 0), GeoPoint(41, 0))
    assert d == pytest.approx(FT_PER_DEG, rel=1e-12)
    assert EARTH_RADIUS_FT == pytest.approx(6_371_000.0 / 0.3048)
