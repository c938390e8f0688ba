"""The grid DBSCAN against the queue-based DBSCAN it replaced.

``queue_dbscan`` keeps the scan-order queue expansion, with brute-force
region queries through the scalar-query haversine the old index used. Every
case asserts equal label lists, not only equal clusters: on scenes with
coincident points, pairs at exactly eps and one ulp either side of it,
points on and one ulp off the cell boundaries, and clumps spread over
0°-60° of latitude, where cells sized from the wrong cos(lat) would hold
points more than eps apart or miss neighbors more than two cells away.
"""

import math
from collections import deque

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from intxn_pipeline.discovery import dbscan_labels
from intxn_pipeline.geo import EARTH_RADIUS_FT, FT_PER_DEG, CellGrid, GeoPoint

# ---------------------------------------------------------------------------
# Queue-based reference


def _haversine_many(p, lats, lons):
    phi1 = math.radians(p.lat_deg)
    phi2 = np.radians(lats)
    dphi = np.radians(lats - p.lat_deg)
    dlam = np.radians(lons - p.lon_deg)
    h = np.sin(dphi / 2.0) ** 2 + math.cos(phi1) * np.cos(phi2) * np.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_FT * np.arcsin(np.minimum(1.0, np.sqrt(h)))


def queue_dbscan(points, eps_ft, min_pts):
    n = len(points)
    lats = np.array([p.lat_deg for p in points], dtype=float)
    lons = np.array([p.lon_deg for p in points], dtype=float)

    def region(i):
        return [int(j) for j in np.flatnonzero(_haversine_many(points[i], lats, lons) <= eps_ft)]

    labels = [None] * n
    cluster = -1
    for i in range(n):
        if labels[i] is not None:
            continue
        neighborhood = region(i)
        if len(neighborhood) < min_pts:
            labels[i] = -1
            continue
        cluster += 1
        labels[i] = cluster
        queue = deque(j for j in neighborhood if j != i)
        while queue:
            j = queue.popleft()
            if labels[j] == -1:
                labels[j] = cluster
            if labels[j] is not None:
                continue
            labels[j] = cluster
            reach = region(j)
            if len(reach) >= min_pts:
                queue.extend(k for k in reach if labels[k] is None or labels[k] == -1)
    return [lab if lab is not None else -1 for lab in labels]


def _labels(points, eps_ft, min_pts):
    """``dbscan_labels`` of ``points`` as a list, to compare with ``queue_dbscan``."""
    lats = np.array([p.lat_deg for p in points])
    lons = np.array([p.lon_deg for p in points])
    return dbscan_labels(lats, lons, eps_ft, min_pts).tolist()


# ---------------------------------------------------------------------------
# Scenes


def _offset(p, north_ft, east_ft):
    cos = math.cos(math.radians(p.lat_deg))
    return GeoPoint(p.lat_deg + north_ft / FT_PER_DEG, p.lon_deg + east_ft / (FT_PER_DEG * cos))


def _ulp_steps(x, lo, hi):
    steps = (np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf))
    return [float(v) for v in steps if lo <= v <= hi]


@st.composite
def dbscan_scene(draw):
    eps_nominal = draw(st.floats(5.0, 200.0))
    wide = draw(st.booleans())
    lat_lo, lat_hi = (0.0, 60.0) if wide else sorted([draw(st.floats(0.01, 60.0))] * 2)
    lon0 = draw(st.floats(-120.0, 120.0))

    def site(k):
        # Well-separated places for the clumps and the gadgets below.
        lat = draw(st.sampled_from([lat_lo, lat_hi]) | st.floats(lat_lo, lat_hi))
        return GeoPoint(min(max(lat, 0.01), 59.99), lon0 + 0.05 * k)

    # Random clumps.
    points = [GeoPoint(lat_lo, lon0 - 0.05), GeoPoint(lat_hi, lon0 - 0.05)]
    for k in range(draw(st.integers(1, 3))):
        center = site(k)
        spread = draw(st.floats(0.2, 3.0)) * eps_nominal
        for _ in range(draw(st.integers(1, 14))):
            north = draw(st.floats(-spread, spread))
            east = draw(st.floats(-spread, spread))
            points.append(_offset(center, north, east))

    # An isolated pair exactly eps apart; eps then moves by -1, 0 or +1 ulp.
    anchor = site(4)
    bearing = draw(st.sampled_from([0.0, math.pi / 2, math.pi / 4]) | st.floats(0.0, 2 * math.pi))
    partner = _offset(anchor, eps_nominal * math.cos(bearing), eps_nominal * math.sin(bearing))
    points += [anchor, partner]
    eps_ft = float(_haversine_many(anchor, *np.array([[partner.lat_deg], [partner.lon_deg]]))[0])
    eps_ft = draw(st.sampled_from(_ulp_steps(eps_ft, 0.0, np.inf)))

    # A bridge: a point 0.9 eps from the rims of two clumps 1.8 eps apart,
    # so with min_pts 5 it is a border point of two clusters.
    mid = site(5)
    theta = draw(st.floats(0.0, 2 * math.pi))
    for sign in (1, -1):
        ux, uy = sign * math.cos(theta) * eps_ft, sign * math.sin(theta) * eps_ft
        points.append(_offset(mid, 0.9 * ux, 0.9 * uy))
        points += [_offset(mid, 1.5 * ux, 1.5 * uy)] * 4
    points.append(mid)

    # Points on and one ulp off the row and column boundaries of the grid
    # the clustering bins into. Boundary latitudes lie above their source
    # point and below lat_hi, so the cell width does not change.
    lats, lons = [p.lat_deg for p in points], [p.lon_deg for p in points]
    grid = CellGrid(lats, lons, eps_ft / 2.0, narrow=True)
    for _ in range(draw(st.integers(0, 4))):
        src = points[draw(st.integers(0, len(points) - 1))]
        row_lat = (math.floor(src.lat_deg / grid.dlat) + 1) * grid.dlat
        col_lon = (math.floor(src.lon_deg / grid.dlon) + draw(st.integers(0, 1))) * grid.dlon
        points += [GeoPoint(lat, src.lon_deg) for lat in _ulp_steps(row_lat, src.lat_deg, lat_hi)]
        points += [GeoPoint(src.lat_deg, lon) for lon in _ulp_steps(col_lon, -180.0, 180.0)]

    # Two crowded spots in opposite corners of a cell eps/2 tall and
    # 1/cos(lat_hi) times as wide at lat_lo: a grid sized from the smallest
    # cos(lat) would put them in one cell although they are over eps apart.
    lats, lons = [p.lat_deg for p in points], [p.lon_deg for p in points]
    wide_cell = CellGrid(lats, lons, eps_ft / 2.0)
    r = math.floor(max(lat_lo, 0.001) / wide_cell.dlat) + 1
    c = math.floor((lon0 + 0.3) / wide_cell.dlon)
    for f in (0.01, 0.99):
        points += [GeoPoint((r + f) * wide_cell.dlat, (c + f) * wide_cell.dlon)] * 5

    # Coincident points.
    for _ in range(draw(st.integers(0, 6))):
        points.append(points[draw(st.integers(0, len(points) - 1))])

    order = draw(st.permutations(range(len(points))))
    return [points[i] for i in order], eps_ft


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(dbscan_scene(), st.sampled_from([1, 2, 3, 5]))
def test_grid_dbscan_equals_queue_dbscan(scene, min_pts):
    points, eps_ft = scene
    assert _labels(points, eps_ft, min_pts) == queue_dbscan(points, eps_ft, min_pts)


def test_crowded_cells_equal_queue_dbscan():
    # Three junctions of coincident sightings, plus stragglers between two
    # of them: dense cells take the no-distance-test path, and a straggler
    # within eps of two clusters takes the lower-ranked one.
    rng = np.random.default_rng(3)
    junctions = [GeoPoint(41.0, -96.0), _offset(GeoPoint(41.0, -96.0), 0.0, 150.0),
                 _offset(GeoPoint(41.0, -96.0), 2000.0, 0.0)]
    points = [junctions[k] for k in rng.integers(0, 3, 300)]
    points += [_offset(junctions[0], rng.uniform(-20, 20), rng.uniform(60, 90)) for _ in range(20)]
    for min_pts in (1, 2, 3, 5, 200):
        assert _labels(points, 100.0, min_pts) == queue_dbscan(points, 100.0, min_pts)


def test_crowded_cells_merge_through_their_last_points():
    # Two cells of 301 points each, two cells apart. Only their last points
    # (one per cell) are within eps of each other, so the merge test must
    # reach the last block of both cells.
    eps_ft = 100.0
    grid = CellGrid([41.0], [-96.0], eps_ft / 2.0, narrow=True)
    c = math.floor(-96.0 / grid.dlon)

    def at(cells):
        return GeoPoint(41.0, (c + cells) * grid.dlon)

    points = [at(0.02)] * 300 + [at(2.98)] * 300 + [at(0.9), at(2.1)]
    assert _labels(points, eps_ft, 2) == queue_dbscan(points, eps_ft, 2) == [0] * 602


@pytest.mark.parametrize("eps_ft", [0.0, -1.0, math.nan])
def test_eps_must_be_positive(eps_ft):
    with pytest.raises(ValueError):
        dbscan_labels(np.full(3, 41.0), np.full(3, -96.0), eps_ft, 2)
