"""The columnar discovery passes against the per-object originals.

``oracles.object_extract_lrs_candidates``, ``object_cluster_centers`` and
``object_match_clusters`` find candidates, cluster centers and matches with
``GeoPoint`` lists, one group, cluster or center at a time, as ``discovery``
did before it worked on columns. The columnar passes must give the same
ids, positions, degrees, support lists, distances and unmatched rows, bit
for bit.

Positions sit on a lattice of 2**-20 degrees (about 0.3 ft), so that sums
of a group are exact where a test needs them to be: a ring of vertices
around a stack has the stack's centroid exactly, and a center halfway
between two candidates is exactly as far from each. Elsewhere they are
jittered off the lattice, so that sums in another order or by another
method differ in their last bits.
"""

import math
import random
from unittest.mock import patch

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    IntersectionCandidate,
    candidate_rows,
    candidates_of,
    counting,
    network_of,
    numpy_haversine_ft,
    object_cluster_centers,
    object_extract_lrs_candidates,
    object_match_clusters,
    table_of,
)

from intxn_pipeline import discovery
from intxn_pipeline.discovery import cluster_detections, extract_lrs_candidates, match_clusters
from intxn_pipeline.geo import FT_PER_DEG, GeoPoint
from intxn_pipeline.ingest import CLASS_NAMES, DetectionTable

STEP = 2.0**-20  # degrees
ORIGINS = [(41.25, -96.0), (47.5, -122.25), (-33.75, 151.25)]
SPACING = 400  # lattice steps between group sites, far beyond any tol_ft


def at(origin, north, east):
    """The lattice point ``north`` and ``east`` steps from ``origin``."""
    return GeoPoint(origin[0] + north * STEP, origin[1] + east * STEP)


def ring(origin, north, east, radius):
    """The lattice points on a square of half-side ``radius`` steps around a
    site, one step apart: a chain whose centroid is the site, exactly."""
    side = range(-radius, radius)
    edges = [(-radius, k) for k in side] + [(k, radius) for k in side]
    edges += [(radius, -k) for k in side] + [(-k, -radius) for k in side]
    return [at(origin, north + dn, east + de) for dn, de in edges]


# A group site: its row and column on the site lattice, its rise in steps
# (rows of sites whose rises differ by less than tol_ft chain into a band),
# and what stands there: a stack of 1-6 coincident vertices, a stack in a
# ring (two groups with one centroid), a short chain of vertices, or 1-6
# vertices jittered by up to ~0.04 ft.
SITES = st.tuples(
    st.integers(0, 3),
    st.integers(0, 6),
    st.sampled_from([0, 0, 1, 2, 5]),
    st.sampled_from(["stack", "stack", "ring", "chain", "jitter"]),
    st.integers(1, 6),
)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(ORIGINS),
    st.sampled_from([0.5, 1.0, 3.0]),
    st.lists(SITES, min_size=0, max_size=12),
    st.randoms(use_true_random=False),
)
def test_candidates_are_the_per_object_groups(origin, tol_ft, sites, rnd):
    vertices = []
    for row, col, rise, kind, size in sites:
        north, east = row * SPACING + rise, col * SPACING
        if kind == "jitter":
            vertices += [
                at(origin, north + rnd.uniform(-0.1, 0.1), east + rnd.uniform(-0.1, 0.1))
                for _ in range(size)
            ]
            continue
        vertices += [at(origin, north, east)] * size
        if kind == "ring":  # outside the stack's reach, one step a vertex
            vertices += ring(origin, north, east, math.ceil(tol_ft / 0.2) + 1)
        elif kind == "chain":
            vertices += [at(origin, north + k, east + k % 2) for k in range(1, 4)]
    rnd.shuffle(vertices)
    cuts = sorted(rnd.sample(range(1, len(vertices)), min(len(vertices) // 3, 20))) if vertices else []
    polylines = [
        (f"line-{k}", vertices[a:b])
        for k, (a, b) in enumerate(zip([0, *cuts], [*cuts, len(vertices)]))
        if a < b
    ]
    got = extract_lrs_candidates(network_of(polylines), tol_ft)
    assert candidate_rows(got) == object_extract_lrs_candidates(polylines, tol_ft)


def _detections(positions):
    """A detection table of ``positions``, one second apart."""
    n = len(positions)
    return table_of(DetectionTable, [
        ("S01", 1, 1_556_712_000_000_000 + 1_000_000 * k, p.lat_deg, p.lon_deg,
         CLASS_NAMES.index("stop_sign"), 0.9)
        for k, p in enumerate(positions)
    ]) if n else table_of(DetectionTable, [])


def _unmatched_rows(unmatched):
    return [
        {"cluster_id": u.cluster_id, "nearest_intxn_id": u.nearest_intxn_id, "dist_ft": u.dist_ft}
        for u in unmatched
    ]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(ORIGINS),
    st.integers(0, 2**32),
    st.sampled_from([1, 2, 3]),
    st.sampled_from([50.0, 200.0]),
)
def test_clusters_and_matches_are_the_per_object_ones(origin, seed, min_pts, max_match_ft):
    # One crowded junction of 1,000 or more sightings beside many small
    # clusters and lone points; candidates at the junctions and between them.
    rnd = random.Random(seed)  # drawn here: the tables are too long for hypothesis to draw
    positions = [
        at(origin, rnd.uniform(-40, 40), rnd.uniform(-40, 40)) for _ in range(rnd.randint(1000, 1300))
    ]
    for _ in range(rnd.randint(5, 60)):
        north, east = rnd.randint(-20, 20) * 400, rnd.randint(-20, 20) * 400
        positions += [at(origin, north + rnd.uniform(-30, 30), east + rnd.uniform(-30, 30))
                      for _ in range(rnd.randint(1, 5))]
    rnd.shuffle(positions)
    table = _detections(positions)
    lat, lon = cluster_detections(table, eps_ft=100.0, min_pts=min_pts)
    centers = object_cluster_centers(table, 100.0, min_pts)
    assert list(map(GeoPoint, lat.tolist(), lon.tolist())) == [c for _, c in centers]

    rows = [
        IntersectionCandidate(i, at(origin, rnd.randint(-20, 20) * 400, rnd.randint(-20, 20) * 400), 4)
        for i in rnd.sample(range(1, 10_000), rnd.randint(1, 120))
    ]
    visited, unmatched = match_clusters(lat, lon, candidates_of(rows), max_match_ft)
    old_visited, old_unmatched = object_match_clusters(centers, rows, max_match_ft)
    assert candidate_rows(visited) == old_visited
    assert unmatched == _unmatched_rows(old_unmatched)


# A center: its site on the lattice, and its offset from the site in steps.
CENTERS = st.tuples(st.integers(0, 4), st.integers(-3, 3), st.integers(-600, 600))


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(ORIGINS),
    st.lists(CENTERS, min_size=1, max_size=30),
    st.lists(st.integers(0, 400), min_size=1, max_size=5),
    st.permutations(range(1, 11)),
    st.sampled_from([50.0, 200.0, 1e6, "first", "below all"]),
    st.sampled_from([None, 1, 7]),
)
def test_match_ties_gates_and_shared_candidates(origin, specs, gaps, ids, max_match_ft, block):
    # Candidate pairs mirrored about each site (lon +- gap steps), ids in a
    # drawn order: a center on a site is exactly as far from both, and the
    # lower id must win. Centers off a site land on one candidate, often
    # several on one, or beyond the gate, which may be exactly the first
    # center's distance or just below every center's.
    rows, id_of = [], iter(ids)
    for site, gap in enumerate(gaps):
        for side in (-1, 1):
            rows.append(IntersectionCandidate(next(id_of), at(origin, site * 800, side * gap), 3))
    centers = [at(origin, (site % len(gaps)) * 800 + dn, de) for site, dn, de in specs]
    lat = np.array([c.lat_deg for c in centers], dtype=float)
    lon = np.array([c.lon_deg for c in centers], dtype=float)
    if max_match_ft in ("first", "below all"):
        cand_lat, cand_lon = (np.array([getattr(r.pos, k) for r in rows]) for k in ("lat_deg", "lon_deg"))
        dist = numpy_haversine_ft(lat[:, None], lon[:, None], cand_lat, cand_lon)
        first = max_match_ft == "first"
        max_match_ft = float(dist[0].min() if first else np.nextafter(dist.min(), -np.inf))
    with patch.object(discovery, "PAIR_BLOCK", block or discovery.PAIR_BLOCK):
        visited, unmatched = match_clusters(lat, lon, candidates_of(rows), max_match_ft)
    old_visited, old_unmatched = object_match_clusters(list(enumerate(centers, 1)), rows, max_match_ft)
    assert candidate_rows(visited) == old_visited
    assert unmatched == _unmatched_rows(old_unmatched)


def _offset(origin, north_ft, east_ft):
    lat, lon = origin
    return GeoPoint(lat + north_ft / FT_PER_DEG, lon + east_ft / (FT_PER_DEG * math.cos(math.radians(lat))))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.floats(25.0, 49.0), st.floats(-124.0, -67.0)), min_size=1, max_size=4),
    st.sampled_from([50.0, 200.0]),
    st.randoms(use_true_random=False),
)
def test_matches_across_the_seed_latitudes(origins, max_match_ft, rnd):
    # Candidates 300 ft apart around origins drawn over 25-49 degrees of
    # latitude, as perfbench's seeds draw them, and centers up to 1.5 gates
    # from a candidate in any direction: each center's box must reach every
    # candidate its estimate puts within the gate, at its own latitude.
    rows, centers = [], []
    ids = iter(rnd.sample(range(1, 10_000), 25 * len(origins)))
    for origin in origins:
        sites = [_offset(origin, 300.0 * i, 300.0 * j) for i in range(5) for j in range(5)]
        rows += [IntersectionCandidate(next(ids), p, 3) for p in sites]
        for _ in range(rnd.randint(1, 30)):
            site, r, theta = rnd.choice(sites), rnd.uniform(0, 1.5) * max_match_ft, rnd.uniform(0, 2 * math.pi)
            centers.append(_offset((site.lat_deg, site.lon_deg), r * math.cos(theta), r * math.sin(theta)))
    lat = np.array([c.lat_deg for c in centers])
    lon = np.array([c.lon_deg for c in centers])
    visited, unmatched = match_clusters(lat, lon, candidates_of(rows), max_match_ft)
    old_visited, old_unmatched = object_match_clusters(list(enumerate(centers, 1)), rows, max_match_ft)
    assert candidate_rows(visited) == old_visited
    assert unmatched == _unmatched_rows(old_unmatched)


def test_match_across_the_seam():
    # The first center's nearest candidate lies across the 180th meridian,
    # nearer than a candidate on its own side that is also inside the gate.
    rows = [IntersectionCandidate(1, GeoPoint(10.0, 179.9995), 3),
            IntersectionCandidate(2, GeoPoint(10.0, -179.9999), 3)]
    centers = [GeoPoint(10.0, 179.9999), GeoPoint(10.0, -179.9998)]
    lat = np.array([c.lat_deg for c in centers])
    lon = np.array([c.lon_deg for c in centers])
    visited, unmatched = match_clusters(lat, lon, candidates_of(rows))
    old_visited, _ = object_match_clusters(list(enumerate(centers, 1)), rows, 200.0)
    assert candidate_rows(visited) == old_visited and not unmatched
    assert visited.intxn_id == [2] and visited.props["supporting_cluster_ids"] == [[1, 2]]


def test_match_clusters_tests_pairs_near_each_center():
    # A wide-grid-shaped network at 16x its rows: 192 x 40 junctions 1,000 ft
    # apart, the four corners (of degree 2) not candidates, and a center 20 ft
    # east of each junction in 32 of the columns. Every center against every
    # candidate would be 6,144 x 7,676 pairs.
    cos0 = math.cos(math.radians(41.25))
    junction = [[(41.25 + 1000.0 * i / FT_PER_DEG, -96.0 + 1000.0 * j / (FT_PER_DEG * cos0))
                 for j in range(40)] for i in range(192)]
    corners = {(0, 0), (0, 39), (191, 0), (191, 39)}
    sites = [junction[i][j] for i in range(192) for j in range(40) if (i, j) not in corners]
    rows = [IntersectionCandidate(k, GeoPoint(*p), 3) for k, p in enumerate(sites, 1)]
    east = 20.0 / (FT_PER_DEG * cos0)
    centers = [GeoPoint(lat, lon + east) for row in junction for lat, lon in row[4:36]]
    lat = np.array([c.lat_deg for c in centers])
    lon = np.array([c.lon_deg for c in centers])
    sizes = []
    with patch.object(discovery, "haversine_estimates_ft", counting(discovery.haversine_estimates_ft, sizes)):
        visited, unmatched = match_clusters(lat, lon, candidates_of(rows))
    assert sum(sizes) <= 20 * (len(centers) + len(rows))
    old_visited, old_unmatched = object_match_clusters(list(enumerate(centers, 1)), rows, 200.0)
    assert candidate_rows(visited) == old_visited and len(old_visited) == len(centers) == 6144
    assert unmatched == _unmatched_rows(old_unmatched) == []
