"""The indexed trajectory search and KML assembly against brute-force references.

``brute_extract_trajectories`` and ``brute_import_reviewed_kml`` keep the
all-points x all-legs scan and the all-pairs KML assembly the indexed code
replaced. Every case asserts equal trajectories, skip reports,
reviewed-intersection JSON and rejects: on jittered synthetic scenarios, and
on generated geometry that sits on bounding-box edges, cell boundaries,
polygon edges, heading-gate limits and distance-gate limits.
"""

import io
import math
from bisect import bisect_left, bisect_right
from datetime import datetime, timezone

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import row_tuples, table_of

from intxn_pipeline.geo import (
    FT_PER_DEG,
    ON_EDGE_TOL_DEG,
    CellGrid,
    GeoPoint,
    PolygonRing,
    angular_difference_deg,
    centroid,
    haversine_distance_ft,
    initial_bearing_deg,
    point_in_polygon,
    point_to_segment_ft,
    polyline_midpoint,
)
from intxn_pipeline.ingest import SensorTable, clean_sensor, to_us
from intxn_pipeline.review import (
    CONTROL_TYPES,
    LINE_EDGE_MATCH_FT,
    POLYGON_MATCH_FT,
    TRUE_FOLDER,
    ApproachLeg,
    RejectEntry,
    ReviewedIntersection,
    import_reviewed_kml,
    parse_kml_features,
    reviewed_to_json,
)
from intxn_pipeline.synth import ScenarioSpec, generate
from intxn_pipeline.trajectory import (
    LEG_CELL_FT,
    WindowParams,
    extract_trajectories,
)

# ---------------------------------------------------------------------------
# Brute-force references


def _split_episodes(indices, times, gap_s):
    episodes = [[indices[0]]]
    for prev, cur in zip(indices, indices[1:]):
        if times[cur] - times[prev] > gap_s:
            episodes.append([])
        episodes[-1].append(cur)
    return episodes


def entering_bearing(leg):
    """The bearing from the leg's entering line's first vertex to its last."""
    return initial_bearing_deg(leg.entering_line[0], leg.entering_line[-1])


def brute_extract_trajectories(sensor, reviewed, params):
    """Every sensor point against every approach leg, one drive at a time.

    ``sensor`` holds row tuples as ``oracles.row_tuples`` gives them. A
    trajectory is (traj_id, leg_id, its reference's index in the window,
    the reference's time, the window's rows)."""
    drives = {}
    for rec in sensor:
        drives.setdefault(rec[:2], []).append(rec)
    trajs = []
    skips = {"duplicate_pass": 0, "truncated": 0}
    for key in sorted(drives):
        recs = sorted(drives[key], key=lambda r: r[:3])
        times = [r[2] / 1_000_000 for r in recs]
        cums = [r[7] for r in recs]
        positions = [GeoPoint(r[3], r[4]) for r in recs]
        picks = []
        for intxn in reviewed:
            for leg in intxn.approaches:
                min_lat, min_lon, max_lat, max_lon = leg.polygon.bounds()
                bearing = entering_bearing(leg)
                surviving = [
                    i
                    for i, r in enumerate(recs)
                    if min_lat - 1e-9 <= r[3] <= max_lat + 1e-9
                    and min_lon - 1e-9 <= r[4] <= max_lon + 1e-9
                    and angular_difference_deg(r[5], bearing) <= params.heading_tol_deg
                    and point_in_polygon(positions[i], leg.polygon)
                ]
                if not surviving:
                    continue
                for episode in _split_episodes(surviving, times, params.pass_gap_s):
                    ref_i = min(
                        episode,
                        key=lambda i: (haversine_distance_ft(positions[i], intxn.pos), times[i]),
                    )
                    picks.append((intxn.intxn_id, times[ref_i], leg.leg_id, ref_i))
        by_intxn = {}
        for pick in picks:
            by_intxn.setdefault(pick[0], []).append(pick)
        for intxn_id in sorted(by_intxn):
            visits = sorted(by_intxn[intxn_id], key=lambda p: (p[1], p[2], p[3]))
            skips["duplicate_pass"] += len(visits) - 1
            _, _, leg_id, ref_i = visits[0]
            lo = cums[ref_i] - params.upstream_ft
            hi = cums[ref_i] + params.downstream_ft
            left = bisect_left(cums, lo)
            right = bisect_right(cums, hi) - 1
            if cums[0] > lo or cums[-1] < hi:
                skips["truncated"] += 1
            window = recs[left : right + 1]
            trajs.append(
                (f"{key[0]}_{key[1]}_{intxn_id}", leg_id, ref_i - left, recs[ref_i][2], window)
            )
    return sorted(trajs, key=lambda t: t[0]), skips


def _edge_distance_ft(pt, ring):
    verts = ring.vertices
    return min(
        point_to_segment_ft(pt, verts[i], verts[(i + 1) % len(verts)]) for i in range(len(verts))
    )


def brute_import_reviewed_kml(source, polygon_match_ft, line_edge_match_ft):
    """Every polygon against every intersection, every line against every polygon."""
    feats = parse_kml_features(source)
    rejects = []
    if TRUE_FOLDER in feats.folder_names:
        true_points = [p for p in feats.points if TRUE_FOLDER in p.folders]
    else:
        true_points = list(feats.points)
    intersections = {}
    for p in true_points:
        try:
            intxn_id = int(p.name)
        except ValueError:
            rejects.append(RejectEntry("intersection", p.name, "non_integer_name"))
            continue
        if intxn_id in intersections:
            rejects.append(RejectEntry("intersection", p.name, "duplicate_id"))
            continue
        control = p.extended.get("control", "stop")
        if control not in CONTROL_TYPES:
            rejects.append(RejectEntry("intersection", p.name, "invalid_control"))
            continue
        intersections[intxn_id] = ReviewedIntersection(intxn_id, p.coordinates[0], control)

    pending = []
    for poly in feats.polygons:
        try:
            ring = PolygonRing(tuple(poly.coordinates))
        except ValueError:
            rejects.append(RejectEntry("polygon", poly.name, "invalid_polygon"))
            continue
        if not intersections:
            rejects.append(RejectEntry("polygon", poly.name, "unassigned_polygon"))
            continue
        center = centroid(list(ring.vertices))
        best_id = min(
            intersections, key=lambda i: (haversine_distance_ft(center, intersections[i].pos), i)
        )
        if haversine_distance_ft(center, intersections[best_id].pos) > polygon_match_ft:
            rejects.append(RejectEntry("polygon", poly.name, "unassigned_polygon"))
            continue
        pending.append({"intxn_id": best_id, "ring": ring, "name": poly.name, "line": None})

    for line in feats.lines:
        if len(line.coordinates) < 2:
            rejects.append(RejectEntry("line", line.name, "invalid_line"))
            continue
        mid = polyline_midpoint(line.coordinates)
        containing = [
            (i, leg) for i, leg in enumerate(pending) if point_in_polygon(mid, leg["ring"])
        ]
        if containing:
            idx = min(containing, key=lambda t: (_edge_distance_ft(mid, t[1]["ring"]), t[0]))[0]
        else:
            ranked = sorted((_edge_distance_ft(mid, leg["ring"]), i) for i, leg in enumerate(pending))
            if not ranked or ranked[0][0] > line_edge_match_ft:
                rejects.append(RejectEntry("line", line.name, "unassigned_line"))
                continue
            idx = ranked[0][1]
        if pending[idx]["line"] is not None:
            rejects.append(RejectEntry("line", line.name, "extra_line"))
            continue
        pending[idx]["line"] = line.coordinates

    for leg in pending:
        if leg["line"] is None:
            rejects.append(RejectEntry("polygon", leg["name"], "no_entering_line"))
            continue
        intxn = intersections[leg["intxn_id"]]
        intxn.approaches.append(ApproachLeg(len(intxn.approaches) + 1, leg["ring"], leg["line"]))

    reviewed = []
    for intxn_id in sorted(intersections):
        intxn = intersections[intxn_id]
        if not intxn.approaches:
            rejects.append(RejectEntry("intersection", str(intxn_id), "no_polygons"))
            continue
        reviewed.append(intxn)
    return reviewed, rejects


# ---------------------------------------------------------------------------
# Comparison helpers


def assert_same_trajectories(sensor, reviewed, params):
    trajs, skips = extract_trajectories(sensor, reviewed, params)
    expected, expected_skips = brute_extract_trajectories(row_tuples(sensor), reviewed, params)
    columns = (c.tolist() for c in (trajs.leg_id, trajs.ref, trajs.start, trajs.stop))
    t_us = sensor.t_us.tolist()
    got = [
        (traj_id, leg_id, ref - start, t_us[ref], row_tuples(sensor[start:stop]))
        for traj_id, leg_id, ref, start, stop in zip(trajs.traj_ids(), *columns)
    ]
    assert got == expected
    assert skips == expected_skips
    return trajs


def assert_same_assembly(kml, polygon_match_ft=POLYGON_MATCH_FT, line_edge_match_ft=LINE_EDGE_MATCH_FT):
    reviewed, rejects = import_reviewed_kml(io.StringIO(kml), polygon_match_ft, line_edge_match_ft)
    expected, expected_rejects = brute_import_reviewed_kml(
        io.StringIO(kml), polygon_match_ft, line_edge_match_ft
    )
    assert reviewed_to_json(reviewed) == reviewed_to_json(expected)
    assert rejects == expected_rejects
    return reviewed, rejects


# ---------------------------------------------------------------------------
# Jittered synthetic scenarios


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_jittered_synth_matches_brute_force(tmp_path, seed):
    spec = ScenarioSpec(
        grid_rows=4, grid_cols=5, n_subjects=3, drives_per_subject=3, jitter_ft=12.0, seed=seed
    )
    scenario = generate(spec, tmp_path)
    reviewed, rejects = assert_same_assembly(scenario.paths["reviewed_kml"].read_text())
    assert reviewed and not rejects
    sensor, _, _ = clean_sensor([str(p) for p in scenario.paths["sensor_files"]])
    trajs = assert_same_trajectories(sensor, reviewed, WindowParams())
    assert trajs  # jitter leaves most passes inside the 40 ft wide approaches


# ---------------------------------------------------------------------------
# Trajectory search on edge geometry

LAT0, LON0 = 41.0, -96.0
T0 = datetime(2019, 5, 1, 12, 0, tzinfo=timezone.utc)
DLAT = LEG_CELL_FT / FT_PER_DEG  # cell height of the trajectory index
ROW0 = math.floor(LAT0 / DLAT)
TOP_LAT = (ROW0 + 4) * DLAT
# Every scene holds a point at TOP_LAT and none further north, so this is
# the index's cell width.
DLON = CellGrid([TOP_LAT], [LON0], LEG_CELL_FT).dlon
COL0 = math.floor(LON0 / DLON)


@st.composite
def coordinate(draw, cell, base_index):
    """On a cell boundary, or anywhere within the three cells after it."""
    if draw(st.booleans()):
        return (base_index + draw(st.integers(0, 3))) * cell
    return (base_index + draw(st.floats(0.0, 3.0))) * cell


@st.composite
def leg_polygon(draw):
    lats = sorted(draw(st.lists(coordinate(DLAT, ROW0), min_size=2, max_size=2, unique=True)))
    lons = sorted(draw(st.lists(coordinate(DLON, COL0), min_size=2, max_size=2, unique=True)))
    (s, n), (w, e) = lats, lons
    shape = draw(st.sampled_from(["rect", "triangle", "diamond"]))
    if shape == "rect":
        verts = [(s, w), (n, w), (n, e), (s, e)]
    elif shape == "triangle":
        verts = [(s, w), (n, (w + e) / 2), (s, e)]
    else:
        verts = [((s + n) / 2, w), (n, (w + e) / 2), ((s + n) / 2, e), (s, (w + e) / 2)]
    return PolygonRing(tuple(GeoPoint(lat, lon) for lat, lon in verts))


def probe_points(ring, draw):
    """Vertices, edge points, box edges and corners, just-outside-tolerance points."""
    verts = list(ring.vertices)
    pts = [(v.lat_deg, v.lon_deg) for v in verts]
    for a, b in zip(verts, verts[1:] + verts[:1]):
        t = draw(st.sampled_from([0.25, 0.5, 0.75]))
        pts.append((a.lat_deg + t * (b.lat_deg - a.lat_deg), a.lon_deg + t * (b.lon_deg - a.lon_deg)))
    s, w, n, e = ring.bounds()
    for pad in (0.0, ON_EDGE_TOL_DEG, 2 * ON_EDGE_TOL_DEG):
        pts += [(s - pad, w - pad), (n + pad, e + pad), (s - pad, (w + e) / 2), ((s + n) / 2, e + pad)]
    return pts


@st.composite
def trajectory_scene(draw):
    intersections = {}
    points = [(TOP_LAT, LON0)]
    for _ in range(draw(st.integers(1, 3))):
        ring = draw(leg_polygon())
        s, w, n, e = ring.bounds()
        start = GeoPoint(s, (w + e) / 2)
        end = GeoPoint(n, (w + e) / 2) if draw(st.booleans()) else GeoPoint(s, e)
        intxn_id = draw(st.integers(1, 2))
        intxn = intersections.setdefault(intxn_id, ReviewedIntersection(intxn_id, end, "stop"))
        intxn.approaches.append(ApproachLeg(len(intxn.approaches) + 1, ring, [start, end]))
        points += probe_points(ring, draw)
    reviewed = [intersections[i] for i in sorted(intersections)]
    points += draw(
        st.lists(st.tuples(coordinate(DLAT, ROW0), coordinate(DLON, COL0)), max_size=20)
    )
    tol = draw(st.sampled_from([45.0, 30.0, draw(st.floats(1.0, 89.0))]))
    bearings = [entering_bearing(leg) for intxn in reviewed for leg in intxn.approaches]

    # Per-point choices come from one seeded generator: drawing each through
    # hypothesis costs more than the search under test.
    rnd = draw(st.randoms(use_true_random=False))
    rnd.shuffle(points)
    n_drives = draw(st.integers(1, 3))
    sensor = []
    t, cum = to_us(T0), 0.0
    for rank, (lat, lon) in enumerate(points):
        b = rnd.choice(bearings)
        heading = rnd.choice([b, b + tol, b - tol, b + 180.0, rnd.uniform(0.0, 360.0)])
        t += rnd.choice([1, 1, 45]) * 1_000_000  # 45 s splits a repeat pass
        cum += rnd.uniform(0.0, 80.0)
        drive = 1 + rank * n_drives // len(points)
        sensor.append(("A", drive, t, lat, lon, heading % 360.0, 30.0, cum))
    params = WindowParams(heading_tol_deg=tol, upstream_ft=draw(st.floats(1.0, 400.0)))
    return table_of(SensorTable, sensor), reviewed, params


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(trajectory_scene())
def test_trajectory_search_matches_brute_force_on_edges(scene):
    sensor, reviewed, params = scene
    assert_same_trajectories(sensor, reviewed, params)


def test_heading_gate_is_bitwise_the_scalar_gate():
    import numpy as np

    headings = np.array([0.0, 45.0, 315.0, 359.999, 135.0, 225.0, 90.0 + 1e-13, 44.99999999999999])
    for bearing in (0.0, 90.0, 359.5, 180.0):
        vector = angular_difference_deg(headings, bearing)
        assert vector.tolist() == [angular_difference_deg(float(h), bearing) for h in headings]


# ---------------------------------------------------------------------------
# KML assembly on edge geometry

COS0 = math.cos(math.radians(LAT0))
# Coordinates on a 2**-20 degree lattice: sums, halves and mirror images
# stay exact, so mirrored geometry gives exactly tied distances.
STEP = 2.0**-20


def lattice(lat_steps, lon_steps):
    return GeoPoint(LAT0 + lat_steps * STEP, LON0 + lon_steps * STEP)


def offset(p, north_ft, east_ft):
    return GeoPoint(
        p.lat_deg + north_ft / FT_PER_DEG,
        p.lon_deg + east_ft / (FT_PER_DEG * math.cos(math.radians(p.lat_deg))),
    )


def _coord(p):
    return f"{p.lon_deg!r},{p.lat_deg!r},0"


def point_mark(name, p):
    return f"<Placemark><name>{name}</name><Point><coordinates>{_coord(p)}</coordinates></Point></Placemark>"


def polygon_mark(name, verts):
    coords = " ".join(_coord(v) for v in list(verts) + [verts[0]])
    return (
        f"<Placemark><name>{name}</name><Polygon><outerBoundaryIs><LinearRing>"
        f"<coordinates>{coords}</coordinates></LinearRing></outerBoundaryIs></Polygon></Placemark>"
    )


def line_mark(name, a, b):
    return (
        f"<Placemark><name>{name}</name><LineString>"
        f"<coordinates>{_coord(a)} {_coord(b)}</coordinates></LineString></Placemark>"
    )


def kml(points, polygons, lines):
    body = "".join(point_mark(n, p) for n, p in points)
    body += "".join(polygon_mark(n, v) for n, v in polygons)
    body += "".join(line_mark(n, a, b) for n, a, b in lines)
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<kml xmlns="http://www.opengis.net/kml/2.2"><Document>' + body + "</Document></kml>"
    )


def lattice_rect(center_lat_steps, center_lon_steps, half_lat_steps, half_lon_steps):
    cl, cn, hl, hn = center_lat_steps, center_lon_steps, half_lat_steps, half_lon_steps
    return [
        lattice(cl - hl, cn - hn),
        lattice(cl + hl, cn - hn),
        lattice(cl + hl, cn + hn),
        lattice(cl - hl, cn + hn),
    ]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(-2000, 2000),
    st.integers(-2000, 2000),
    st.integers(1, 400),
    st.integers(10, 200),
    st.integers(10, 200),
    st.booleans(),
)
def test_tied_intersections_and_mirrored_polygons(cl, cn, a, hl, hn, swap_ids):
    # Two intersections mirrored about a polygon centroid tie exactly; the
    # lower ID wins. Two polygons mirrored about an intersection are equidistant.
    ids = (7, 3) if swap_ids else (3, 7)
    points = [(str(ids[0]), lattice(cl, cn - a)), (str(ids[1]), lattice(cl, cn + a))]
    west, east = points[0][1], points[1][1]
    assert haversine_distance_ft(centroid(lattice_rect(cl, cn, hl, hn)), west) == (
        haversine_distance_ft(centroid(lattice_rect(cl, cn, hl, hn)), east)
    )
    polygons = [
        ("middle", lattice_rect(cl, cn, hl, hn)),
        ("west-mirror-a", lattice_rect(cl + 2 * hl, cn - a, hl, hn)),
        ("west-mirror-b", lattice_rect(cl - 2 * hl, cn - a, hl, hn)),
    ]
    lines = [
        ("enter-middle", lattice(cl, cn - hn), lattice(cl, cn + hn)),
        ("enter-a", lattice(cl + 2 * hl, cn - a - hn), lattice(cl + 2 * hl, cn - a + hn)),
    ]
    reviewed, _ = assert_same_assembly(kml(points, polygons, lines), polygon_match_ft=5000.0)
    middle = PolygonRing(tuple(polygons[0][1]))
    owners = [r.intxn_id for r in reviewed for leg in r.approaches if leg.polygon == middle]
    assert owners == [3]


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 2 * math.pi), st.floats(50.0, 2000.0), st.sampled_from([-1, 0, 1]))
def test_centroid_exactly_at_polygon_gate(angle, dist_ft, nudge):
    # The gate is set to the centroid's own distance, one ulp below it, or
    # one ulp above it.
    intxn = GeoPoint(LAT0, LON0)
    center = offset(intxn, dist_ft * math.cos(angle), dist_ft * math.sin(angle))
    verts = [offset(center, dn, de) for dn, de in ((-30, -20), (30, -20), (30, 20), (-30, 20))]
    gate = haversine_distance_ft(centroid(verts), intxn)
    gate = {-1: math.nextafter(gate, 0.0), 0: gate, 1: math.nextafter(gate, math.inf)}[nudge]
    doc = kml(
        [("1", intxn), ("2", offset(intxn, 3 * dist_ft + 100.0, 0.0))],
        [("leg", verts)],
        [("enter", offset(center, -10, 0), offset(center, 10, 0))],
    )
    reviewed, rejects = assert_same_assembly(doc, polygon_match_ft=gate)
    assigned = any(r.intxn_id == 1 for r in reviewed)
    assert assigned == (nudge >= 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(-2000, 2000), st.integers(-2000, 2000), st.integers(10, 200), st.integers(10, 400))
def test_line_midpoint_on_shared_edge(cl, cn, hl, hn):
    # Two rectangles share the edge at latitude cl; the line runs along it.
    south = lattice_rect(cl - hl, cn, hl, hn)
    north = lattice_rect(cl + hl, cn, hl, hn)
    a, b = lattice(cl, cn - hn // 2), lattice(cl, cn + hn // 2)
    mid = polyline_midpoint([a, b])
    assert point_in_polygon(mid, PolygonRing(tuple(south)))
    assert point_in_polygon(mid, PolygonRing(tuple(north)))
    doc = kml(
        [("1", lattice(cl, cn + hn))],
        [("south", south), ("north", north)],
        [("enter", a, b), ("enter-again", a, b)],
    )
    _, rejects = assert_same_assembly(doc, polygon_match_ft=10_000.0)
    assert RejectEntry("line", "enter-again", "extra_line") in rejects


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([99.0, 101.0])
    | st.floats(95.0, 105.0)
    | st.sampled_from([100.0, 100.5, 100.999]),
    st.sampled_from(["north", "south", "east", "west", "northeast", "southwest"]),
    st.floats(20.0, 400.0),
)
def test_line_outside_every_polygon_near_the_edge_gate(gap_ft, side, half_ft):
    # A rectangle around the intersection; the line's midpoint sits gap_ft
    # outside one of its sides or corners.
    intxn = GeoPoint(LAT0, LON0)
    sw, ne = offset(intxn, -half_ft, -half_ft), offset(intxn, half_ft, half_ft)
    verts = [sw, GeoPoint(ne.lat_deg, sw.lon_deg), ne, GeoPoint(sw.lat_deg, ne.lon_deg)]
    north, east = {
        "north": (half_ft + gap_ft, 0.0),
        "south": (-half_ft - gap_ft, 0.0),
        "east": (0.0, half_ft + gap_ft),
        "west": (0.0, -half_ft - gap_ft),
        "northeast": (half_ft + gap_ft / math.sqrt(2), half_ft + gap_ft / math.sqrt(2)),
        "southwest": (-half_ft - gap_ft / math.sqrt(2), -half_ft - gap_ft / math.sqrt(2)),
    }[side]
    mid = offset(intxn, north, east)
    doc = kml(
        [("1", intxn)],
        [("leg", verts)],
        [("enter", offset(mid, 0.0, -5.0), offset(mid, 0.0, 5.0))],
    )
    reviewed, rejects = assert_same_assembly(doc)
    if side in ("north", "south", "east", "west") and gap_ft in (99.0, 101.0):
        assert bool(reviewed) == (gap_ft == 99.0)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-3000, 3000), st.integers(-3000, 3000)), min_size=0, max_size=5),
    st.lists(
        st.tuples(
            st.integers(-4000, 4000),
            st.integers(-4000, 4000),
            st.integers(5, 300),
            st.integers(5, 300),
        ),
        min_size=0,
        max_size=6,
    ),
    st.lists(
        st.tuples(st.integers(-4500, 4500), st.integers(-4500, 4500), st.integers(1, 300)),
        min_size=0,
        max_size=6,
    ),
    st.floats(1.0, 3000.0),
    st.floats(1.0, 500.0),
)
def test_random_reviews_match_brute_force(points, polygons, lines, polygon_gate, edge_gate):
    doc = kml(
        [(str(k + 1), lattice(la, lo)) for k, (la, lo) in enumerate(points)],
        [(f"p{k}", lattice_rect(*spec)) for k, spec in enumerate(polygons)],
        [(f"l{k}", lattice(la, lo - h), lattice(la, lo + h)) for k, (la, lo, h) in enumerate(lines)],
    )
    assert_same_assembly(doc, polygon_match_ft=polygon_gate, line_edge_match_ft=edge_gate)
