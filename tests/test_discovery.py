import io
import json
import math
import random
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    IntersectionCandidate,
    VisitedCandidate,
    candidate_rows,
    candidates_of,
    centroid,
    haversine_distance_ft,
    network_of,
    row_tuples,
    table_of,
)
from test_synth_differential import BENCH_SPECS

from intxn_pipeline.discovery import (
    LRS_PROPS,
    VISITED_PROPS,
    candidates_from_geojson,
    candidates_to_geojson,
    cluster_detections,
    dbscan_labels,
    extract_lrs_candidates,
    last_in_runs,
    load_network_geojson,
    match_clusters,
    network_to_geojson,
)
from intxn_pipeline.errors import DataError
from intxn_pipeline.geo import FT_PER_DEG, GeoPoint
from intxn_pipeline.ingest import CLASS_NAMES, DetectionTable, to_us
from intxn_pipeline.storage import write_json
from intxn_pipeline.synth import ScenarioSpec, generate

T0 = datetime(2019, 5, 1, 12, 0, tzinfo=timezone.utc)
LAT0, LON0 = 41.0, -96.0
COS0 = math.cos(math.radians(LAT0))


def pt(north_ft=0.0, east_ft=0.0):
    return GeoPoint(LAT0 + north_ft / FT_PER_DEG, LON0 + east_ft / (FT_PER_DEG * COS0))


def det(position, seconds=0.0, subj="A", drive=1, object_class="stop_sign"):
    """A detection row as ``row_tuples`` gives it."""
    t = to_us(T0 + timedelta(seconds=seconds))
    return subj, drive, t, position.lat_deg, position.lon_deg, CLASS_NAMES.index(object_class), 0.9


def centers_of(dets, **kwargs):
    """``cluster_detections`` of a table of ``dets``: each cluster's center,
    in cluster-id order."""
    lat, lon = cluster_detections(table_of(DetectionTable, dets), **kwargs)
    return list(map(GeoPoint, lat.tolist(), lon.tolist()))


def mean_of(dets):
    """The center of a cluster of ``dets``: their centroid in (lat, lon) order."""
    return centroid([GeoPoint(lat, lon) for lat, lon in sorted(d[3:5] for d in dets)])


def match(centers, candidates, **kwargs):
    """``match_clusters`` of the centers, cluster IDs 1, 2, ..., and the
    candidate rows: the visited candidate rows and the unmatched report."""
    lat = np.array([c.lat_deg for c in centers], dtype=float)
    lon = np.array([c.lon_deg for c in centers], dtype=float)
    visited, unmatched = match_clusters(lat, lon, candidates_of(candidates), **kwargs)
    return candidate_rows(visited), unmatched


def lrs_candidates(polylines, **kwargs):
    """``extract_lrs_candidates`` of (line_id, vertex list) pairs, as rows."""
    return candidate_rows(extract_lrs_candidates(network_of(polylines), **kwargs))


def test_four_way_junction():
    center = pt()
    candidates = lrs_candidates(
        [
            ("n", [center, pt(north_ft=500)]),
            ("s", [center, pt(north_ft=-500)]),
            ("e", [center, pt(east_ft=500)]),
            ("w", [center, pt(east_ft=-500)]),
        ]
    )
    assert len(candidates) == 1
    assert candidates[0].degree == 4
    assert haversine_distance_ft(candidates[0].pos, center) < 0.01


def test_road_continuation_is_not_a_junction():
    shared = pt()
    network = [("a", [pt(east_ft=-500), shared]), ("b", [shared, pt(east_ft=500)])]
    assert lrs_candidates(network) == []


def test_t_junction():
    center = pt()
    candidates = lrs_candidates(
        [
            ("a", [pt(east_ft=-500), center]),
            ("b", [center, pt(east_ft=500)]),
            ("stem", [center, pt(north_ft=500)]),
        ]
    )
    assert len(candidates) == 1
    assert candidates[0].degree == 3


def test_candidates_invariant_to_tolerance():
    center = pt()
    network = network_of(
        [
            ("a", [pt(east_ft=-400), center]),
            ("b", [center, pt(east_ft=400)]),
            ("c", [center, pt(north_ft=400)]),
        ]
    )
    baseline = extract_lrs_candidates(network, tol_ft=1.0)
    for tol in (0.1, 5.0, 50.0):
        assert extract_lrs_candidates(network, tol_ft=tol) == baseline


def test_candidate_ids_follow_grid_rows_whose_centroids_differ_in_last_bits(tmp_path):
    # At this origin the centroids of one grid row differ in their last
    # bits, so a plain (lat, lon) order interleaves the rows' junctions.
    spec = ScenarioSpec(
        grid_rows=12, grid_cols=40, n_subjects=1, drives_per_subject=1,
        origin=GeoPoint(47.61, -122.33),
    )
    scenario = generate(spec, tmp_path)
    candidates = candidate_rows(
        extract_lrs_candidates(load_network_geojson(scenario.paths["network"]))
    )
    expected = candidate_rows(scenario.ground_truth.candidates)
    assert len(candidates) == len(expected) == 476
    assert [c.intxn_id for c in candidates] == [c.intxn_id for c in expected]
    for got, want in zip(candidates, expected):
        assert haversine_distance_ft(got.pos, want.pos) <= 1.0


def test_last_in_runs_gap_rule():
    stream = [det(pt(east_ft=10 * s), seconds=s) for s in (0, 1, 2, 10, 11)]
    kept = last_in_runs(table_of(DetectionTable, stream), max_gap_s=2.0)
    assert kept.t_us.tolist() == [
        to_us(T0 + timedelta(seconds=2)),
        to_us(T0 + timedelta(seconds=11)),
    ]


def test_last_in_runs_single_detection():
    stream = [det(pt())]
    assert row_tuples(last_in_runs(table_of(DetectionTable, stream))) == stream


def test_last_in_runs_empty():
    assert row_tuples(last_in_runs(table_of(DetectionTable, []))) == []


def test_last_in_runs_separates_streams():
    stream = [
        det(pt(), seconds=0, subj="A"),
        det(pt(), seconds=1, subj="B"),
        det(pt(), seconds=1, subj="A"),
    ]
    kept = last_in_runs(table_of(DetectionTable, stream), max_gap_s=2.0)
    assert len(kept) == 2  # one per subject


def test_dbscan_pair_within_eps():
    dets = [det(pt(), 0), det(pt(east_ft=50), 1)]
    assert centers_of(dets, eps_ft=100) == [mean_of(dets)]


def test_dbscan_isolated_point_is_noise():
    dets = [det(pt(), 0), det(pt(east_ft=50), 1), det(pt(east_ft=1050), 2)]
    assert centers_of(dets, eps_ft=100) == [mean_of(dets[:2])]


def test_cluster_center_adds_members_in_lat_lon_order():
    # Float addition is not associative: these four positions sum to other
    # last bits in time order or in (lon, lat) order than in (lat, lon)
    # order, which is the order geo.centroids adds them in.
    positions = [
        GeoPoint(41.000084072, -95.999956736),
        GeoPoint(41.000074618, -95.99993104),
        GeoPoint(41.000090715, -95.99998421),
        GeoPoint(41.000080386, -95.999982185),
    ]
    dets = [det(p, seconds=i) for i, p in enumerate(positions)]
    (center,) = centers_of(dets, eps_ft=100)
    assert center == centroid(sorted(positions, key=lambda p: (p.lat_deg, p.lon_deg)))
    assert center != centroid(sorted(positions, key=lambda p: (p.lon_deg, p.lat_deg)))


def test_dbscan_chain_is_one_cluster():
    # Chain of 6 points spaced 80 ft: the 100-ft eps-graph is connected,
    # so brute-force components say one cluster of 6.
    chain = [det(pt(east_ft=80 * i), i) for i in range(6)]
    assert centers_of(chain, eps_ft=100) == [mean_of(chain)]


def _brute_force_components(points, eps_ft):
    n = len(points)
    adjacency = [
        [haversine_distance_ft(points[i], points[j]) <= eps_ft for j in range(n)]
        for i in range(n)
    ]
    seen, components = set(), []
    for start in range(n):
        if start in seen:
            continue
        stack, comp = [start], set()
        while stack:
            i = stack.pop()
            if i in comp:
                continue
            comp.add(i)
            stack.extend(j for j in range(n) if adjacency[i][j] and j not in comp)
        seen |= comp
        if len(comp) >= 2:
            components.append(frozenset(comp))
    return set(components)


def _arrays(points):
    """The (lats, lons) arrays of ``points``."""
    return np.array([p.lat_deg for p in points]), np.array([p.lon_deg for p in points])


def _random_points(rng, n, extent_ft=2000.0):
    return [
        pt(north_ft=rng.uniform(0, extent_ft), east_ft=rng.uniform(0, extent_ft))
        for _ in range(n)
    ]


def test_dbscan_border_adoption_with_min_pts_3():
    # A noise-tagged point must still join a cluster when a core point
    # reached later in the expansion covers it. Scan order: the isolated
    # end point first, then the far core, forcing adoption via expansion.
    positions = [pt(east_ft=e) for e in (0.0, 270.0, 90.0, 180.0, 360.0)]
    labels = dbscan_labels(*_arrays(positions), eps_ft=100.0, min_pts=3).tolist()
    assert labels.count(-1) == 0
    assert len(set(labels)) == 1  # one cluster holding all five points


def test_dbscan_matches_component_oracle():
    for seed in range(10):
        rng = random.Random(seed)
        points = _random_points(rng, 200)
        labels = dbscan_labels(*_arrays(points), eps_ft=100.0, min_pts=2).tolist()
        groups = {}
        for i, lab in enumerate(labels):
            if lab >= 0:
                groups.setdefault(lab, set()).add(i)
        ours = {frozenset(g) for g in groups.values()}
        assert ours == _brute_force_components(points, 100.0)


def test_match_clusters_nearest():
    candidates = [
        IntersectionCandidate(1, pt(), 4),
        IntersectionCandidate(2, pt(east_ft=500), 4),
    ]
    visited, unmatched = match([pt(east_ft=30)], candidates)
    assert not unmatched
    assert visited[0].intxn_id == 1
    assert visited[0].match_dist_ft == pytest.approx(30.0, abs=0.01)


def test_match_clusters_gate():
    candidates = [IntersectionCandidate(1, pt(), 4)]
    visited, unmatched = match([pt(east_ft=10), pt(east_ft=300)], candidates, max_match_ft=200)
    assert [v.supporting_cluster_ids for v in visited] == [[1]]
    assert unmatched == [
        {"cluster_id": 2, "nearest_intxn_id": 1, "dist_ft": pytest.approx(300.0, abs=0.01)}
    ]


def test_match_clusters_merges_supporting_clusters():
    candidates = [IntersectionCandidate(1, pt(), 4)]
    visited, _ = match([pt(east_ft=-20), pt(east_ft=40)], candidates)
    assert len(visited) == 1
    assert visited[0].supporting_cluster_ids == [1, 2]
    assert visited[0].match_dist_ft == pytest.approx(20.0, abs=0.01)


def test_match_clusters_without_centers_and_past_the_estimates_range():
    candidates = [IntersectionCandidate(3, pt(), 4)]
    visited, unmatched = match([], candidates)
    assert visited == [] and unmatched == []
    # Nearly antipodal: the estimate gives no number, the exact distance does.
    far = GeoPoint(-LAT0 + 1e-3, LON0 + 180.0)
    visited, unmatched = match([far], candidates)
    assert visited == []
    assert unmatched == [
        {"cluster_id": 1, "nearest_intxn_id": 3, "dist_ft": haversine_distance_ft(far, pt())}
    ]


def test_match_clusters_requires_candidates():
    with pytest.raises(ValueError):
        match([pt()], [])


def test_match_clusters_partition_property():
    rng = random.Random(13)
    candidates = [
        IntersectionCandidate(i + 1, pt(north_ft=1000 * i), 3) for i in range(5)
    ]
    centers = [pt(north_ft=rng.uniform(0, 6000)) for _ in range(40)]
    visited, unmatched = match(centers, candidates, max_match_ft=200)
    matched_ids = [cid for v in visited for cid in v.supporting_cluster_ids]
    unmatched_ids = [u["cluster_id"] for u in unmatched]
    assert sorted(matched_ids + unmatched_ids) == list(range(1, 41))
    assert all(v.match_dist_ft <= 200 for v in visited)


def test_cluster_outputs_deterministic_under_permutation():
    rng = random.Random(17)
    detections = [det(_p, i) for i, _p in enumerate(_random_points(rng, 60, 400.0))]
    baseline = centers_of(detections)
    for seed in range(3):
        shuffled = detections[:]
        random.Random(seed).shuffle(shuffled)
        assert centers_of(shuffled) == baseline


def test_candidates_geojson_roundtrip():
    import json

    network = [IntersectionCandidate(1, pt(), 3), IntersectionCandidate(2, pt(north_ft=1000), 4)]
    visited = [VisitedCandidate(4, pt(), [1, 3], 12.5), VisitedCandidate(9, pt(east_ft=9), [2], 0.0)]
    for rows, props in ((network, LRS_PROPS), (visited, VISITED_PROPS)):
        candidates = candidates_of(rows)
        buffer = io.StringIO()
        write_json(candidates_to_geojson(candidates), buffer)
        doc = json.loads(buffer.getvalue())
        doc["features"].reverse()  # any feature order reads back in id order
        assert candidates_from_geojson(doc, props) == candidates
        assert candidate_rows(candidates) == rows


def test_load_network_geojson(tmp_path):
    doc = {
        "type": "FeatureCollection",
        "features": [
            {
                "type": "Feature",
                "id": "road-1",
                "geometry": {
                    "type": "LineString",
                    "coordinates": [[-96.0, 41.0], [-96.0, 41.01]],
                },
                "properties": {},
            },
            {
                "type": "Feature",
                "geometry": {
                    "type": "MultiLineString",
                    "coordinates": [[[-96.0, 41.0], [-95.99, 41.0]]],
                },
                "properties": {"id": "road-2"},
            },
        ],
    }
    path = tmp_path / "network.geojson"
    import json

    path.write_text(json.dumps(doc))
    network = load_network_geojson(path)
    assert network.line_id == ["road-1", "road-2:0"]
    assert network.first.tolist() == [0, 2, 4]
    assert network.lat.tolist() == [41.0, 41.01, 41.0, 41.0]
    assert network.lon.tolist() == [-96.0, -96.0, -96.0, -95.99]


def assert_network_round_trips(network):
    buffer = io.StringIO()
    write_json(network_to_geojson(network), buffer)
    buffer.seek(0)
    back = load_network_geojson(buffer)
    assert back.line_id == network.line_id
    for column in ("lat", "lon", "first"):
        assert getattr(back, column).tolist() == getattr(network, column).tolist(), column


@pytest.mark.parametrize("shape", [*sorted(BENCH_SPECS), "origin"])
def test_synth_network_geojson_round_trips(tmp_path, shape):
    spec = BENCH_SPECS.get(shape, dict(origin=GeoPoint(-33.9, 151.2), grid_rows=5))
    assert_network_round_trips(generate(ScenarioSpec(**spec), tmp_path).network)


_vertices = st.tuples(st.floats(-90.0, 90.0), st.floats(-180.0, 180.0)).map(lambda p: GeoPoint(*p))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.text(), st.lists(_vertices, min_size=2, max_size=5)),
        max_size=6,
        unique_by=lambda line: line[0],
    )
)
def test_network_geojson_round_trips(polylines):
    assert_network_round_trips(network_of(polylines))


def _network_doc(*features):
    line = {"type": "LineString", "coordinates": [[-96.0, 41.0], [-96.0, 41.01]]}
    return {
        "type": "FeatureCollection",
        "features": [{"type": "Feature", "geometry": line, **feature} for feature in features],
    }


@pytest.mark.parametrize(
    "doc, message",
    [
        (_network_doc({"id": "a"}, {"id": None}), "feature 1 has a null id"),
        (_network_doc({"properties": {"id": None}}), "feature 0 has a null id"),
        (_network_doc({"id": None, "properties": {"id": "a"}}), "feature 0 has a null id"),
        (_network_doc({"id": "a"}, {"properties": {"id": "a"}}), "line id 'a' is given twice"),
        (_network_doc({"id": 7}, {"id": "7"}), "line id '7' is given twice"),
        # The id of a MultiLineString's part k ends in ":k".
        (
            _network_doc({"id": "a:0"}, {"id": "a", "geometry": {
                "type": "MultiLineString", "coordinates": [[[-96.0, 41.0], [-95.99, 41.0]]]}}),
            "line id 'a:0' is given twice",
        ),
    ],
)
def test_load_network_geojson_rejects_null_and_repeated_ids(doc, message):
    with pytest.raises(DataError, match=f"^{message}$"):
        load_network_geojson(io.StringIO(json.dumps(doc)))


def test_network_feature_without_an_id_is_named_by_its_index():
    doc = _network_doc({"id": "a"}, {}, {"properties": {}})
    assert load_network_geojson(io.StringIO(json.dumps(doc))).line_id == ["a", "1", "2"]


def test_load_network_geojson_rejects_bool_coordinate(tmp_path):
    line = {"type": "LineString", "coordinates": [[-96.0, True], [-96.0, 41.01]]}
    doc = {"type": "FeatureCollection", "features": [{"type": "Feature", "geometry": line}]}
    path = tmp_path / "network.geojson"
    write_json(doc, path)
    with pytest.raises(DataError, match="^invalid road network GeoJSON: ValueError: .*bool"):
        load_network_geojson(path)
