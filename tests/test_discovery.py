import io
import math
import random
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from oracles import row_tuples, table_of

from intxn_pipeline.discovery import (
    IntersectionCandidate,
    RoadNetwork,
    candidates_from_geojson,
    candidates_to_geojson,
    cluster_detections,
    dbscan_labels,
    extract_lrs_candidates,
    last_in_runs,
    load_network_geojson,
    match_clusters,
)
from intxn_pipeline.errors import DataError
from intxn_pipeline.geo import FT_PER_DEG, GeoPoint, centroid, haversine_distance_ft
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


def clusters_of(dets, **kwargs):
    """``cluster_detections`` of a table of ``dets``: each cluster's id, its
    members' rows, which must ascend, and its center."""
    table = table_of(DetectionTable, dets)
    clusters = cluster_detections(table, **kwargs)
    assert all((np.diff(c.rows) > 0).all() for c in clusters)
    return [(c.cluster_id, row_tuples(table.take(c.rows)), c.center) for c in clusters]


def test_four_way_junction():
    center = pt()
    network = RoadNetwork(
        [
            ("n", [center, pt(north_ft=500)]),
            ("s", [center, pt(north_ft=-500)]),
            ("e", [center, pt(east_ft=500)]),
            ("w", [center, pt(east_ft=-500)]),
        ]
    )
    candidates = extract_lrs_candidates(network)
    assert len(candidates) == 1
    assert candidates[0].degree == 4
    assert haversine_distance_ft(candidates[0].pos, center) < 0.01


def test_road_continuation_is_not_a_junction():
    shared = pt()
    network = RoadNetwork(
        [("a", [pt(east_ft=-500), shared]), ("b", [shared, pt(east_ft=500)])]
    )
    assert extract_lrs_candidates(network) == []


def test_t_junction():
    center = pt()
    network = RoadNetwork(
        [
            ("a", [pt(east_ft=-500), center]),
            ("b", [center, pt(east_ft=500)]),
            ("stem", [center, pt(north_ft=500)]),
        ]
    )
    candidates = extract_lrs_candidates(network)
    assert len(candidates) == 1
    assert candidates[0].degree == 3


def test_candidates_invariant_to_tolerance():
    center = pt()
    network = RoadNetwork(
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
    candidates = extract_lrs_candidates(load_network_geojson(scenario.paths["network"]))
    expected = scenario.ground_truth.candidates
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
    assert [members for _, members, _ in clusters_of(dets, eps_ft=100)] == [dets]


def test_dbscan_isolated_point_is_noise():
    dets = [det(pt(), 0), det(pt(east_ft=50), 1), det(pt(east_ft=1050), 2)]
    assert [members for _, members, _ in clusters_of(dets, eps_ft=100)] == [dets[:2]]


def test_cluster_center_adds_members_in_lat_lon_order():
    # Float addition is not associative: these four positions sum to other
    # last bits in time order or in (lon, lat) order than in (lat, lon)
    # order, which is the order geo.centroid is given.
    positions = [
        GeoPoint(41.000084072, -95.999956736),
        GeoPoint(41.000074618, -95.99993104),
        GeoPoint(41.000090715, -95.99998421),
        GeoPoint(41.000080386, -95.999982185),
    ]
    dets = [det(p, seconds=i) for i, p in enumerate(positions)]
    (cluster,) = cluster_detections(table_of(DetectionTable, dets), eps_ft=100)
    assert cluster.center == centroid(sorted(positions, key=lambda p: (p.lat_deg, p.lon_deg)))
    assert cluster.center != centroid(sorted(positions, key=lambda p: (p.lon_deg, p.lat_deg)))


def test_dbscan_chain_is_one_cluster():
    # Chain of 6 points spaced 80 ft: the 100-ft eps-graph is connected,
    # so brute-force components say one cluster of 6.
    chain = [det(pt(east_ft=80 * i), i) for i in range(6)]
    assert [members for _, members, _ in clusters_of(chain, eps_ft=100)] == [chain]


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
    visited, unmatched = match_clusters([(1, pt(east_ft=30))], candidates)
    assert not unmatched
    assert visited[0].intxn_id == 1
    assert visited[0].match_dist_ft == pytest.approx(30.0, abs=0.01)


def test_match_clusters_gate():
    candidates = [IntersectionCandidate(1, pt(), 4)]
    visited, unmatched = match_clusters([(7, pt(east_ft=300))], candidates, max_match_ft=200)
    assert not visited
    assert unmatched[0].cluster_id == 7
    assert unmatched[0].nearest_intxn_id == 1
    assert unmatched[0].dist_ft == pytest.approx(300.0, abs=0.01)


def test_match_clusters_merges_supporting_clusters():
    candidates = [IntersectionCandidate(1, pt(), 4)]
    visited, _ = match_clusters([(2, pt(east_ft=40)), (1, pt(east_ft=-20))], candidates)
    assert len(visited) == 1
    assert visited[0].supporting_cluster_ids == [1, 2]
    assert visited[0].match_dist_ft == pytest.approx(20.0, abs=0.01)


def test_match_clusters_requires_candidates():
    with pytest.raises(ValueError):
        match_clusters([(1, pt())], [])


def test_match_clusters_partition_property():
    rng = random.Random(13)
    candidates = [
        IntersectionCandidate(i + 1, pt(north_ft=1000 * i), 3) for i in range(5)
    ]
    centers = [(i + 1, pt(north_ft=rng.uniform(0, 6000))) for i in range(40)]
    visited, unmatched = match_clusters(centers, candidates, max_match_ft=200)
    matched_ids = [cid for v in visited for cid in v.supporting_cluster_ids]
    unmatched_ids = [u.cluster_id for u in unmatched]
    assert sorted(matched_ids + unmatched_ids) == sorted(cid for cid, _ in centers)
    assert all(v.match_dist_ft <= 200 for v in visited)


def test_cluster_outputs_deterministic_under_permutation():
    rng = random.Random(17)
    detections = [det(_p, i) for i, _p in enumerate(_random_points(rng, 60, 400.0))]
    baseline = clusters_of(detections)
    for seed in range(3):
        shuffled = detections[:]
        random.Random(seed).shuffle(shuffled)
        assert clusters_of(shuffled) == baseline


def test_candidates_geojson_roundtrip():
    candidates = [
        IntersectionCandidate(1, pt(), 3),
        IntersectionCandidate(2, pt(north_ft=1000), 4),
    ]
    buffer = io.StringIO()
    write_json(candidates_to_geojson(candidates), buffer)
    buffer.seek(0)
    import json

    assert candidates_from_geojson(json.load(buffer)) == candidates


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
    assert [line_id for line_id, _ in network.polylines] == ["road-1", "road-2:0"]
    assert network.polylines[0][1][0] == GeoPoint(41.0, -96.0)


def test_load_network_geojson_rejects_bool_coordinate(tmp_path):
    line = {"type": "LineString", "coordinates": [[-96.0, True], [-96.0, 41.01]]}
    doc = {"type": "FeatureCollection", "features": [{"type": "Feature", "geometry": line}]}
    path = tmp_path / "network.geojson"
    write_json(doc, path)
    with pytest.raises(DataError, match="^invalid road network GeoJSON: ValueError: .*bool"):
        load_network_geojson(path)
