"""Acceptance suite: one test per shipping criterion.

Each criterion prints a PASS/FAIL line (visible with ``pytest -s``); the
final test checks the whole suite's wall time. Criteria run on synthetic
scenarios whose expected answers are known in closed form.
"""

import json
import math
import random
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from oracles import candidate_rows, haversine_distance_ft

from intxn_pipeline.cli import main
from intxn_pipeline.clips import build_clip_specs, emit_cutlist, parse_cutlist, read_videos_csv
from intxn_pipeline.discovery import (
    cluster_detections,
    dbscan_labels,
    extract_lrs_candidates,
    last_in_runs,
    load_network_geojson,
    match_clusters,
)
from intxn_pipeline.geo import FT_PER_DEG, GeoPoint
from intxn_pipeline.ingest import clean_cv, clean_sensor
from intxn_pipeline.review import (
    build_review_template,
    export_candidates_kml,
    import_reviewed_kml,
    parse_kml_features,
    read_demographics,
)
from intxn_pipeline.synth import ScenarioSpec, generate
from intxn_pipeline.trajectory import extract_trajectories, windows

_SUITE_START = time.perf_counter()

SAMPLE_PERIOD_S = 1.0  # synthetic drives sample at 1 Hz


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    return generate(ScenarioSpec(), out)


@pytest.fixture(scope="module")
def clean(scenario):
    sensor, sensor_drops, _ = clean_sensor([str(p) for p in scenario.paths["sensor_files"]])
    detections, cv_drops, _ = clean_cv([str(p) for p in scenario.paths["cv_files"]], sensor)
    assert sum(sensor_drops.values()) == 0 and sum(cv_drops.values()) == 0
    return sensor, detections


@pytest.fixture(scope="module")
def trajectories(scenario, clean):
    sensor, _ = clean
    reviewed, rejects = import_reviewed_kml(scenario.paths["reviewed_kml"])
    assert not rejects
    trajs, _ = extract_trajectories(sensor, reviewed)
    return trajs


def test_criterion_1_grid_recovery(scenario):
    with criterion(1, "grid recovery"):
        network = load_network_geojson(scenario.paths["network"])
        t0 = time.perf_counter()
        candidates = candidate_rows(extract_lrs_candidates(network))
        elapsed = time.perf_counter() - t0
        expected = candidate_rows(scenario.ground_truth.candidates)
        assert len(candidates) == 12
        assert all(c.degree >= 3 for c in candidates)
        assert [c.intxn_id for c in candidates] == [c.intxn_id for c in expected]
        assert [c.degree for c in candidates] == [c.degree for c in expected]
        for got, want in zip(candidates, expected):
            assert haversine_distance_ft(got.pos, want.pos) <= 1.0
        # The four degree-2 corners are excluded.
        degree2 = [pos for pos, deg in scenario.ground_truth.junctions if deg == 2]
        assert len(degree2) == 4
        for corner in degree2:
            assert all(haversine_distance_ft(corner, c.pos) > 1.0 for c in candidates)
        assert elapsed < 1.0


def _oracle_components(lats, lons, eps_ft):
    # Independent brute-force oracle: full pairwise haversine matrix, then
    # connected components (size >= 2) of the eps-threshold graph.
    phi = np.radians(lats)
    dphi = phi[:, None] - phi[None, :]
    dlam = np.radians(lons)[:, None] - np.radians(lons)[None, :]
    h = np.sin(dphi / 2) ** 2 + np.cos(phi)[:, None] * np.cos(phi)[None, :] * np.sin(dlam / 2) ** 2
    dist = 2 * (6_371_000.0 / 0.3048) * np.arcsin(np.minimum(1.0, np.sqrt(h)))
    adjacency = dist <= eps_ft
    n = len(lats)
    seen, components = set(), set()
    for start in range(n):
        if start in seen:
            continue
        stack, comp = [start], set()
        while stack:
            i = stack.pop()
            if i in comp:
                continue
            comp.add(i)
            stack.extend(np.flatnonzero(adjacency[i]).tolist())
        seen |= comp
        if len(comp) >= 2:
            components.add(frozenset(comp))
    return components


def test_criterion_2_dbscan_oracle_equivalence():
    with criterion(2, "dbscan equals component oracle"):
        t0 = time.perf_counter()
        lat0, lon0 = 41.0, -96.0
        cos0 = math.cos(math.radians(lat0))
        for seed in range(100):
            rng = random.Random(seed)
            points = [
                GeoPoint(
                    lat0 + rng.uniform(0, 2000.0) / FT_PER_DEG,
                    lon0 + rng.uniform(0, 2000.0) / (FT_PER_DEG * cos0),
                )
                for _ in range(200)
            ]
            lats = np.array([p.lat_deg for p in points])
            lons = np.array([p.lon_deg for p in points])
            labels = dbscan_labels(lats, lons, eps_ft=100.0, min_pts=2).tolist()
            groups = {}
            for i, lab in enumerate(labels):
                if lab >= 0:
                    groups.setdefault(lab, set()).add(i)
            ours = {frozenset(g) for g in groups.values()}
            oracle = _oracle_components(lats, lons, 100.0)
            assert ours == oracle, f"mismatch at seed {seed}"
        assert time.perf_counter() - t0 < 10.0


def test_criterion_3_visited_intersection_recovery(scenario, clean):
    with criterion(3, "visited intersection recovery"):
        _, detections = clean
        network = load_network_geojson(scenario.paths["network"])
        candidates = extract_lrs_candidates(network)
        last = last_in_runs(detections)
        visited, unmatched = match_clusters(*cluster_detections(last), candidates)
        assert not unmatched
        assert visited.intxn_id == scenario.ground_truth.visited_ids
        assert all(d <= 30.0 for d in visited.props["match_dist_ft"])


def test_criterion_4_trajectory_windows(scenario, clean, trajectories):
    with criterion(4, "trajectory windows"):
        sensor, _ = clean
        gt = scenario.ground_truth
        assert len(trajectories) == len(gt.trajectories)
        cum, t_us = sensor.cum, sensor.t_us
        rows = (c.tolist() for c in windows(trajectories, sensor))
        for ref, start, stop in zip(*rows):
            window = cum[start:stop]
            assert ((cum[ref] - 300.0 <= window) & (window <= cum[ref] + 200.0)).all()
            duration = (t_us[stop - 1] - t_us[start]) / 1_000_000
            assert abs(duration - 10.0) <= SAMPLE_PERIOD_S
        # Reversed-heading drives are exiting traffic: zero candidates.
        reviewed, _ = import_reviewed_kml(scenario.paths["reviewed_kml"])
        reversed_sensor = replace(sensor, heading=(sensor.heading + 180.0) % 360.0)
        reversed_trajs, _ = extract_trajectories(reversed_sensor, reviewed)
        assert len(reversed_trajs) == 0


def test_criterion_5_clip_timing_oracle(scenario, clean, trajectories):
    with criterion(5, "clip timing oracle"):
        sensor, _ = clean
        videos = read_videos_csv(scenario.paths["videos"])
        cut, report = build_clip_specs(trajectories, sensor, videos)
        assert not report["unclippable"]
        assert len(cut) == len(trajectories)
        assert (np.abs(cut.overlay_on_s - 3.0) <= SAMPLE_PERIOD_S).all()
        assert (np.abs(cut.overlay_off_s - 7.0) <= SAMPLE_PERIOD_S).all()
        assert (np.abs(cut.duration_s - 10.0) <= SAMPLE_PERIOD_S).all()
        participants = read_demographics(scenario.paths["demographics"])
        rows, _, _ = build_review_template(trajectories, cut, participants)
        overlay_by_id = dict(zip(cut.traj_id, cut.overlay_on_s.tolist()))
        for traj_id, jump_to_ref in zip(rows["stop_traj_id"], rows["jump_to_ref"]):
            assert jump_to_ref == overlay_by_id[traj_id]


def test_criterion_6_round_trip_fidelity(scenario, clean, tmp_path, trajectories):
    with criterion(6, "round-trip fidelity"):
        sensor, detections = clean
        network = load_network_geojson(scenario.paths["network"])
        candidates = extract_lrs_candidates(network)
        visited, _ = match_clusters(*cluster_detections(last_in_runs(detections)), candidates)
        kml_path = tmp_path / "candidates.kml"
        export_candidates_kml(visited, kml_path)
        points = parse_kml_features(kml_path).points
        assert [int(name) for name in points.names] == visited.intxn_id
        for lat, lon, v in zip(points.lat.tolist(), points.lon.tolist(), candidate_rows(visited)):
            assert abs(lat - v.pos.lat_deg) <= 1e-6
            assert abs(lon - v.pos.lon_deg) <= 1e-6

        videos = read_videos_csv(scenario.paths["videos"])
        cut, _ = build_clip_specs(trajectories, sensor, videos)
        cutlist_path = tmp_path / "cutlist.json"
        emit_cutlist(cut, cutlist_path)
        restored = parse_cutlist(cutlist_path)
        assert restored == cut and restored.traj_id == sorted(trajectories.traj_ids())
        for key in ("in_offset_s", "duration_s", "overlay_on_s", "overlay_off_s"):
            times = getattr(restored, key)
            assert (times == np.round(times, 3)).all()


def _data_outputs(ws):
    return {
        str(p.relative_to(ws)): p.read_bytes()
        for p in sorted((ws / "out").rglob("*"))
        if p.is_file() and not p.name.endswith(".report.json")
    }


def test_criterion_7_determinism(tmp_path):
    with criterion(7, "stage determinism"):
        ws1 = tmp_path / "ws1"
        ws2 = tmp_path / "ws2"
        for ws in (ws1, ws2):
            ws.mkdir()
            config = ws / "pipeline.json"
            config.write_text("{}")
            assert main(["synth", "--config", str(config)]) == 0
            assert main(["all", "--config", str(config)]) == 0
        baseline = _data_outputs(ws1)
        assert _data_outputs(ws2) == baseline

        # Rerun in place: no output byte may change.
        assert main(["all", "--config", str(ws1 / "pipeline.json")]) == 0
        assert _data_outputs(ws1) == baseline

        # --jobs is accepted and ignored.
        assert main(["all", "--config", str(ws1 / "pipeline.json"), "--jobs", "4"]) == 0
        assert _data_outputs(ws1) == baseline

        # Input file permutation must not affect output bytes.
        permuted = ws1 / "permuted.json"
        permuted.write_text(
            json.dumps(
                {
                    "inputs": {
                        "sensor_files": ["sensor/S02.csv", "sensor/S01.csv"],
                        "cv_files": ["cv/S02.csv", "cv/S01.csv"],
                    }
                }
            )
        )
        assert main(["all", "--config", str(permuted)]) == 0
        assert _data_outputs(ws1) == baseline


def test_criterion_8_wall_time():
    with criterion(8, "end-to-end wall time"):
        assert time.perf_counter() - _SUITE_START < 60.0
