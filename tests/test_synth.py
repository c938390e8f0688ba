from collections import Counter

import pytest

from intxn_pipeline.geo import GeoPoint
from intxn_pipeline.ingest import clean_cv, clean_sensor
from intxn_pipeline.synth import ScenarioSpec, generate


def test_grid_junction_and_candidate_counts(tmp_path):
    scenario = generate(ScenarioSpec(), tmp_path)
    gt = scenario.ground_truth
    assert len(gt.junctions) == 16
    # Brute-force oracle: degree = number of polyline vertices coincident
    # with each junction across the generated network.
    vertex_counts = Counter()
    for _, points in scenario.network.polylines:
        for p in points:
            vertex_counts[(p.lat_deg, p.lon_deg)] += 1
    for pos, degree in gt.junctions:
        assert vertex_counts[(pos.lat_deg, pos.lon_deg)] == degree
    # 4x4 grid: 4 corners of degree 2 are excluded, 12 candidates remain.
    assert len(gt.candidates) == 12
    assert all(c.degree >= 3 for c in gt.candidates)
    assert sorted(c.intxn_id for c in gt.candidates) == list(range(1, 13))


def test_drive_passes_three_controlled_junctions(tmp_path):
    scenario = generate(ScenarioSpec(), tmp_path)
    gt = scenario.ground_truth
    assert set(gt.traj_counts.values()) == {3}
    assert len(gt.traj_counts) == 4  # 2 subjects x 2 drives
    assert len(gt.trajectories) == 12
    assert len(gt.visited_ids) == 6


def test_same_seed_byte_identical(tmp_path):
    a = generate(ScenarioSpec(seed=3), tmp_path / "a")
    b = generate(ScenarioSpec(seed=3), tmp_path / "b")
    files_a = sorted(p for p in (tmp_path / "a").rglob("*") if p.is_file())
    files_b = sorted(p for p in (tmp_path / "b").rglob("*") if p.is_file())
    assert [p.relative_to(tmp_path / "a") for p in files_a] == [
        p.relative_to(tmp_path / "b") for p in files_b
    ]
    for pa, pb in zip(files_a, files_b):
        assert pa.read_bytes() == pb.read_bytes(), pa.name
    assert a.ground_truth.visited_ids == b.ground_truth.visited_ids


def test_generated_tables_clean_without_drops(tmp_path):
    scenario = generate(ScenarioSpec(), tmp_path)
    sensor, sensor_drops, _ = clean_sensor([str(p) for p in scenario.paths["sensor_files"]])
    assert sum(sensor_drops.values()) == 0
    assert len(sensor) == 4 * 81  # 4 drives x 81 samples
    detections, cv_drops, _ = clean_cv(
        [str(p) for p in scenario.paths["cv_files"]], sensor
    )
    assert sum(cv_drops.values()) == 0
    # 4 detections per controlled junction pass, 3 junctions per drive.
    assert len(detections) == 4 * 3 * 4


def test_ground_truth_ids_consistent(tmp_path):
    scenario = generate(ScenarioSpec(), tmp_path)
    gt = scenario.ground_truth
    candidate_ids = {c.intxn_id for c in gt.candidates}
    assert set(gt.visited_ids) <= candidate_ids
    for traj in gt.trajectories.values():
        assert traj.intxn_id in set(gt.visited_ids)
        assert traj.duration_s == pytest.approx(10.0)
        assert traj.overlay_on_s == pytest.approx(3.0)
        assert traj.overlay_off_s == pytest.approx(7.0)
        assert traj.n_points == 11


def test_jitter_changes_positions_deterministically(tmp_path):
    a = generate(ScenarioSpec(jitter_ft=5.0, seed=1), tmp_path / "a")
    b = generate(ScenarioSpec(jitter_ft=5.0, seed=1), tmp_path / "b")
    clean = generate(ScenarioSpec(seed=1), tmp_path / "clean")
    jittered = (tmp_path / "a" / "sensor" / "S01.csv").read_bytes()
    assert jittered == (tmp_path / "b" / "sensor" / "S01.csv").read_bytes()
    assert jittered != (tmp_path / "clean" / "sensor" / "S01.csv").read_bytes()


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        ScenarioSpec(grid_rows=2)  # no row with 3+ way junctions to drive
    with pytest.raises(ValueError):
        ScenarioSpec(block_ft=-5)
    with pytest.raises(ValueError):
        ScenarioSpec(block_ft=1013.0)  # not a multiple of the sample spacing
    with pytest.raises(ValueError):
        ScenarioSpec(jitter_ft=-1)


def test_origin_override(tmp_path):
    spec = ScenarioSpec(origin=GeoPoint(35.0, -101.0))
    scenario = generate(spec, tmp_path)
    assert scenario.ground_truth.junctions[0][0] == GeoPoint(35.0, -101.0)
