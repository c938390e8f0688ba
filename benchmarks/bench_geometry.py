"""Micro-benchmarks of the geometry layer: polygon tests and the indexed joins.

Run with ``python -m pytest benchmarks/bench_geometry.py``. The file name
keeps it out of the default test collection.
"""

import numpy as np
import pytest

from intxn_pipeline.geo import (
    ON_EDGE_TOL_DEG,
    CellGrid,
    GeoPoint,
    angular_difference_deg,
    in_box,
    point_in_polygon,
)
from intxn_pipeline.ingest import clean_sensor
from intxn_pipeline.review import import_reviewed_kml
from intxn_pipeline.synth import ScenarioSpec, generate
from intxn_pipeline.trajectory import LEG_CELL_FT, _entering_bearing, extract_trajectories

SPEC = ScenarioSpec(grid_rows=4, grid_cols=12, n_subjects=2, drives_per_subject=4)
# The shape of perfbench's wide-grid workload: 390 reviewed legs, where a
# per-leg set-up cost shows.
WIDE_SPEC = ScenarioSpec(
    grid_rows=12, grid_cols=40, n_subjects=4, drives_per_subject=10, sample_hz=1.0
)


def _scenario(spec, tmp_path_factory):
    scenario = generate(spec, tmp_path_factory.mktemp("bench"))
    sensor, _, _ = clean_sensor([str(p) for p in scenario.paths["sensor_files"]])
    reviewed, _ = import_reviewed_kml(scenario.paths["reviewed_kml"])
    return scenario, sensor, reviewed


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    return _scenario(SPEC, tmp_path_factory)


@pytest.fixture(scope="module")
def wide_scenario(tmp_path_factory):
    return _scenario(WIDE_SPEC, tmp_path_factory)


def test_point_in_polygon(benchmark, scenario):
    _, sensor, reviewed = scenario
    ring = reviewed[0].approaches[0].polygon
    points = list(map(GeoPoint, sensor.lat[:500].tolist(), sensor.lon[:500].tolist()))
    benchmark(lambda: [point_in_polygon(p, ring) for p in points])


def test_indexed_leg_lookup(benchmark, scenario):
    # The candidate search of the trajectory stage: cells, box and heading
    # gate for every leg, without the exact polygon test.
    _, sensor, reviewed = scenario
    lats, lons, headings = sensor.lat, sensor.lon, sensor.heading
    grid = CellGrid(lats, lons, LEG_CELL_FT)
    legs = [(leg, _entering_bearing(intxn, leg)) for intxn in reviewed for leg in intxn.approaches]

    def lookup():
        found = 0
        for leg, bearing in legs:
            box = leg.polygon.bounds(ON_EDGE_TOL_DEG)
            idx = grid.overlapping(box)
            keep = in_box(box, lats[idx], lons[idx])
            keep &= angular_difference_deg(headings[idx], bearing) <= 45.0
            found += int(keep.sum())
        return found

    assert benchmark(lookup) > 0


def test_extract_trajectories(benchmark, scenario):
    scn, sensor, reviewed = scenario
    trajs, _ = benchmark(extract_trajectories, sensor, reviewed)
    assert len(trajs) == len(scn.ground_truth.trajectories)


def test_import_reviewed_kml(benchmark, scenario):
    scn, _, reviewed = scenario
    result, rejects = benchmark(import_reviewed_kml, scn.paths["reviewed_kml"])
    assert len(result) == len(reviewed) and not rejects


def test_extract_trajectories_wide(benchmark, wide_scenario):
    test_extract_trajectories(benchmark, wide_scenario)


def test_import_reviewed_kml_wide(benchmark, wide_scenario):
    test_import_reviewed_kml(benchmark, wide_scenario)


def test_cell_grid_build(benchmark):
    rng = np.random.default_rng(0)
    lats = 41.0 + rng.random(20_000) * 0.03
    lons = -96.0 + rng.random(20_000) * 0.1
    grid = benchmark(CellGrid, lats, lons, LEG_CELL_FT)
    assert grid.block(41.01, -95.95).size > 0
