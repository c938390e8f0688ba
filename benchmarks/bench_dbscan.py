"""Micro-benchmarks of discovery: the grid DBSCAN on a crowded and a spread
scene, and the columnar candidate, cluster-center and match passes.

Run with ``python -m pytest benchmarks/bench_dbscan.py``. The file name
keeps it out of the default test collection.

The crowded scene is what last-in-run detections look like at a few busy
junctions: every sighting of a junction at one position, so each junction is
one cell of ~1,250 points that is core without a distance test. The
junctions scene spreads each junction's sightings over a 150 ft square, a
dozen crowded cells that must join. The spread scene is 2,000 points
uniform over a 2,000 ft square, mostly one or two points a cell, so the
per-point neighbor counts and cross-cell merges do the work. The wide grid
is perfbench's wide-grid network: 12 x 40 junctions, 476 candidates, 390 of
them on the drives' rows; at 48 and 192 rows it shows how the candidate and
match passes grow with the network.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from intxn_pipeline.discovery import (
    cluster_detections,
    dbscan_labels,
    extract_lrs_candidates,
    load_network_geojson,
    match_clusters,
)
from intxn_pipeline.geo import FT_PER_DEG, centroids
from intxn_pipeline.ingest import CLASS_NAMES, DetectionTable
from intxn_pipeline.synth import ScenarioSpec, generate

LAT0, LON0 = 41.0, -96.0
COS0 = math.cos(math.radians(LAT0))
WIDE_SPEC = ScenarioSpec(grid_rows=12, grid_cols=40, n_subjects=1, drives_per_subject=10)


def _scene(north_ft, east_ft):
    return LAT0 + north_ft / FT_PER_DEG, LON0 + east_ft / (FT_PER_DEG * COS0)


@pytest.fixture(scope="module")
def crowded():
    rng = np.random.default_rng(0)
    junctions = np.array([[0.0, 0.0], [0.0, 1500.0], [1500.0, 0.0]])
    picks = junctions[rng.permutation(np.repeat(np.arange(3), 1250))]
    return _scene(picks[:, 0], picks[:, 1])


@pytest.fixture(scope="module")
def junctions():
    rng = np.random.default_rng(1)
    sites = np.array([[0.0, 0.0], [0.0, 1500.0], [1500.0, 0.0]])
    picks = sites[np.repeat(np.arange(3), 1250)] + rng.uniform(-75.0, 75.0, (3750, 2))
    return _scene(picks[:, 0], picks[:, 1])


@pytest.fixture(scope="module")
def spread():
    rng = np.random.default_rng(0)
    return _scene(rng.uniform(0, 2000, 2000), rng.uniform(0, 2000, 2000))


@pytest.fixture(scope="module", params=[12, 48, 192])
def wide(request, tmp_path_factory):
    """The wide grid's network at 12, 48 and 192 rows, and the synth ground
    truth of its scenario."""
    spec = replace(WIDE_SPEC, grid_rows=request.param)
    scenario = generate(spec, tmp_path_factory.mktemp(f"wide{request.param}"))
    return load_network_geojson(scenario.paths["network"]), scenario.ground_truth


def test_dbscan_crowded(benchmark, crowded):
    labels = benchmark(dbscan_labels, *crowded, 100.0, 2)
    assert sorted(set(labels.tolist())) == [0, 1, 2]


def test_dbscan_junctions(benchmark, junctions):
    labels = benchmark(dbscan_labels, *junctions, 100.0, 2)
    assert sorted(set(labels.tolist())) == [0, 1, 2]


def test_dbscan_spread(benchmark, spread):
    labels = benchmark(dbscan_labels, *spread, 100.0, 2)
    assert len(labels) == len(spread[0])


def test_extract_lrs_candidates_wide(benchmark, wide):
    network, truth = wide
    candidates = benchmark(extract_lrs_candidates, network)
    assert candidates.intxn_id == truth.candidates.intxn_id


def test_match_clusters_wide(benchmark, wide):
    # A center 20 ft east of each of the 390 junctions the drives pass.
    _, truth = wide
    cands = truth.candidates
    at = np.array(truth.visited_ids) - 1
    lat, lon = cands.lat[at], cands.lon[at] + 20.0 / (FT_PER_DEG * COS0)
    visited, unmatched = benchmark(match_clusters, lat, lon, cands)
    assert visited.intxn_id == truth.visited_ids and not unmatched


def test_cluster_detections_crowded(benchmark, crowded):
    n = len(crowded[0])
    detections = DetectionTable.from_columns(
        ["S01"] * n, [1] * n, np.arange(n) * 1_000_000, *crowded,
        [CLASS_NAMES.index("stop_sign")] * n, [0.9] * n,
    )
    lat, lon = benchmark(cluster_detections, detections)
    assert len(lat) == len(lon) == 3


def test_centroids_skewed(benchmark):
    # One run of 3,000 vertices beside 2,000 runs of 3.
    rng = np.random.default_rng(0)
    first = np.cumsum([0, 3000] + [3] * 2000)
    lat, lon = _scene(rng.uniform(0, 50, first[-1]), rng.uniform(0, 50, first[-1]))
    means = benchmark(centroids, lat, lon, first)
    assert means.shape == (2, 2001)
