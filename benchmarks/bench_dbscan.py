"""Micro-benchmarks of the grid DBSCAN on a crowded and a spread scene.

Run with ``python -m pytest benchmarks/bench_dbscan.py``. The file name
keeps it out of the default test collection.

The crowded scene is what last-in-run detections look like at a few busy
junctions: every sighting of a junction at one position, so each junction is
one cell of ~1,250 points that is core without a distance test. The spread
scene is 2,000 points uniform over a 2,000 ft square, mostly one or two
points a cell, so the per-point neighbor counts and cross-cell merges do
the work.
"""

import math

import numpy as np
import pytest

from intxn_pipeline.discovery import dbscan_labels
from intxn_pipeline.geo import FT_PER_DEG

LAT0, LON0 = 41.0, -96.0
COS0 = math.cos(math.radians(LAT0))


def _scene(north_ft, east_ft):
    return LAT0 + north_ft / FT_PER_DEG, LON0 + east_ft / (FT_PER_DEG * COS0)


@pytest.fixture(scope="module")
def crowded():
    rng = np.random.default_rng(0)
    junctions = np.array([[0.0, 0.0], [0.0, 1500.0], [1500.0, 0.0]])
    picks = junctions[rng.permutation(np.repeat(np.arange(3), 1250))]
    return _scene(picks[:, 0], picks[:, 1])


@pytest.fixture(scope="module")
def spread():
    rng = np.random.default_rng(0)
    return _scene(rng.uniform(0, 2000, 2000), rng.uniform(0, 2000, 2000))


def test_dbscan_crowded(benchmark, crowded):
    labels = benchmark(dbscan_labels, *crowded, 100.0, 2)
    assert sorted(set(labels.tolist())) == [0, 1, 2]


def test_dbscan_spread(benchmark, spread):
    labels = benchmark(dbscan_labels, *spread, 100.0, 2)
    assert len(labels) == len(spread[0])
