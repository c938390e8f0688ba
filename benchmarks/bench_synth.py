"""Micro-benchmarks of the synthetic generator and the JSON writer.

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_synth.py``. The
file name keeps it out of the default test collection.

The generate bench writes perfbench's dense-drives scenario (48 drives of
1,201 samples at 10 Hz: 57,648 sensor rows) to a file tree, as the synth
stage does. The JSON bench writes the ground-truth document of perfbench's
crowded-junctions scenario (3,750 expected trajectories) to a file through
``storage.write_json``, so it measures the encoder, the writes into the
text wrapper and the hashed atomic write.
"""

import pytest

from intxn_pipeline.storage import write_json
from intxn_pipeline.synth import ScenarioSpec, _ground_truth_json, generate

DENSE_DRIVES = ScenarioSpec(
    grid_rows=3, grid_cols=6, n_subjects=6, drives_per_subject=8, sample_hz=10.0
)
CROWDED_JUNCTIONS = ScenarioSpec(
    grid_rows=3, grid_cols=4, n_subjects=50, drives_per_subject=25, sample_hz=0.5
)


def test_generate_dense_drives(benchmark, tmp_path):
    scenario = benchmark(generate, DENSE_DRIVES, tmp_path)
    assert len(scenario.ground_truth.trajectories) == 6 * 8 * 5


@pytest.fixture(scope="module")
def crowded_truth(tmp_path_factory):
    scenario = generate(CROWDED_JUNCTIONS, tmp_path_factory.mktemp("crowded"))
    return _ground_truth_json(scenario.ground_truth)


def test_write_json_crowded_ground_truth(benchmark, tmp_path, crowded_truth):
    path = tmp_path / "ground_truth.json"
    benchmark(write_json, crowded_truth, path)
    assert len(crowded_truth["trajectories"]) == 50 * 25 * 3
    assert path.stat().st_size > 1_000_000
