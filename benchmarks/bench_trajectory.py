"""Micro-benchmarks of the post-review stages: trajectories, clips, template.

Run with ``python -m pytest benchmarks/bench_trajectory.py``. The file name
keeps it out of the default test collection.

The study has perfbench's crowded-junctions shape: 50 subjects drive 25
times each past three controlled junctions, sampled at 0.5 Hz, which gives
3,750 trajectories of about six points each. The sensor table is the one
the traj stage gets, as the clean file holds it. Each bench times one
layer's call in memory, seven rounds: extraction, writing the trajectory
CSV, building the clip specs, writing the cut-list and its script, and
building the review template.
"""

import io

import pytest

from intxn_pipeline.clips import build_clip_specs, emit_cutlist, read_videos_csv
from intxn_pipeline.ingest import clean_sensor, write_sensor_csv
from intxn_pipeline.review import build_review_template, import_reviewed_kml, read_demographics
from intxn_pipeline.synth import ScenarioSpec, generate
from intxn_pipeline.trajectory import (
    assign_bearings,
    extract_trajectories,
    write_trajectories_csv,
)

CROWDED = ScenarioSpec(grid_rows=3, grid_cols=4, n_subjects=50, drives_per_subject=25, sample_hz=0.5)
ROUNDS = 7


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    scenario = generate(CROWDED, tmp_path_factory.mktemp("crowded"))
    sensor = clean_sensor([str(p) for p in scenario.paths["sensor_files"]])[0]
    sensor = write_sensor_csv(sensor, io.StringIO(newline=""))
    reviewed = assign_bearings(import_reviewed_kml(scenario.paths["reviewed_kml"])[0])
    return {
        "expected": len(scenario.ground_truth.trajectories),
        "sensor": sensor,
        "reviewed": reviewed,
        "videos": read_videos_csv(scenario.paths["videos"]),
        "participants": read_demographics(scenario.paths["demographics"]),
    }


@pytest.fixture(scope="module")
def trajs(study):
    return extract_trajectories(study["sensor"], study["reviewed"])[0]


@pytest.fixture(scope="module")
def specs(study, trajs):
    return build_clip_specs(trajs, study["videos"])[0]


def test_extract_trajectories(benchmark, study):
    trajs, _ = benchmark.pedantic(
        extract_trajectories, (study["sensor"], study["reviewed"]), rounds=ROUNDS
    )
    assert len(trajs) == study["expected"] == 3750


def test_write_trajectories_csv(benchmark, trajs):
    def write():
        buf = io.StringIO(newline="")
        write_trajectories_csv(trajs, buf)
        return buf

    assert benchmark.pedantic(write, rounds=ROUNDS).getvalue().count("\n") == len(trajs) + 1


def test_build_clip_specs(benchmark, study, trajs):
    specs, report = benchmark.pedantic(build_clip_specs, (trajs, study["videos"]), rounds=ROUNDS)
    assert len(specs) == len(trajs) and not report["unclippable"]


def test_emit_cutlist(benchmark, specs):
    def emit():
        return emit_cutlist(specs, io.StringIO(newline=""), io.StringIO(newline=""))

    assert len(benchmark.pedantic(emit, rounds=ROUNDS)) == len(specs)


def test_build_review_template(benchmark, study, trajs, specs):
    rows, _, warnings = benchmark.pedantic(
        build_review_template, (trajs, specs, study["participants"]), rounds=ROUNDS
    )
    assert len(rows["stop_traj_id"]) == len(trajs) and not warnings["missing_demographics"]
