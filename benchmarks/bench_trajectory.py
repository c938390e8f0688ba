"""Micro-benchmarks of the post-review stages: trajectories, clips, template.

Run with ``python -m pytest benchmarks/bench_trajectory.py``. The file name
keeps it out of the default test collection.

The study has perfbench's crowded-junctions shape: 50 subjects drive 25
times each past three controlled junctions, sampled at 0.5 Hz, which gives
3,750 trajectories of about six points each. The sensor table is the one
the traj stage gets, as the clean file holds it. Each bench times one
layer's call in memory, seven rounds: extraction, cutting the windows from
the sensor table by their times, writing the trajectory CSV (also with a
comma in every subject, so that every subj and traj_id is quoted),
building the cut-list, writing it and its script, and building and
writing the review template.
"""

import io
from dataclasses import replace

import pytest

from intxn_pipeline.clips import build_clip_specs, emit_cutlist, read_videos_csv
from intxn_pipeline.ingest import clean_sensor, write_sensor_csv
from intxn_pipeline.review import (
    build_review_template,
    import_reviewed_kml,
    read_demographics,
    write_review_csv,
)
from intxn_pipeline.synth import ScenarioSpec, generate
from intxn_pipeline.trajectory import extract_trajectories, windows, write_trajectories_csv

CROWDED = ScenarioSpec(grid_rows=3, grid_cols=4, n_subjects=50, drives_per_subject=25, sample_hz=0.5)
ROUNDS = 7


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    scenario = generate(CROWDED, tmp_path_factory.mktemp("crowded"))
    sensor = clean_sensor([str(p) for p in scenario.paths["sensor_files"]])[0]
    sensor = write_sensor_csv(sensor, io.StringIO(newline=""))
    reviewed = import_reviewed_kml(scenario.paths["reviewed_kml"])[0]
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
def cut(study, trajs):
    return build_clip_specs(trajs, study["sensor"], study["videos"])[0]


def test_extract_trajectories(benchmark, study):
    trajs, _ = benchmark.pedantic(
        extract_trajectories, (study["sensor"], study["reviewed"]), rounds=ROUNDS
    )
    assert len(trajs) == study["expected"] == 3750


def test_windows(benchmark, study, trajs):
    ref, start, stop = benchmark.pedantic(windows, (trajs, study["sensor"]), rounds=ROUNDS)
    assert len(ref) == len(trajs) and (start <= ref).all() and (ref < stop).all()


def test_write_trajectories_csv(benchmark, study, trajs):
    def write():
        buf = io.StringIO(newline="")
        write_trajectories_csv(trajs, study["sensor"], buf)
        return buf

    assert benchmark.pedantic(write, rounds=ROUNDS).getvalue().count("\n") == len(trajs) + 1


def test_write_trajectories_csv_quoted(benchmark, study, trajs):
    # The worst case for the writer's quoting: every subj column and traj_id
    # column of every chunk needs quotes.
    quoted, sensor = (
        replace(table, keys=[(f"{subj},x", drive) for subj, drive in table.keys])
        for table in (trajs, study["sensor"])
    )

    def write():
        buf = io.StringIO(newline="")
        write_trajectories_csv(quoted, sensor, buf)
        return buf

    text = benchmark.pedantic(write, rounds=ROUNDS).getvalue()
    assert text.count("\n") == len(trajs) + 1 and text.count('"') == 4 * len(trajs)


def test_build_clip_specs(benchmark, study, trajs):
    args = (trajs, study["sensor"], study["videos"])
    cut, report = benchmark.pedantic(build_clip_specs, args, rounds=ROUNDS)
    assert len(cut) == len(trajs) and not report["unclippable"]


def test_emit_cutlist(benchmark, cut):
    def emit():
        out = [io.StringIO(newline=""), io.StringIO(newline="")]
        emit_cutlist(cut, *out)
        return out

    cutlist, script = benchmark.pedantic(emit, rounds=ROUNDS)
    assert cutlist.getvalue().count("\n") == len(cut) + 2 == script.getvalue().count("\n") + 2


def test_build_review_template(benchmark, study, trajs, cut):
    rows, _, warnings = benchmark.pedantic(
        build_review_template, (trajs, cut, study["participants"]), rounds=ROUNDS
    )
    assert len(rows["stop_traj_id"]) == len(trajs) and not warnings["missing_demographics"]


def test_write_review_csv(benchmark, study, trajs, cut):
    columns, _, _ = build_review_template(trajs, cut, study["participants"])

    def write():
        buf = io.StringIO(newline="")
        write_review_csv(columns, [], buf)
        return buf

    assert benchmark.pedantic(write, rounds=ROUNDS).getvalue().count("\n") == len(trajs) + 1
