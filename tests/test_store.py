"""The store of stage outputs: what a stage writes is what its reader returns.

``clean``, ``import-review``, ``traj`` and ``clips`` put the objects they
wrote into ``cli._store``, keyed by the sha256 of the bytes ``atomic_write``
wrote, and later stages of the same process take them from it instead of parsing the
files again. Each stored object must equal what its reader returns from the
file; a file changed between two stages must be parsed again; and running
the stages as separate processes must give the same workspace as running
``all`` in one.
"""

import csv
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import table_of

import intxn_pipeline
from intxn_pipeline import cli, clips, ingest, review, storage, trajectory
from intxn_pipeline.clips import ClipSpec
from intxn_pipeline.ingest import SensorTable, to_us
from intxn_pipeline.trajectory import TrajectoryTable

# Subjects as a raw file may spell them: quotes, commas and line breaks
# among letters, spaces and any other character.
SUBJECTS = st.lists(
    st.sampled_from(['"', ",", "\n", "\r", "\r\n", " ", "A", "b"])
    | st.characters(blacklist_categories=("Cs",)),
    min_size=1,
    max_size=5,
).map("".join)
# Drives beyond int64 included.
DRIVES = st.sampled_from([1, 2]) | st.integers(-(2**70), 2**70)
T0 = datetime(2019, 5, 1, 12, tzinfo=timezone.utc)
# Raw times to the microsecond, a few drawn within one millisecond.
OFFSETS_US = st.integers(0, 3_000) | st.integers(0, 600_000_000)


def _raw_csv(header, rows):
    out = io.StringIO(newline="")
    csv.writer(out, lineterminator="\n").writerows([header, *rows])
    return out.getvalue()


def _stamp(offset_us):
    return (T0 + timedelta(microseconds=offset_us)).isoformat(timespec="microseconds")[:-6] + "Z"


@st.composite
def raw_study(draw):
    """The text of one raw sensor file and one raw detection file of the same
    drives, either possibly without data rows."""
    keys = draw(st.lists(st.tuples(SUBJECTS, DRIVES), min_size=1, max_size=3))
    sensor, detections = [], []
    for _ in range(draw(st.integers(0, 12))):
        subj, drive = draw(st.sampled_from(keys))
        at = draw(OFFSETS_US)
        sensor.append(
            [subj, drive, _stamp(at), draw(st.floats(-90, 90)), draw(st.floats(-180, 180)),
             draw(st.floats(0, 359.9)), draw(st.floats(0, 100))]
        )
        if draw(st.booleans()):
            near = at + draw(st.integers(-600_000, 600_000))
            detections.append(
                [subj, drive, _stamp(max(near, 0)), draw(st.sampled_from(ingest.OBJECT_CLASSES)),
                 draw(st.floats(0, 1))]
            )
    return (
        _raw_csv(ingest.SENSOR_COLUMNS, sensor),
        _raw_csv(ingest.DETECTION_COLUMNS, detections),
    )


@settings(max_examples=150, deadline=None)
@given(raw_study())
def test_clean_stores_what_its_files_read_back(study):
    sensor_text, cv_text = study
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_store", storage.Store())
        ws = Path(tmp)
        for name, text in (("sensor", sensor_text), ("cv", cv_text)):
            (ws / name).mkdir()
            (ws / name / "a.csv").write_text(text, encoding="utf-8", newline="")
        (ws / "pipeline.json").write_text("{}")
        assert cli.main(["clean", "--config", str(ws / "pipeline.json")]) == 0
        for key, read in (
            ("clean_sensor", ingest.read_clean_sensor),
            ("clean_cv", ingest.read_clean_detections),
        ):
            path = ws / "out" / f"{key}.csv"
            digest, stored = cli._store[key]
            assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
            assert read(path) == stored


@st.composite
def windows(draw):
    """A clean sensor table and trajectory windows cut from it as the
    extractor cuts them, in its (subj, drive, intxn_id) order."""
    records = []
    for subj, drive in draw(st.lists(st.tuples(SUBJECTS, DRIVES), max_size=3, unique=True)):
        times = draw(st.lists(st.integers(0, 10**7), min_size=1, max_size=8, unique=True))
        records += [
            (subj, drive, to_us(T0 + timedelta(milliseconds=ms)), 41.0, -96.0, 0.0, 0.0, float(k))
            for k, ms in enumerate(sorted(times))
        ]
    sensor = table_of(SensorTable, records)
    rows = []
    for key, first, stop in zip(sensor.keys, sensor.offsets, sensor.offsets[1:]):
        for intxn_id in draw(st.lists(st.integers(-5, 2**40), max_size=3, unique=True)):
            left, ref, right = sorted(draw(st.integers(first, stop - 1)) for _ in range(3))
            rows.append((*key, intxn_id, draw(st.integers(0, 9)), ref, left, right + 1))
    columns = zip(*rows) if rows else [[]] * 7
    return sensor, TrajectoryTable.from_columns(*columns, sensor=sensor)


@settings(max_examples=150, deadline=None)
@given(windows())
def test_stored_trajectories_are_what_their_file_reads_back(case):
    sensor, trajs = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trajectories.csv"
        trajectory.write_trajectories_csv(trajs, path)
        assert trajectory.load_trajectories_csv(path, sensor) == trajs


@st.composite
def clip_specs(draw):
    """Clip specs as build_clip_specs makes them: times in whole milliseconds,
    up to the span of all datetimes, and a duration of at least one."""
    specs = []
    ms = st.integers(0, 316 * 10**12)
    for traj_id in draw(st.lists(SUBJECTS, max_size=5, unique=True)):
        duration = draw(st.integers(1, 316 * 10**12))
        on, off = sorted(draw(st.integers(0, duration)) for _ in range(2))
        specs.append(
            ClipSpec(
                traj_id, draw(SUBJECTS), draw(ms) / 1000, duration / 1000, on / 1000, off / 1000,
                f"{traj_id}.mp4",
            )
        )
    return specs


@settings(max_examples=200, deadline=None)
@given(clip_specs())
def test_stored_cutlist_is_what_its_file_reads_back(specs):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cutlist.json"
        stored = clips.emit_cutlist(specs, path)
        assert clips.parse_cutlist(path) == stored


@settings(max_examples=500, deadline=None)
@given(st.datetimes(), st.datetimes())
def test_a_clip_time_prints_alike_rounded_to_the_millisecond(a, b):
    # build_clip_specs stores times rounded as the cut-list holds them; the
    # cut-list and its script must print them as they printed unrounded.
    seconds = abs((b - a).total_seconds())
    assert f"{clips._written(seconds):.3f}" == f"{seconds:.3f}"


# --- Stages of one process ------------------------------------------------------

READERS = {
    "clean_sensor": lambda out: ingest.read_clean_sensor(out / "clean_sensor.csv"),
    "clean_cv": lambda out: ingest.read_clean_detections(out / "clean_cv.csv"),
    "trajectories": lambda out: trajectory.load_trajectories_csv(
        out / "trajectories.csv", ingest.read_clean_sensor(out / "clean_sensor.csv")
    ),
    "cutlist": lambda out: clips.parse_cutlist(out / "cutlist.json"),
    "reviewed": lambda out: review.load_reviewed_json(out / "reviewed.json"),
}


def _run(config, *stages):
    for stage in stages:
        assert cli.main([stage, "--config", str(config)]) == 0, stage


@pytest.fixture()
def study(tmp_path, monkeypatch):
    """A synth study and an empty store."""
    monkeypatch.setattr(cli, "_store", storage.Store())
    config = tmp_path / "pipeline.json"
    config.write_text("{}")
    _run(config, "synth")
    return tmp_path, config


def test_all_stores_what_every_file_reads_back(study, monkeypatch):
    ws, config = study
    _run(config, "all")
    out = ws / "out"
    assert set(cli._store) == set(READERS)
    for key, read in READERS.items():
        assert cli._store[key][1] == read(out), key
    # Later stages took every output from the store.
    parses = []
    for name in ("read_clean_sensor", "read_clean_detections"):
        monkeypatch.setattr(ingest, name, lambda *a, name=name: parses.append(name))
    monkeypatch.setattr(trajectory, "load_trajectories_csv", lambda *a, **k: parses.append("traj"))
    monkeypatch.setattr(clips, "parse_cutlist", lambda *a: parses.append("cutlist"))
    monkeypatch.setattr(review, "load_reviewed_json", lambda *a: parses.append("reviewed"))
    _run(config, "subj-intxns", "traj", "clips", "template")
    assert parses == []


def test_a_hand_edited_trajectory_table_is_parsed_again(study):
    ws, config = study
    _run(config, "clean", "lrs-intxns", "subj-intxns", "export-kml", "import-review", "traj")
    path = ws / "out" / "trajectories.csv"
    header, *rows = path.read_text().splitlines(keepends=True)
    dropped = rows.pop().split(",")[0]
    path.write_text(header + "".join(rows))
    _run(config, "clips", "template")
    assert cli._store["trajectories"][1] == READERS["trajectories"](ws / "out")
    cut = [spec.traj_id for spec in clips.parse_cutlist(ws / "out" / "cutlist.json")]
    assert len(cut) == len(rows) and dropped not in cut
    template = (ws / "out" / "review_template.csv").read_text().splitlines()
    assert len(template) == 1 + len(rows)


def test_a_hand_edited_cutlist_is_parsed_again(study):
    ws, config = study
    _run(config, "all")
    path = ws / "out" / "cutlist.json"
    entries = json.loads(path.read_text())
    entries[0]["overlay_on_s"] = 0.123
    path.write_text(json.dumps(entries))
    _run(config, "template")
    text = (ws / "out" / "review_template.csv").read_text()
    rows = list(csv.DictReader(io.StringIO(text, newline="")))
    (row,) = [r for r in rows if r["stop_traj_id"] == entries[0]["traj_id"]]
    assert row["jump_to_ref"] == "0.123"


def test_a_rewritten_sensor_table_invalidates_the_stored_trajectories(study):
    ws, config = study
    _run(config, "all")
    before = cli._store["trajectories"][1]
    sensor_path = ws / "out" / "clean_sensor.csv"
    sensor = ingest.read_clean_sensor(sensor_path)
    cum = sensor.cum * 2
    cum.flags.writeable = False
    ingest.write_sensor_csv(replace(sensor, cum=cum), sensor_path)
    cutlist = (ws / "out" / "cutlist.json").read_bytes()
    _run(config, "clips")
    after = cli._store["trajectories"][1]
    assert after == READERS["trajectories"](ws / "out") != before
    assert after.sensor.cum[after.ref[0]] == 2 * before.sensor.cum[before.ref[0]]
    assert (ws / "out" / "cutlist.json").read_bytes() != cutlist


def _workspace(ws):
    """Every output file: data files by bytes, reports less their wall time."""
    found = {}
    for path in sorted((ws / "out").rglob("*")):
        if path.name.endswith(".report.json"):
            report = json.loads(path.read_text())
            del report["wall_time_s"]
            found[path.name] = report
        elif path.is_file():
            found[path.name] = path.read_bytes()
    return found


def test_separate_processes_give_the_workspace_of_one(study):
    ws, config = study
    _run(config, "all")
    together = _workspace(ws)
    shutil.rmtree(ws / "out")
    env = dict(os.environ, PYTHONPATH=str(Path(intxn_pipeline.__file__).parents[1]))
    for stage in cli.PRE_REVIEW_STAGES + cli.POST_REVIEW_STAGES:
        subprocess.run(
            [sys.executable, "-m", "intxn_pipeline.cli", stage, "--config", str(config)],
            check=True, env=env, stdout=subprocess.DEVNULL, timeout=120,
        )
    assert _workspace(ws) == together
