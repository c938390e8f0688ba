"""The single I/O path: every reader and writer opens through ``storage.resolve_uri``."""

import ast
import csv
import io
import json
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import intxn_pipeline
from intxn_pipeline import clips, discovery, ingest, review, storage, trajectory
from intxn_pipeline.cli import main
from intxn_pipeline.geo import GeoPoint


@pytest.fixture(scope="module")
def pipeline_ws(tmp_path_factory):
    """A default synthetic study run through every stage once."""
    ws = tmp_path_factory.mktemp("study")
    config = ws / "pipeline.json"
    config.write_text("{}")
    assert main(["synth", "--config", str(config)]) == 0
    assert main(["all", "--config", str(config)]) == 0
    return ws


def _sensor(ws):
    return ingest.read_clean_sensor(ws / "out" / "clean_sensor.csv")


# (input file read into the caller's stream, or None for a writer; call(stream, ws))
STREAM_CASES = {
    "ingest.clean_sensor": ("sensor/*.csv", lambda s, ws: ingest.clean_sensor([s])),
    "ingest.clean_cv": ("cv/*.csv", lambda s, ws: ingest.clean_cv([s], _sensor(ws))),
    "ingest.read_clean_sensor": ("out/clean_sensor.csv", lambda s, ws: ingest.read_clean_sensor(s)),
    "ingest.read_clean_detections": (
        "out/clean_cv.csv",
        lambda s, ws: ingest.read_clean_detections(s),
    ),
    "ingest.write_sensor_csv": (None, lambda s, ws: ingest.write_sensor_csv(_sensor(ws), s)),
    "ingest.write_detections_csv": (
        None,
        lambda s, ws: ingest.write_detections_csv(
            ingest.read_clean_detections(ws / "out" / "clean_cv.csv"), s
        ),
    ),
    "discovery.load_geojson": ("out/lrs_candidates.geojson", lambda s, ws: discovery.load_geojson(s)),
    "discovery.load_network_geojson": (
        "network.geojson",
        lambda s, ws: discovery.load_network_geojson(s),
    ),
    "review.export_candidates_kml": (
        None,
        lambda s, ws: review.export_candidates_kml(
            discovery.visited_from_geojson(
                discovery.load_geojson(ws / "out" / "visited_candidates.geojson")
            ),
            s,
        ),
    ),
    "review.parse_kml_features": ("reviewed.kml", lambda s, ws: review.parse_kml_features(s)),
    "review.import_reviewed_kml": ("reviewed.kml", lambda s, ws: review.import_reviewed_kml(s)),
    "review.save_reviewed_json": (
        None,
        lambda s, ws: review.save_reviewed_json(
            review.load_reviewed_json(ws / "out" / "reviewed.json"), s
        ),
    ),
    "review.load_reviewed_json": ("out/reviewed.json", lambda s, ws: review.load_reviewed_json(s)),
    "review.read_demographics": ("demographics.csv", lambda s, ws: review.read_demographics(s)),
    "review.write_review_csv": (None, lambda s, ws: review.write_review_csv({}, [], s)),
    "storage.write_json": (None, lambda s, ws: storage.write_json({"features": []}, s)),
    # The stages' own JSON documents, which their modules once wrote with their
    # own writers (the case names are kept); both now go through storage.write_json.
    "discovery.save_geojson": (
        None,
        lambda s, ws: storage.write_json(
            discovery.load_geojson(ws / "out" / "lrs_candidates.geojson"), s
        ),
    ),
    "review.write_validation_manifest": (
        None,
        lambda s, ws: storage.write_json(
            json.loads((ws / "out" / "review_template.validation.json").read_text()), s
        ),
    ),
    "trajectory.write_trajectories_csv": (
        None,
        lambda s, ws: trajectory.write_trajectories_csv(
            trajectory.load_trajectories_csv(ws / "out" / "trajectories.csv", _sensor(ws)), s
        ),
    ),
    "trajectory.load_trajectories_csv": (
        "out/trajectories.csv",
        lambda s, ws: trajectory.load_trajectories_csv(s, _sensor(ws)),
    ),
    "clips.read_videos_csv": ("videos.csv", lambda s, ws: clips.read_videos_csv(s)),
    # One stream takes both the cut-list and the script.
    "clips.emit_cutlist": (
        None,
        lambda s, ws: clips.emit_cutlist(clips.parse_cutlist(ws / "out" / "cutlist.json"), s, s),
    ),
    "clips.parse_cutlist": ("out/cutlist.json", lambda s, ws: clips.parse_cutlist(s)),
}


@pytest.mark.parametrize("name", sorted(STREAM_CASES))
def test_caller_stream_is_left_open(pipeline_ws, name):
    source, call = STREAM_CASES[name]
    if source is None:
        stream = io.StringIO()
    else:
        stream = io.StringIO(sorted(pipeline_ws.glob(source))[0].read_text(encoding="utf-8"))
    call(stream, pipeline_ws)
    assert not stream.closed
    if source is None:
        assert stream.getvalue()


def test_writer_failing_partway_leaves_no_file(tmp_path):
    t = datetime(2019, 5, 1, 14, 3, 22, tzinfo=timezone.utc)
    good = ingest.SensorRecord("S1", 1, t, GeoPoint(41.25, -96.0), 90.0, 50.0, 0.0)
    target = tmp_path / "x.csv"
    with pytest.raises(AttributeError):
        ingest.write_sensor_csv([good, replace(good, t_utc=None)], target)
    assert list(tmp_path.iterdir()) == []  # neither x.csv nor a .tmp sibling


def test_sensor_writer_failing_after_rows_leaves_no_file(tmp_path):
    seen = []

    class Unwritable:
        """A subj that fails to render, after the rows before it reached the file."""

        def __str__(self):
            seen.extend(path.stat().st_size for path in tmp_path.iterdir())
            raise RuntimeError("unwritable subj")

    n = 2000  # rows of the first drive: far more than one write buffer
    t_us = 1_556_719_402_000_000 + 100_000 * np.arange(n + 1)
    floats = [np.full(n + 1, v) for v in (41.25, -96.0, 90.0, 50.0)]
    table = ingest.SensorTable(
        [("S1", 1), (Unwritable(), 2)], [0, n, n + 1], t_us, *floats, np.arange(n + 1.0)
    )
    with pytest.raises(RuntimeError, match="unwritable subj"):
        ingest.write_sensor_csv(table, tmp_path / "x.csv")
    assert len(seen) == 1 and seen[0] > 0  # only the .tmp sibling, holding rows
    assert list(tmp_path.iterdir()) == []  # neither x.csv nor a .tmp sibling


def _io_outside_storage() -> list[str]:
    found = []
    for path in sorted(Path(intxn_pipeline.__file__).parent.glob("*.py")):
        if path.name == "storage.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name) and func.id == "open":
                    found.append(f"{path.name}:{node.lineno}: open()")
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "fdopen"
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "os"
                ):
                    found.append(f"{path.name}:{node.lineno}: os.fdopen()")
            if isinstance(node, ast.Name) and node.id == "owned" and isinstance(node.ctx, ast.Store):
                found.append(f"{path.name}:{node.lineno}: assigns owned")
    return found


def test_only_storage_opens_files():
    # Every reader and writer goes through storage.resolve_uri; a second
    # opener or a hand-rolled "close it if we opened it" flag is a regression.
    assert _io_outside_storage() == []


# Fields holding line breaks, lone carriage returns, quotes and commas.
FIELDS = st.lists(
    st.sampled_from(["\r", "\n", "\r\n", '"', ",", " ", "a"]) | st.text(max_size=4), max_size=4
).map("".join)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(FIELDS, min_size=1, max_size=4), max_size=5))
def test_csv_writer_rows_read_back(rows):
    # A field holding a lone carriage return is quoted like one holding a
    # line break, so every row reads back whole; rows end in "\n".
    out = io.StringIO(newline="")
    storage.csv_writer(out).writerows(rows)
    assert list(csv.reader(io.StringIO(out.getvalue(), newline=""))) == rows
    assert not out.getvalue() or out.getvalue().endswith("\n")
