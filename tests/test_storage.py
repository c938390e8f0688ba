"""The single I/O path: every reader and writer opens through ``storage.resolve_uri``."""

import ast
import copy
import csv
import io
import json
import re
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import intxn_pipeline
import oracles
from intxn_pipeline import clips, discovery, ingest, review, storage, trajectory
from intxn_pipeline.cli import main
from intxn_pipeline.errors import DataError
from intxn_pipeline.geo import GeoPoint, PolygonRing


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
    "discovery.load_network_geojson": (
        "network.geojson",
        lambda s, ws: discovery.load_network_geojson(s),
    ),
    "review.export_candidates_kml": (
        None,
        lambda s, ws: review.export_candidates_kml(
            storage.read_json(
                ws / "out" / "visited_candidates.geojson", discovery.visited_from_geojson, "visited"
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
    "storage.read_json": (
        "out/lrs_candidates.geojson",
        lambda s, ws: storage.read_json(s, discovery.candidates_from_geojson, "candidates"),
    ),
    # The stages' own JSON documents, which their modules once wrote with their
    # own writers (the case names are kept); both now go through storage.write_json.
    "discovery.save_geojson": (
        None,
        lambda s, ws: storage.write_json(
            json.loads((ws / "out" / "lrs_candidates.geojson").read_text()), s
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
    t = ingest.to_us(datetime(2019, 5, 1, 14, 3, 22, tzinfo=timezone.utc))
    # The second row's time is None, which does not render.
    floats = [np.array([v, v]) for v in (41.25, -96.0, 90.0, 50.0, 0.0)]
    table = ingest.SensorTable([("S1", 1)], [0, 2], np.array([t, None], dtype=object), *floats)
    target = tmp_path / "x.csv"
    with pytest.raises(TypeError):
        ingest.write_sensor_csv(table, target)
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


def _uses_by_function(names: set[str]) -> set[tuple[str, str, str]]:
    """(module, innermost enclosing function, name) of each use in src of a
    ``module.attr`` name in ``names``."""
    found = set()

    def visit(node, module, scope):
        if isinstance(node, ast.FunctionDef):
            scope = node.name
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            name = f"{node.value.id}.{node.attr}"
            if name in names:
                found.add((module, scope, name))
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for path in sorted(Path(intxn_pipeline.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, "<module>")
    return found


def test_one_reader_per_input_format():
    # Every CSV input goes through ingest's declared-schema parser, and every
    # JSON input through storage.read_json; the config keeps its own load so
    # that its errors stay ConfigErrors.
    csv_uses = _uses_by_function({"csv.reader", "csv.DictReader"})
    assert csv_uses == {("ingest", "_parse_csv", "csv.reader")}
    json_uses = _uses_by_function({"json.load", "json.loads"})
    assert json_uses == {
        ("storage", "read_json", "json.load"), ("config", "load_config", "json.load")
    }


# Fields holding line breaks, lone carriage returns, quotes and commas,
# empty fields and non-ASCII ones.
FIELDS = st.lists(
    st.sampled_from(["\r", "\n", "\r\n", '"', ",", " ", "a", "", "é", "🚦"])
    | st.text(max_size=4),
    max_size=4,
).map("".join)


@st.composite
def tables(draw):
    """A header and rows of two to five fields each."""
    width = draw(st.integers(2, 5))
    row = st.lists(FIELDS, min_size=width, max_size=width)
    return draw(row), draw(st.lists(row, max_size=7))


def _write_csv(header, rows, chunk=storage.WRITE_ROWS) -> str:
    """What write_csv writes for ``rows``, given ``chunk`` rows at a time."""
    out = io.StringIO(newline="")
    columns = [list(c) for c in zip(*rows)]
    starts = range(0, len(rows), chunk)
    storage.write_csv(out, header, ([c[s : s + chunk] for c in columns] for s in starts))
    return out.getvalue()


@settings(max_examples=200, deadline=None)
@given(tables())
def test_csv_writer_rows_read_back(table):
    # A field holding a lone carriage return is quoted like one holding a
    # line break, so every row reads back whole; rows end in "\n".
    header, rows = table
    text = _write_csv(header, rows)
    assert list(csv.reader(io.StringIO(text, newline=""))) == [header, *rows]
    assert text.endswith("\n")


@settings(max_examples=300, deadline=None)
@given(tables(), st.integers(1, 4))
def test_write_csv_is_the_csv_module_text(table, chunk):
    # Quoting is decided a column and a chunk at a time; the bytes must be
    # csv.writer's, row by row, whatever the chunk size.
    header, rows = table
    out = io.StringIO(newline="")
    oracles.csv_writer(out).writerows([header, *rows])
    assert _write_csv(header, rows, chunk) == out.getvalue()


# JSON documents with strings of what the indenter must see through, and
# the values json.dumps writes in its own way.
INDENT_STRINGS = st.text(alphabet=st.sampled_from(list('"\\,[]{}: aé\u2028🚦')), max_size=6)
INDENT_DOCS = st.recursive(
    st.none() | st.booleans() | INDENT_STRINGS
    | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 10**30, -(2**70)])
    | st.floats() | st.integers(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(INDENT_STRINGS, inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=500, deadline=None)
@given(INDENT_DOCS)
def test_write_json_is_indented_json_dumps(doc):
    # write_json indents only texts past 2 kB itself, so the indenter is
    # also checked on its own; it gives None only for a scalar.
    expected = json.dumps(doc, indent=2)
    indented = storage._indented(json.dumps(doc, separators=(",", ": ")))
    assert indented == expected or (indented is None and not isinstance(doc, (list, dict)))
    out = io.StringIO(newline="")
    storage.write_json(doc, out)
    assert out.getvalue() == expected + "\n"


@pytest.mark.parametrize("depth", [126, 127, 200])
def test_write_json_nested_past_the_break_bytes(depth):
    # A document nested deeper than a break byte can hold is still written.
    doc = ["x" * 3000]
    for _ in range(depth):
        doc = [doc, {"k": "v"}]
    out = io.StringIO(newline="")
    storage.write_json(doc, out)
    assert out.getvalue() == json.dumps(doc, indent=2) + "\n"
    indented = storage._indented(json.dumps(doc, separators=(",", ": ")))
    assert indented == (out.getvalue()[:-1] if depth + 1 <= 127 else None)


# The documents the JSON readers take, one valid one of each, and keys and
# values of their shape, so that drawn documents reach deep into the readers.
LINE = [[-96.0, 41.0], [-96.0, 41.01]]
VALID_DOCS = {
    "network": {
        "type": "FeatureCollection",
        "features": [
            {"type": "Feature", "id": "r", "geometry": {"type": "LineString", "coordinates": LINE}},
            {"geometry": {"type": "MultiLineString", "coordinates": [LINE]}, "properties": {}},
        ],
    },
    "candidates": discovery.candidates_to_geojson(
        [discovery.IntersectionCandidate(1, GeoPoint(41.0, -96.0), 3)]
    ),
    "visited": discovery.visited_to_geojson(
        [discovery.VisitedCandidate(1, GeoPoint(41.0, -96.0), [1, 2], 12.5)]
    ),
    "reviewed": review.reviewed_to_json([
        review.ReviewedIntersection(4, GeoPoint(41.0, -96.0), "stop", [review.ApproachLeg(
            1,
            PolygonRing((GeoPoint(41.0, -96.0), GeoPoint(41.0, -96.001), GeoPoint(41.001, -96.0))),
            [GeoPoint(40.999, -96.0), GeoPoint(41.0, -96.0)],
        )])
    ]),
}
JSON_READERS = {
    "network": discovery.load_network_geojson,
    "candidates": lambda s: storage.read_json(s, discovery.candidates_from_geojson, "candidates"),
    "visited": lambda s: storage.read_json(s, discovery.visited_from_geojson, "visited"),
    "reviewed": review.load_reviewed_json,
}
JSON_KEYS = st.sampled_from(sorted({
    key for doc in VALID_DOCS.values() for key in re.findall(r'"(\w+)":', json.dumps(doc))
})) | st.text(max_size=3)
JSON_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.just(10**400)
    | st.sampled_from(["FeatureCollection", "LineString", "MultiLineString"]) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(JSON_KEYS, inner, max_size=5),
    max_leaves=20,
)


@st.composite
def mutated(draw, doc):
    """``doc`` with the value at a drawn path replaced by a drawn document, or deleted."""
    doc = copy.deepcopy(doc)
    node, parent, key = doc, None, None
    for _ in range(draw(st.integers(0, 8))):
        if not isinstance(node, (dict, list)) or not node:
            break
        keys = list(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, draw(st.sampled_from(keys))
        node = node[key]
    if parent is None:
        return draw(JSON_DOCS)
    if draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(JSON_DOCS)
    return doc


@pytest.mark.parametrize("name", sorted(JSON_READERS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_json_reader_gives_objects_or_a_data_error(name, data):
    text = data.draw(
        mutated(VALID_DOCS[name]).map(json.dumps) | JSON_DOCS.map(json.dumps) | st.text(max_size=20)
    )
    try:
        JSON_READERS[name](io.StringIO(text))
    except DataError:
        pass
