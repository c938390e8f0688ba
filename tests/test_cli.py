import ast
import json
import os
import shutil
import stat
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from test_clean_differential import raw_files
from test_detection_differential import raw_detection_files
from test_review import coord, line_mark, point_mark, polygon_mark, pt_offset

import intxn_pipeline
from intxn_pipeline import cli, ingest
from intxn_pipeline.cli import main
from intxn_pipeline.config import load_config
from intxn_pipeline.errors import ConfigError, StorageNotFoundError, UnsupportedSchemeError
from intxn_pipeline.geo import GeoPoint
from intxn_pipeline.review import TRUE_FOLDER, parse_kml_features
from intxn_pipeline.storage import atomic_write, local_path, resolve_uri


def test_resolve_uri_file_scheme(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("hello")
    with resolve_uri(f"file://{path}", "r") as handle:
        assert handle.read() == "hello"


def test_resolve_uri_bare_path(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("hello")
    with resolve_uri(str(path), "r") as handle:
        assert handle.read() == "hello"


def test_resolve_uri_unsupported_scheme():
    with pytest.raises(UnsupportedSchemeError):
        resolve_uri("box://study/x.csv")
    with pytest.raises(UnsupportedSchemeError):
        local_path("s3://bucket/key")


def test_resolve_uri_not_found(tmp_path):
    with pytest.raises(StorageNotFoundError):
        resolve_uri(tmp_path / "missing.csv", "r")


def test_atomic_write_no_partial_output(tmp_path):
    target = tmp_path / "out.txt"
    with pytest.raises(RuntimeError):
        with atomic_write(target) as handle:
            handle.write("partial")
            raise RuntimeError("boom")
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []  # temp file cleaned up

    with atomic_write(target) as handle:
        handle.write("done")
    assert target.read_text() == "done"


@pytest.mark.parametrize(
    "umask, expected", [(0o022, 0o644), (0o077, 0o600)], ids=["umask-022", "umask-077"]
)
def test_atomic_write_mode_follows_umask(tmp_path, umask, expected):
    # A fresh interpreter, because the storage module reads the umask once at import.
    target = tmp_path / "out.txt"
    code = (
        "import sys\n"
        "from intxn_pipeline.storage import atomic_write\n"
        "with atomic_write(sys.argv[1]) as handle:\n"
        "    handle.write('done')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(intxn_pipeline.__file__).parents[1]))
    subprocess.run(
        [sys.executable, "-c", code, str(target)],
        check=True,
        env=env,
        preexec_fn=lambda: os.umask(umask),
    )
    assert stat.S_IMODE(target.stat().st_mode) == expected


@pytest.fixture()
def workspace(tmp_path):
    config = tmp_path / "pipeline.json"
    config.write_text("{}")
    assert main(["synth", "--config", str(config)]) == 0
    return tmp_path, config


def _run(config, stage, *extra):
    return main([stage, "--config", str(config), *extra])


def test_stages_run_in_order(workspace, capsys):
    ws, config = workspace
    for stage in (
        "clean",
        "lrs-intxns",
        "subj-intxns",
        "export-kml",
        "import-review",
        "traj",
        "clips",
        "template",
    ):
        assert _run(config, stage) == 0, stage
    out = capsys.readouterr().out
    assert "12 entering trajectories" in out
    assert (ws / "out" / "review_template.csv").exists()
    assert (ws / "out" / "trajectories.csv.report.json").exists()
    assert (ws / "out" / "clean_sensor.csv.drops.json").exists()


# Every stage's declared prerequisites: (stage, path key, file, producing
# stage); a prerequisite without a producer is a study input.
PREREQUISITES = [
    ("clean", "sensor_files", "sensor/*.csv", None),
    ("clean", "cv_files", "cv/*.csv", None),
    ("lrs-intxns", "network", "network.geojson", None),
    ("subj-intxns", "clean_cv", "out/clean_cv.csv", "clean"),
    ("subj-intxns", "lrs_candidates", "out/lrs_candidates.geojson", "lrs-intxns"),
    ("export-kml", "visited_candidates", "out/visited_candidates.geojson", "subj-intxns"),
    ("import-review", "reviewed_kml", "reviewed.kml", None),
    ("traj", "reviewed_json", "out/reviewed.json", "import-review"),
    ("traj", "clean_sensor", "out/clean_sensor.csv", "clean"),
    ("clips", "trajectories", "out/trajectories.csv", "traj"),
    ("clips", "clean_sensor", "out/clean_sensor.csv", "clean"),
    ("clips", "videos", "videos.csv", None),
    ("template", "trajectories", "out/trajectories.csv", "traj"),
    ("template", "clean_sensor", "out/clean_sensor.csv", "clean"),
    ("template", "cutlist", "out/cutlist.json", "clips"),
    ("template", "demographics", "demographics.csv", None),
]


@pytest.fixture(scope="module")
def finished_study(tmp_path_factory):
    """A default synthetic study run through every stage once."""
    ws = tmp_path_factory.mktemp("study")
    (ws / "pipeline.json").write_text("{}")
    assert _run(ws / "pipeline.json", "synth") == 0
    assert _run(ws / "pipeline.json", "all") == 0
    return ws


@pytest.mark.parametrize(
    "stage, key, missing, produced_by",
    PREREQUISITES,
    ids=[f"{stage}-{key}" for stage, key, _, _ in PREREQUISITES],
)
def test_missing_prerequisite_names_file(
    finished_study, tmp_path, capsys, stage, key, missing, produced_by
):
    declared = {
        (name, k, producer) for name, (needs, _) in cli._STAGES.items() for k, _, producer in needs
    }
    assert declared == {(s, k, producer) for s, k, _, producer in PREREQUISITES}
    ws = shutil.copytree(finished_study, tmp_path / "study")
    removed = list(ws.glob(missing))
    assert removed
    for path in removed:
        path.unlink()
    capsys.readouterr()
    assert _run(ws / "pipeline.json", stage) == 1
    err = capsys.readouterr().err
    assert str(ws / missing) in err
    if produced_by:
        assert f"(produced by `intxn-pipeline {produced_by}`)" in err
    else:
        assert "produced by" not in err


def test_run_all_completes_with_reviewed_kml(workspace, capsys):
    ws, config = workspace
    assert _run(config, "all") == 0
    out = capsys.readouterr().out
    assert "template: 12 review rows" in out


def test_run_all_pauses_without_reviewed_kml(workspace, capsys):
    ws, config = workspace
    (ws / "reviewed.kml").rename(ws / "reviewed.kml.bak")
    assert _run(config, "all") == 0
    out = capsys.readouterr().out
    assert "paused before import-review" in out
    assert "candidates.kml" in out
    assert not (ws / "out" / "trajectories.csv").exists()
    # Restoring the reviewed file lets `all` resume through the end.
    (ws / "reviewed.kml.bak").rename(ws / "reviewed.kml")
    assert _run(config, "all") == 0
    assert (ws / "out" / "review_template.csv").exists()


def _data_outputs(ws):
    return {
        p.relative_to(ws): p.read_bytes()
        for p in sorted((ws / "out").rglob("*"))
        if p.is_file() and not p.name.endswith(".report.json")
    }


def test_rerun_is_byte_identical(workspace):
    ws, config = workspace
    assert _run(config, "all") == 0
    first = _data_outputs(ws)
    assert _run(config, "all") == 0
    assert _data_outputs(ws) == first


def test_jobs_flag_gives_identical_outputs(workspace):
    ws, config = workspace
    assert _run(config, "all") == 0
    baseline = _data_outputs(ws)
    assert _run(config, "all", "--jobs", "4") == 0  # accepted and ignored
    assert _data_outputs(ws) == baseline


def test_param_override_changes_windows(workspace):
    ws, config = workspace
    assert _run(config, "all") == 0
    assert _run(config, "traj", "--param", "upstream_ft=100") == 0
    rows = (ws / "out" / "trajectories.csv").read_text().splitlines()[1:]
    # 100 ft upstream + 200 ft downstream at 50 ft spacing -> 7 samples.
    assert all(row.split(",")[-1] == "7" for row in rows)


def test_unknown_param_rejected(workspace, capsys):
    ws, config = workspace
    assert _run(config, "clean", "--param", "bogus=1") == 1
    assert "bogus" in capsys.readouterr().err


def test_config_not_found(tmp_path, capsys):
    assert main(["clean", "--config", str(tmp_path / "nope.json")]) == 1
    assert "not found" in capsys.readouterr().err


def test_bad_invocation_is_user_error(capsys):
    assert main(["no-such-stage", "--config", "x.json"]) == 1
    assert "invalid choice" in capsys.readouterr().err


def test_invalid_config_keys_rejected(tmp_path, capsys):
    config = tmp_path / "pipeline.json"
    config.write_text('{"bogus_key": 1}')
    assert main(["clean", "--config", str(config)]) == 1
    assert "bogus_key" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", ["eps_ft", "min_pts"])
def test_non_finite_param_rejected(tmp_path, key, value):
    config = tmp_path / "pipeline.json"
    config.write_text("{}")
    with pytest.raises(ConfigError, match=key):
        load_config(config, overrides=[f"{key}={value}"])
    config.write_text(json.dumps({"params": {key: float(value)}}))
    with pytest.raises(ConfigError, match=key):
        load_config(config)


def test_non_finite_param_is_user_error(workspace, capsys):
    ws, config = workspace
    assert _run(config, "clean") == 0
    assert _run(config, "lrs-intxns") == 0
    assert _run(config, "subj-intxns", "--param", "eps_ft=nan") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "eps_ft" in err


@pytest.mark.parametrize("value", ["90", "95"])
def test_heading_tol_of_90_or_more_is_user_error(tmp_path, capsys, value):
    config = tmp_path / "pipeline.json"
    config.write_text("{}")
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "reviewed.json").write_text('{"intersections": []}')
    (tmp_path / "out" / "clean_sensor.csv").write_text(",".join(ingest.SensorTable.HEADER) + "\n")
    assert _run(config, "traj", "--param", "heading_tol_deg=45") == 0
    assert _run(config, "traj", "--param", f"heading_tol_deg={value}") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "heading_tol_deg" in err


@pytest.mark.parametrize("jobs", ['"x"', "null", "1.5", "true", "0", "-2", "1", "2"])
def test_bad_config_jobs_rejected(tmp_path, jobs):
    config = tmp_path / "pipeline.json"
    config.write_text(f'{{"jobs": {jobs}}}')
    with pytest.raises(ConfigError, match="jobs"):
        load_config(config)


def test_data_error_exit_code(workspace, capsys):
    ws, config = workspace
    (ws / "network.geojson").write_text('{"type": "FeatureCollection", "features": [')
    assert _run(config, "lrs-intxns") == 2
    assert "GeoJSON" in capsys.readouterr().err


@pytest.mark.parametrize("lon, lat", [(None, "141.25"), (None, "nan"), ("-196.5", None)])
def test_out_of_range_reviewed_coordinate_is_a_data_error(workspace, capsys, lon, lat):
    ws, config = workspace
    kml = ws / "reviewed.kml"
    text = kml.read_text()  # the first coordinates are the first true point's
    start = text.index("<coordinates>") + len("<coordinates>")
    end = text.index("</coordinates>", start)
    old_lon, old_lat, alt = text[start:end].split(",")
    token = f"{lon or old_lon},{lat or old_lat},{alt}"
    kml.write_text(text[:start] + token + text[end:])
    assert _run(config, "import-review") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad coordinate tuple {token!r} in placemark ")
    assert not (ws / "out" / "reviewed.json").exists()


_DELETE = object()

# A hand-edited JSON input: the stages that make it, its file, the path to
# the value edited (the whole document for an empty path), the new value or
# _DELETE, and the stage that reads it.
MALFORMED_JSON = {
    "candidate-without-properties": (
        ("clean", "lrs-intxns"), "out/lrs_candidates.geojson",
        ("features", 0, "properties"), _DELETE, "subj-intxns",
    ),
    "visited-null-cluster-ids": (
        ("clean", "lrs-intxns", "subj-intxns"), "out/visited_candidates.geojson",
        ("features", 0, "properties", "supporting_cluster_ids"), None, "export-kml",
    ),
    "reviewed-two-vertex-polygon": (
        ("clean", "import-review"), "out/reviewed.json",
        ("intersections", 0, "approaches", 0, "polygon"), [[41.0, -96.0], [41.001, -96.0]],
        "traj",
    ),
    "network-longitude-500": (
        (), "network.geojson",
        ("features", 0, "geometry", "coordinates", 0), [500.0, 41.0], "lrs-intxns",
    ),
    "network-one-number-vertex": (
        (), "network.geojson",
        ("features", 0, "geometry", "coordinates", 0), [-96.0], "lrs-intxns",
    ),
    "reviewed-bool-latitude": (
        ("clean", "import-review"), "out/reviewed.json", ("intersections", 0, "lat"), True, "traj",
    ),
    "network-list": ((), "network.geojson", (), [], "lrs-intxns"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_JSON))
def test_malformed_json_input_is_a_data_error(workspace, capsys, case):
    ws, config = workspace
    before, name, path, value, stage = MALFORMED_JSON[case]
    for earlier in before:
        assert _run(config, earlier) == 0
    doc = json.loads((ws / name).read_text())
    if path:
        *parents, last = path
        node = doc
        for key in parents:
            node = node[key]
        if value is _DELETE:
            del node[last]
        else:
            node[last] = value
    else:
        doc = value
    (ws / name).write_text(json.dumps(doc))
    capsys.readouterr()
    assert _run(config, stage) == 2
    assert capsys.readouterr().err.startswith("error: invalid ")


@pytest.mark.parametrize(
    "before, name, stage",
    [
        (("clean", "lrs-intxns"), "out/lrs_candidates.geojson", "subj-intxns"),
        (("clean", "lrs-intxns", "subj-intxns"), "out/visited_candidates.geojson", "export-kml"),
    ],
)
def test_repeated_intxn_id_is_a_data_error(workspace, capsys, before, name, stage):
    ws, config = workspace
    for earlier in before:
        assert _run(config, earlier) == 0
    doc = json.loads((ws / name).read_text())
    first, second = (f["properties"] for f in doc["features"][:2])
    second["intxn_id"] = first["intxn_id"]
    (ws / name).write_text(json.dumps(doc))
    capsys.readouterr()
    assert _run(config, stage) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid ")
    assert f"repeated intxn_id {first['intxn_id']}" in err


def test_stage_reports_reconcile(workspace):
    ws, config = workspace
    assert _run(config, "all") == 0
    report = json.loads((ws / "out" / "clean_sensor.csv.report.json").read_text())
    assert report["rows_in"] == report["rows_out"] + sum(report["drops"].values())
    cv_report = json.loads((ws / "out" / "clean_cv.csv.report.json").read_text())
    assert cv_report["rows_in"] == cv_report["rows_out"] + sum(cv_report["drops"].values())
    subj_report = json.loads(
        (ws / "out" / "visited_candidates.geojson.report.json").read_text()
    )
    visited = json.loads((ws / "out" / "visited_candidates.geojson").read_text())
    supporting = sum(
        len(f["properties"]["supporting_cluster_ids"]) for f in visited["features"]
    )
    assert subj_report["clusters"] == supporting + len(subj_report["unmatched"])
    # Every visit ends as a trajectory or a repeat pass, every trajectory as a
    # clip or an unclippable one, and every placemark import-review read as
    # an intersection, an approach or a reject.
    traj_report = json.loads((ws / "out" / "trajectories.csv.report.json").read_text())
    assert traj_report["visits"] == (
        traj_report["trajectories"] + traj_report["skips"]["duplicate_pass"]
    )
    clips_report = json.loads((ws / "out" / "cutlist.json.report.json").read_text())
    assert clips_report["trajectories"] == clips_report["clips"] + len(clips_report["unclippable"])
    assert clips_report["trajectories"] == traj_report["trajectories"]
    _assert_placemarks_reconcile(
        json.loads((ws / "out" / "reviewed.json.report.json").read_text())
    )
    # Every report names its stage first and ends with the stage's wall time
    # (perfbench reads it), taken once over all of the stage's outputs.
    stages = {
        "ground_truth.json": "synth",
        "out/clean_sensor.csv": "clean",
        "out/clean_cv.csv": "clean",
        "out/lrs_candidates.geojson": "lrs-intxns",
        "out/visited_candidates.geojson": "subj-intxns",
        "out/candidates.kml": "export-kml",
        "out/reviewed.json": "import-review",
        "out/trajectories.csv": "traj",
        "out/cutlist.json": "clips",
        "out/review_template.csv": "template",
    }
    reports = {
        str(path.relative_to(ws)).removesuffix(".report.json"): json.loads(path.read_text())
        for path in ws.rglob("*.report.json")
    }
    assert sorted(reports) == sorted(stages)
    for output, doc in reports.items():
        keys = list(doc)
        assert (keys[0], keys[-1], doc["stage"]) == ("stage", "wall_time_s", stages[output]), output
    assert report["wall_time_s"] == cv_report["wall_time_s"]


# Each reject reason, by kind, in the order import-review reports them.
EVERY_REJECT = {
    "intersection": ["non_integer_name", "duplicate_id", "invalid_control", "no_polygons"],
    "polygon": ["invalid_polygon", "unassigned_polygon", "no_entering_line"],
    "line": ["invalid_line", "unassigned_line", "extra_line"],
}


def _with_every_reject(kml: Path) -> None:
    """Add to synth's reviewed KML one placemark for each reject reason."""
    text = kml.read_text()
    first = parse_kml_features(kml).points[0]
    junction = first.coordinates[0]
    a, b = GeoPoint(32.0, -92.0), GeoPoint(32.001, -92.0)
    true_marks = (
        point_mark("x", GeoPoint(33.0, -93.0))  # non_integer_name
        + point_mark(first.name, GeoPoint(33.1, -93.0))  # duplicate_id
        + point_mark("9001", GeoPoint(33.2, -93.0), "yield")  # invalid_control
        + point_mark("9002", GeoPoint(33.3, -93.0))  # no_polygons
    )
    other_marks = (
        "<Placemark><name>p-two</name><Polygon><outerBoundaryIs><LinearRing><coordinates>"
        f"{coord(a)} {coord(b)} {coord(a)}</coordinates></LinearRing></outerBoundaryIs>"
        "</Polygon></Placemark>"  # invalid_polygon
        + polygon_mark("p-far", GeoPoint(30.0, -90.0))  # unassigned_polygon
        + polygon_mark("p-east", pt_offset(junction, 0.0, 300.0))  # no_entering_line
        + line_mark("l-zero", GeoPoint(31.5, -91.5), length_ft=0.0)  # invalid_line
        + line_mark("l-far", GeoPoint(31.0, -91.0))  # unassigned_line
        + line_mark("l-extra", junction)  # extra_line: in synth's approach polygon
    )
    text = text.replace("</Folder>", true_marks + "</Folder>", 1)
    kml.write_text(text.replace("</Document>", other_marks + "</Document>"))


def _assert_placemarks_reconcile(report: dict) -> None:
    """Each kind of placemark read is its accepted count plus its rejects."""
    rejects = {kind: 0 for kind in ("intersection", "polygon", "line")}
    for reject in report["rejects"]:
        rejects[reject["kind"]] += 1
    read = report["placemarks"]
    assert read["points"] == report["intersections"] + rejects["intersection"]
    assert read["polygons"] == report["approaches"] + rejects["polygon"]
    assert read["lines"] == report["approaches"] + rejects["line"]


@pytest.mark.parametrize("doctored", [False, True])
def test_import_review_report_reconciles(workspace, doctored):
    # Every true point, polygon and line of the KML ends up in an
    # intersection, an approach or a reject.
    ws, config = workspace
    if doctored:
        _with_every_reject(ws / "reviewed.kml")
    feats = parse_kml_features(ws / "reviewed.kml")
    assert _run(config, "import-review") == 0
    report = json.loads((ws / "out" / "reviewed.json.report.json").read_text())
    rejects = {kind: [] for kind in ("intersection", "polygon", "line")}
    for reject in report["rejects"]:
        rejects[reject["kind"]].append(reject["reason"])
    true_points = [p for p in feats.points if TRUE_FOLDER in p.folders]
    assert len(true_points) == report["intersections"] + len(rejects["intersection"])
    assert len(feats.polygons) == report["approaches"] + len(rejects["polygon"])
    assert len(feats.lines) == report["approaches"] + len(rejects["line"])
    assert rejects == (EVERY_REJECT if doctored else {kind: [] for kind in EVERY_REJECT})
    assert report["placemarks"] == {
        "points": len(true_points), "polygons": len(feats.polygons), "lines": len(feats.lines)
    }
    _assert_placemarks_reconcile(report)


def test_file_matched_by_two_patterns_is_read_once(workspace, tmp_path_factory):
    ws, config = workspace
    assert _run(config, "clean") == 0
    once = {name: (ws / "out" / name).read_bytes() for name in ("clean_sensor.csv", "clean_cv.csv")}
    cv_files = sorted(p.name for p in (ws / "cv").iterdir())
    config.write_text(
        json.dumps(
            {
                "inputs": {
                    "sensor_files": ["sensor/*.csv", "./sensor/../sensor/*.csv"],
                    "cv_files": ["cv/*.csv", f"cv/{cv_files[0]}"],
                }
            }
        )
    )
    assert _run(config, "clean") == 0
    for name, data in once.items():
        assert (ws / "out" / name).read_bytes() == data
        report = json.loads((ws / "out" / f"{name}.report.json").read_text())
        assert not any(report["drops"].values())
    report = json.loads((ws / "out" / "clean_cv.csv.report.json").read_text())
    assert [Path(f).name for f in report["inputs"]] == cv_files


@settings(max_examples=60, deadline=None)
@given(raw_files(), raw_detection_files())
def test_clean_reports_count_the_rows_read(sensor, detections):
    sensor_texts, sensor_rows = sensor
    cv_texts, cv_rows = detections
    with tempfile.TemporaryDirectory() as tmp:
        ws = Path(tmp)
        for kind, texts in (("sensor", sensor_texts), ("cv", cv_texts)):
            (ws / kind).mkdir()
            for k, text in enumerate(texts):
                (ws / kind / f"S{k}.csv").write_text(text, newline="")
        (ws / "pipeline.json").write_text("{}")
        assert _run(ws / "pipeline.json", "clean") == 0
        for name, rows_in in (("clean_sensor.csv", sensor_rows), ("clean_cv.csv", cv_rows)):
            report = json.loads((ws / "out" / f"{name}.report.json").read_text())
            assert report["rows_in"] == rows_in
            assert report["rows_in"] == report["rows_out"] + sum(report["drops"].values())


def test_clean_report_times_the_csv_writes(workspace, monkeypatch):
    ws, config = workspace
    write = ingest.write_sensor_csv

    def slow_write(*args, **kwargs):
        time.sleep(0.2)
        return write(*args, **kwargs)

    monkeypatch.setattr(ingest, "write_sensor_csv", slow_write)
    assert _run(config, "clean") == 0
    for name in ("clean_sensor.csv", "clean_cv.csv"):
        report = json.loads((ws / "out" / f"{name}.report.json").read_text())
        assert report["wall_time_s"] >= 0.2, name


def test_only_the_stage_runner_times_and_writes_reports():
    # Stage bodies read, compute and write; a body that starts its own clock
    # or writes its own .report.json would drift from the runner's.
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    (runner,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_run_stage"]
    in_runner = {id(node) for node in ast.walk(runner)}
    inside, outside = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            what = node.attr
        elif isinstance(node, ast.alias):  # from time import perf_counter
            what = node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            what = node.value
        else:
            continue
        if what == "perf_counter" or ".report.json" in what:
            if id(node) in in_runner:
                inside.add(what)
            else:
                outside.append(f"cli.py:{node.lineno}: {what}")
    assert outside == []
    assert inside == {"perf_counter", ".report.json"}


@pytest.mark.parametrize("key", ["eps_ft", "min_pts"])
def test_bool_param_rejected(tmp_path, key):
    config = tmp_path / "pipeline.json"
    config.write_text(json.dumps({"params": {key: True}}))
    with pytest.raises(ConfigError, match=key):
        load_config(config)


@pytest.mark.parametrize(
    "key, value",
    [("params", [1]), ("inputs", "x"), ("outputs", ["a"]), ("synth", 3), ("params", None)],
)
def test_config_section_must_be_object(tmp_path, key, value):
    config = tmp_path / "pipeline.json"
    config.write_text(json.dumps({key: value}))
    with pytest.raises(ConfigError, match=key):
        load_config(config)


def test_config_with_a_byte_order_mark_loads_as_without(tmp_path):
    config = tmp_path / "pipeline.json"
    doc = b'{"params": {"eps_ft": 50.0}, "processor": "avconv"}'
    config.write_bytes(doc)
    plain = load_config(config)
    config.write_bytes(b"\xef\xbb\xbf" + doc)
    assert load_config(config) == plain
    assert (plain.params["eps_ft"], plain.processor) == (50.0, "avconv")


def test_bad_config_section_is_user_error(tmp_path, capsys):
    config = tmp_path / "pipeline.json"
    config.write_text('{"synth": 3}')
    assert main(["clean", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "synth" in err
