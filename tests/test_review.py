import csv
import io
import json
import math
from datetime import datetime, timezone
from types import SimpleNamespace
from xml.sax.saxutils import escape

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intxn_pipeline.discovery import IntersectionCandidate
from intxn_pipeline.errors import DataError, KmlParseError
from intxn_pipeline.geo import FT_PER_DEG, GeoPoint
from intxn_pipeline.ingest import SensorTable, to_us
from intxn_pipeline.review import (
    REVIEW_COLUMNS,
    build_review_template,
    export_candidates_kml,
    import_reviewed_kml,
    parse_kml_features,
    read_demographics,
    reviewed_from_json,
    reviewed_to_json,
    write_review_csv,
)
from intxn_pipeline.trajectory import TrajectoryTable

LAT0, LON0 = 41.0, -96.0
COS0 = math.cos(math.radians(LAT0))


def pt(north_ft=0.0, east_ft=0.0):
    return GeoPoint(LAT0 + north_ft / FT_PER_DEG, LON0 + east_ft / (FT_PER_DEG * COS0))


def coord(p):
    return f"{p.lon_deg!r},{p.lat_deg!r},0"


def kml_doc(body):
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<kml xmlns="http://www.opengis.net/kml/2.2"><Document>'
        + body
        + "</Document></kml>"
    )


def point_mark(name, p, control=None):
    ext = (
        f'<ExtendedData><Data name="control"><value>{control}</value></Data></ExtendedData>'
        if control
        else ""
    )
    return f"<Placemark><name>{name}</name>{ext}<Point><coordinates>{coord(p)}</coordinates></Point></Placemark>"


def polygon_mark(name, center, length_ft=300.0, half_width_ft=20.0):
    ring = [
        pt_offset(center, -half_width_ft, -length_ft),
        pt_offset(center, -half_width_ft, 0),
        pt_offset(center, half_width_ft, 0),
        pt_offset(center, half_width_ft, -length_ft),
    ]
    coords = " ".join(coord(v) for v in ring + [ring[0]])
    return (
        f"<Placemark><name>{name}</name><Polygon><outerBoundaryIs><LinearRing>"
        f"<coordinates>{coords}</coordinates></LinearRing></outerBoundaryIs></Polygon></Placemark>"
    )


def line_mark(name, center, length_ft=300.0):
    a = pt_offset(center, 0, -length_ft)
    coords = f"{coord(a)} {coord(center)}"
    return (
        f"<Placemark><name>{name}</name><LineString>"
        f"<coordinates>{coords}</coordinates></LineString></Placemark>"
    )


def pt_offset(base, north_ft, east_ft):
    return GeoPoint(
        base.lat_deg + north_ft / FT_PER_DEG,
        base.lon_deg + east_ft / (FT_PER_DEG * math.cos(math.radians(base.lat_deg))),
    )


def test_export_kml_coordinate_order():
    out = io.StringIO()
    export_candidates_kml([IntersectionCandidate(1, GeoPoint(41, -96), 4)], out)
    assert "<coordinates>-96,41,0</coordinates>" in out.getvalue()
    assert "<name>candidates</name>" in out.getvalue()


def test_export_kml_document_order():
    out = io.StringIO()
    export_candidates_kml(
        [
            IntersectionCandidate(3, pt(north_ft=200), 3),
            IntersectionCandidate(1, pt(), 3),
            IntersectionCandidate(2, pt(north_ft=100), 3),
        ],
        out,
    )
    text = out.getvalue()
    assert text.index("<name>1</name>") < text.index("<name>2</name>") < text.index("<name>3</name>")


def test_export_kml_rejects_empty():
    with pytest.raises(ValueError):
        export_candidates_kml([], io.StringIO())


def test_export_import_roundtrip_preserves_ids_and_positions():
    candidates = [
        IntersectionCandidate(i + 1, pt(north_ft=1000 * i, east_ft=13.7 * i), 3)
        for i in range(5)
    ]
    out = io.StringIO()
    export_candidates_kml(candidates, out)
    out.seek(0)
    feats = parse_kml_features(out)
    assert [int(p.name) for p in feats.points] == [1, 2, 3, 4, 5]
    for cand, parsed in zip(candidates, feats.points):
        assert abs(parsed.coordinates[0].lat_deg - cand.pos.lat_deg) < 1e-6
        assert abs(parsed.coordinates[0].lon_deg - cand.pos.lon_deg) < 1e-6


def test_import_single_intersection_two_approaches(tmp_path):
    west = pt()
    body = (
        f'<Folder><name>true</name>{point_mark("7", west, control="signal")}</Folder>'
        + polygon_mark("p1", west)
        + polygon_mark("p2", pt_offset(west, 0, 300), length_ft=250)
        + line_mark("l1", west)
        + line_mark("l2", pt_offset(west, 0, 300), length_ft=250)
    )
    path = tmp_path / "reviewed.kml"
    path.write_text(kml_doc(body))
    reviewed, rejects = import_reviewed_kml(path)
    assert not rejects
    assert len(reviewed) == 1
    assert reviewed[0].intxn_id == 7
    assert reviewed[0].control_type == "signal"
    assert len(reviewed[0].approaches) == 2
    assert [leg.leg_id for leg in reviewed[0].approaches] == [1, 2]


def test_import_defaults_to_stop_control(tmp_path):
    body = (
        f'<Folder><name>true</name>{point_mark("1", pt())}</Folder>'
        + polygon_mark("p", pt())
        + line_mark("l", pt())
    )
    path = tmp_path / "reviewed.kml"
    path.write_text(kml_doc(body))
    reviewed, _ = import_reviewed_kml(path)
    assert reviewed[0].control_type == "stop"


def test_import_far_polygon_rejected(tmp_path):
    body = (
        f'<Folder><name>true</name>{point_mark("1", pt())}</Folder>'
        + polygon_mark("p-near", pt())
        + line_mark("l-near", pt())
        + polygon_mark("p-far", pt(north_ft=5000))
    )
    path = tmp_path / "reviewed.kml"
    path.write_text(kml_doc(body))
    reviewed, rejects = import_reviewed_kml(path)
    assert len(reviewed) == 1
    assert [(r.kind, r.name, r.reason) for r in rejects] == [
        ("polygon", "p-far", "unassigned_polygon")
    ]


def test_import_unassignable_line_rejected(tmp_path):
    body = (
        f'<Folder><name>true</name>{point_mark("1", pt())}</Folder>'
        + polygon_mark("p", pt())
        + line_mark("l", pt())
        + line_mark("l-lost", pt(north_ft=2000))
    )
    path = tmp_path / "reviewed.kml"
    path.write_text(kml_doc(body))
    reviewed, rejects = import_reviewed_kml(path)
    assert len(reviewed) == 1
    assert ("line", "l-lost", "unassigned_line") in [
        (r.kind, r.name, r.reason) for r in rejects
    ]


def test_import_zero_length_line_rejected(tmp_path):
    # Both ends at one point give no entering bearing, so the line is invalid
    # and its polygon is left without one.
    body = (
        f'<Folder><name>true</name>{point_mark("1", pt())}</Folder>'
        + polygon_mark("p", pt())
        + line_mark("l-zero", pt(), length_ft=0.0)
    )
    path = tmp_path / "reviewed.kml"
    path.write_text(kml_doc(body))
    reviewed, rejects = import_reviewed_kml(path)
    assert not reviewed
    assert [(r.kind, r.name, r.reason) for r in rejects] == [
        ("line", "l-zero", "invalid_line"),
        ("polygon", "p", "no_entering_line"),
        ("intersection", "1", "no_polygons"),
    ]


def test_import_intersection_without_polygons_rejected(tmp_path):
    body = f'<Folder><name>true</name>{point_mark("9", pt())}</Folder>'
    path = tmp_path / "reviewed.kml"
    path.write_text(kml_doc(body))
    reviewed, rejects = import_reviewed_kml(path)
    assert not reviewed
    assert [(r.kind, r.reason) for r in rejects] == [("intersection", "no_polygons")]


def test_import_without_true_folder_keeps_all_points(tmp_path):
    # Deletion workflow: reviewer removes false placemarks in place.
    body = point_mark("3", pt()) + polygon_mark("p", pt()) + line_mark("l", pt())
    path = tmp_path / "reviewed.kml"
    path.write_text(kml_doc(body))
    reviewed, rejects = import_reviewed_kml(path)
    assert [r.intxn_id for r in reviewed] == [3]
    assert not rejects


def test_import_true_folder_excludes_outside_points(tmp_path):
    inside, outside = pt(), pt(north_ft=1000)
    body = (
        f'<Folder><name>true</name>{point_mark("1", inside)}</Folder>'
        f'<Folder><name>false</name>{point_mark("2", outside)}</Folder>'
        + polygon_mark("p", inside)
        + line_mark("l", inside)
    )
    path = tmp_path / "reviewed.kml"
    path.write_text(kml_doc(body))
    reviewed, _ = import_reviewed_kml(path)
    assert [r.intxn_id for r in reviewed] == [1]


def test_import_partition_property(tmp_path):
    # Every polygon and line ends up in exactly one approach or one reject.
    centers = [pt(), pt(east_ft=2000), pt(east_ft=9000)]
    body = (
        "<Folder><name>true</name>"
        + point_mark("1", centers[0])
        + point_mark("2", centers[1])
        + "</Folder>"
        + polygon_mark("p1", centers[0])
        + polygon_mark("p2", centers[1])
        + polygon_mark("p3", centers[2])  # far from both -> reject
        + line_mark("l1", centers[0])
        + line_mark("l2", centers[1])
        + line_mark("l3", centers[2])  # its polygon was rejected -> reject
    )
    path = tmp_path / "reviewed.kml"
    path.write_text(kml_doc(body))
    reviewed, rejects = import_reviewed_kml(path)
    kept_polygons = sum(len(r.approaches) for r in reviewed)
    rejected_polygons = sum(1 for r in rejects if r.kind == "polygon")
    assert kept_polygons + rejected_polygons == 3
    kept_lines = sum(
        1 for r in reviewed for leg in r.approaches if leg.entering_line is not None
    )
    rejected_lines = sum(1 for r in rejects if r.kind == "line")
    assert kept_lines + rejected_lines == 3


def test_import_malformed_kml_raises(tmp_path):
    path = tmp_path / "bad.kml"
    path.write_text("<kml><unclosed>")
    with pytest.raises(KmlParseError):
        import_reviewed_kml(path)


def test_reviewed_json_roundtrip(tmp_path):
    body = (
        f'<Folder><name>true</name>{point_mark("4", pt())}</Folder>'
        + polygon_mark("p", pt())
        + line_mark("l", pt())
    )
    path = tmp_path / "reviewed.kml"
    path.write_text(kml_doc(body))
    reviewed, _ = import_reviewed_kml(path)
    doc = reviewed_to_json(reviewed)
    restored = reviewed_from_json(json.loads(json.dumps(doc)))
    assert restored[0].intxn_id == reviewed[0].intxn_id
    assert restored[0].approaches[0].polygon == reviewed[0].approaches[0].polygon
    assert restored[0].approaches[0].entering_line == reviewed[0].approaches[0].entering_line


def _trajs(n=1):
    """A trajectory table holding trajectory A_1_4, referenced at 12:00:30, n times."""
    t = to_us(datetime(2019, 5, 1, 12, 0, 30, tzinfo=timezone.utc))
    sensor = SensorTable.from_columns(["A"], [1], [t], [LAT0], [LON0], [0.0], [0.0], [0.0])
    return TrajectoryTable.from_columns(*([v] * n for v in ("A", 1, 4, 1, 0, 0, 1)), sensor=sensor)


def _clip(traj_id="A_1_4", overlay_on_s=3.0):
    return SimpleNamespace(
        traj_id=traj_id, overlay_on_s=overlay_on_s, output_name=f"{traj_id}.mp4"
    )


def test_template_copies_overlay_on_as_jump_to_ref():
    rows, _, warnings = build_review_template(
        _trajs(), [_clip(overlay_on_s=3.0)], {"A": ("52", "F")}
    )
    assert rows["jump_to_ref"][0] == 3.0
    assert rows["primary_sub_age"][0] == "52"
    assert warnings["missing_demographics"] == 0


def test_template_custom_field_manifest():
    rows, manifest, _ = build_review_template(
        _trajs(),
        [_clip()],
        {"A": ("52", "F")},
        custom_fields={"stop_type": ["full", "rolling", "none"]},
    )
    assert manifest == {"stop_type": ["full", "rolling", "none"]}
    assert rows["stop_type"][0] == ""


def test_template_zero_trajectories():
    rows, manifest, _ = build_review_template(_trajs(0), [], {})
    out = io.StringIO()
    write_review_csv(rows, [], out)
    assert out.getvalue() == ",".join(REVIEW_COLUMNS) + "\n"
    assert manifest == {}


def test_template_missing_demographics_warns():
    rows, _, warnings = build_review_template(_trajs(), [_clip()], {})
    assert rows["primary_sub_age"][0] == ""
    assert rows["primary_subj_gender"][0] == ""
    assert warnings["missing_demographics"] == 1


def test_template_missing_clip_raises():
    with pytest.raises(DataError):
        build_review_template(_trajs(), [], {})


def test_template_csv_column_order_and_formatting():
    rows, _, _ = build_review_template(
        _trajs(),
        [_clip()],
        {"A": ("52", "F")},
        custom_fields={"stop_type": ["full"], "lead_vehicle": ["yes", "no"]},
        video_base_url="https://storage.example/clips/",
    )
    out = io.StringIO()
    write_review_csv(rows, ["stop_type", "lead_vehicle"], out)
    lines = out.getvalue().splitlines()
    assert lines[0] == ",".join(REVIEW_COLUMNS) + ",stop_type,lead_vehicle"
    assert lines[1].split(",")[7] == "3.000"
    assert lines[1].split(",")[8] == "https://storage.example/clips/A_1_4.mp4"


def test_read_demographics(tmp_path):
    path = tmp_path / "demo.csv"
    path.write_text("subj,age,gender\nA,52,F\nB,47,M\n")
    assert read_demographics(path) == {"A": ("52", "F"), "B": ("47", "M")}


def test_review_csv_reads_back_a_subject_with_a_carriage_return():
    t = to_us(datetime(2019, 5, 1, 12, 0, 30, tzinfo=timezone.utc))
    sensor = SensorTable.from_columns(["A\rB"], [1], [t], [LAT0], [LON0], [0.0], [0.0], [0.0])
    trajs = TrajectoryTable.from_columns(["A\rB"], [1], [4], [1], [0], [0], [1], sensor=sensor)
    columns, _, _ = build_review_template(trajs, [_clip("A\rB_1_4")], {})
    out = io.StringIO(newline="")
    write_review_csv(columns, [], out)
    header, row = csv.reader(io.StringIO(out.getvalue(), newline=""))
    assert row[:3] == ["A\rB_1_4", "A\rB", "1"]


def test_short_demographics_row_raises_data_error():
    with pytest.raises(DataError, match="line 2"):
        read_demographics(io.StringIO("subj,age,gender\nA\n", newline=""))


def test_demographics_row_without_a_subj_raises_data_error():
    with pytest.raises(DataError, match="line 3"):
        read_demographics(io.StringIO("subj,age,gender\nA,52,F\n ,47,M\n", newline=""))


# Coordinate tuples near two junctions, so that drawn geometry often
# assembles, and tuples that are garbage, NaN, out of range or short.
KML_TOKENS = st.one_of(
    st.builds(
        lambda base, north, east: coord(pt_offset(base, north, east)),
        st.sampled_from([pt(), pt(north_ft=2000.0)]),
        st.sampled_from([-20.0, 0.0, 20.0]),
        st.sampled_from([-300.0, -150.0, 0.0, 300.0]),
    ),
    st.sampled_from([
        "x", "1,", ",", "nan,nan", "-96,nan,0", "inf,41", "-196.5,41", "-96,91", "1e999,0",
        "-96,41,0,7", "-96,41", "0x1,0", "", "-96,41,0\n-96,41.001,0",
        "-96,90", "-96.001,90", "-96,-90", "180,0", "-180,89.99999", "180,89.99999",
    ]),
    st.text(alphabet="0123456789.,-enaif", max_size=8),
)
KML_NAMES = st.sampled_from(["1", "2", "7", "007", " 3 ", "x", "", "1_0", "１"]) | st.text(max_size=2)


JUNCTIONS = st.sampled_from([pt(), pt(north_ft=2000.0), GeoPoint(89.9, 170.0)])
OFFSETS = st.sampled_from([0.0, 0.0, 0.0, 10.0, 600.0])


@st.composite
def kml_placemarks(draw):
    """A point, polygon or line placemark near a junction, all three, or now
    and then one whose geometry is missing or whose coordinates are drawn
    tokens."""
    name = escape(draw(KML_NAMES))
    control = draw(st.sampled_from([None, "stop", "signal", "yield", "<"]))
    at = pt_offset(draw(JUNCTIONS), draw(OFFSETS), draw(OFFSETS))
    kind = draw(st.sampled_from(["point", "polygon", "line", "approach"] * 2 + ["drawn"]))
    if kind == "approach":
        return point_mark(name, at) + polygon_mark("p", at) + line_mark("l", at)
    if kind == "point":
        return point_mark(name, at, control and escape(control))
    if kind == "polygon":
        return polygon_mark(name, at, draw(st.sampled_from([300.0, 0.0])))
    if kind == "line":
        return line_mark(name, at, draw(st.sampled_from([300.0, 150.0, 0.0])))
    coords = escape(" ".join(draw(st.lists(KML_TOKENS, max_size=6))))
    coordinates = f"<coordinates>{coords}</coordinates>" if draw(st.booleans()) else ""
    geometry = draw(st.sampled_from(["Point", "LineString", "Polygon", "none"]))
    if geometry == "Polygon":
        ring = f"<LinearRing>{coordinates}</LinearRing>" if draw(st.booleans()) else ""
        body = f"<Polygon><outerBoundaryIs>{ring}</outerBoundaryIs></Polygon>"
    else:
        body = "" if geometry == "none" else f"<{geometry}>{coordinates}</{geometry}>"
    return f"<Placemark><name>{name}</name>{body}</Placemark>"


KML_TREES = st.recursive(
    kml_placemarks(),
    lambda inner: st.builds(
        lambda name, children: f"<Folder><name>{escape(name)}</name>{''.join(children)}</Folder>",
        st.sampled_from(["true", "candidates", "True", "", "x"]),
        st.lists(inner, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(st.lists(KML_TREES, max_size=4))
def test_reviewed_kml_gives_intersections_or_a_data_error(trees):
    # Whatever the folders and coordinates hold, the import gives
    # intersections and rejects that account for every placemark it read,
    # or a DataError; never another exception.
    text = kml_doc("".join(trees))
    try:
        feats = parse_kml_features(io.StringIO(text))
        reviewed, rejects = import_reviewed_kml(feats)
    except DataError:
        with pytest.raises(DataError):
            import_reviewed_kml(io.StringIO(text))
        return
    assert import_reviewed_kml(io.StringIO(text)) == (reviewed, rejects)
    kinds = [r.kind for r in rejects]
    approaches = sum(len(r.approaches) for r in reviewed)
    assert len(feats.true_points()) == len(reviewed) + kinds.count("intersection")
    assert len(feats.polygons) == approaches + kinds.count("polygon")
    assert len(feats.lines) == approaches + kinds.count("line")
