import csv
import io
import json
import math
from datetime import datetime, timezone
from xml.sax.saxutils import escape

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    ClipSpec,
    IntersectionCandidate,
    candidates_of,
    cutlist_of,
    et_export_candidates_kml,
    et_kml,
    et_write_kml,
    old_parse_kml_features,
    placemark_rows,
    reviewed_doc,
    scalar_import_reviewed_kml,
)
from test_synth_differential import BENCH_SPECS

from intxn_pipeline.errors import DataError, KmlParseError
from intxn_pipeline.geo import FT_PER_DEG, GeoPoint
from intxn_pipeline.ingest import to_us
from intxn_pipeline.review import (
    LINE_EDGE_MATCH_FT,
    POLYGON_MATCH_FT,
    REVIEW_COLUMNS,
    build_review_template,
    export_candidates_kml,
    import_reviewed_kml,
    load_reviewed_json,
    parse_kml_features,
    read_demographics,
    reviewed_from_json,
    reviewed_to_json,
    save_reviewed_json,
    write_kml,
    write_review_csv,
)
from intxn_pipeline.synth import ScenarioSpec, generate
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
    export_candidates_kml(candidates_of([IntersectionCandidate(1, GeoPoint(41, -96), 4)]), out)
    assert "<coordinates>-96,41,0</coordinates>" in out.getvalue()
    assert "<name>candidates</name>" in out.getvalue()


def test_export_kml_document_order():
    out = io.StringIO()
    export_candidates_kml(
        candidates_of([
            IntersectionCandidate(3, pt(north_ft=200), 3),
            IntersectionCandidate(1, pt(), 3),
            IntersectionCandidate(2, pt(north_ft=100), 3),
        ]),
        out,
    )
    text = out.getvalue()
    assert text.index("<name>1</name>") < text.index("<name>2</name>") < text.index("<name>3</name>")


@pytest.mark.parametrize("shape", sorted(BENCH_SPECS))
def test_export_kml_is_the_element_tree_document(tmp_path, shape):
    candidates = generate(ScenarioSpec(**BENCH_SPECS[shape]), tmp_path).ground_truth.candidates
    new, old = io.StringIO(), io.StringIO()
    export_candidates_kml(candidates, new)
    et_export_candidates_kml(candidates, old)
    assert new.getvalue() == old.getvalue()


def test_write_kml_escapes_texts_as_element_tree():
    folders = [
        ("true & <kept>", [("7 <&> 8", "Point", "-96,41,0", "stop & <go>")]),
        ("approaches", [
            ("a>b", "Polygon", "-96,41,0 -95,41,0 -95,42,0 -96,41,0", None),
            ("&amp;", "LineString", "-96,41,0 -95,41,0", None),
        ]),
    ]
    new, old = io.StringIO(), io.StringIO()
    write_kml(folders, new)
    et_write_kml(et_kml(folders), old)
    assert new.getvalue() == old.getvalue()
    assert "<name>true &amp; &lt;kept&gt;</name>" in new.getvalue()
    assert "<name>&amp;amp;</name>" in new.getvalue()
    new.seek(0)
    feats = parse_kml_features(new)
    assert feats.folder_names == {"true & <kept>", "approaches"}
    assert (feats.points.names, feats.points.extended) == (["7 <&> 8"], [{"control": "stop & <go>"}])
    assert (feats.polygons.names, feats.lines.names) == (["a>b"], ["&amp;"])


_kml_texts = st.text(min_size=1)
_placemarks = st.tuples(
    _kml_texts, st.sampled_from(["Point", "LineString", "Polygon"]), _kml_texts, st.none() | _kml_texts
)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_kml_texts, st.lists(_placemarks, max_size=4)), min_size=1, max_size=3))
def test_write_kml_is_the_element_tree_document(folders):
    new, old = io.StringIO(), io.StringIO()
    write_kml(folders, new)
    et_write_kml(et_kml(folders), old)
    assert new.getvalue() == old.getvalue()


def test_export_kml_rejects_empty():
    with pytest.raises(ValueError):
        export_candidates_kml(candidates_of([]), io.StringIO())


def test_export_import_roundtrip_preserves_ids_and_positions():
    candidates = [
        IntersectionCandidate(i + 1, pt(north_ft=1000 * i, east_ft=13.7 * i), 3)
        for i in range(5)
    ]
    out = io.StringIO()
    export_candidates_kml(candidates_of(candidates), out)
    out.seek(0)
    points = parse_kml_features(out).points
    assert [int(name) for name in points.names] == [1, 2, 3, 4, 5]
    for cand, lat, lon in zip(candidates, points.lat.tolist(), points.lon.tolist()):
        assert abs(lat - cand.pos.lat_deg) < 1e-6
        assert abs(lon - cand.pos.lon_deg) < 1e-6


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
    assert reviewed.intxn_id == [7]
    assert reviewed.control == ["signal"]
    assert reviewed.leg_id == [1, 2]
    assert reviewed.owner.tolist() == [0, 0]


def test_import_defaults_to_stop_control(tmp_path):
    body = (
        f'<Folder><name>true</name>{point_mark("1", pt())}</Folder>'
        + polygon_mark("p", pt())
        + line_mark("l", pt())
    )
    path = tmp_path / "reviewed.kml"
    path.write_text(kml_doc(body))
    reviewed, _ = import_reviewed_kml(path)
    assert reviewed.control == ["stop"]


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
    assert [(r["kind"], r["name"], r["reason"]) for r in rejects] == [
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
        (r["kind"], r["name"], r["reason"]) for r in rejects
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
    assert [(r["kind"], r["name"], r["reason"]) for r in rejects] == [
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
    assert [(r["kind"], r["reason"]) for r in rejects] == [("intersection", "no_polygons")]


def test_import_without_true_folder_keeps_all_points(tmp_path):
    # Deletion workflow: reviewer removes false placemarks in place.
    body = point_mark("3", pt()) + polygon_mark("p", pt()) + line_mark("l", pt())
    path = tmp_path / "reviewed.kml"
    path.write_text(kml_doc(body))
    reviewed, rejects = import_reviewed_kml(path)
    assert reviewed.intxn_id == [3]
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
    assert reviewed.intxn_id == [1]


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
    kept_polygons = len(reviewed.rings.first) - 1
    rejected_polygons = sum(1 for r in rejects if r["kind"] == "polygon")
    assert kept_polygons + rejected_polygons == 3
    kept_lines = len(reviewed.line_first) - 1
    rejected_lines = sum(1 for r in rejects if r["kind"] == "line")
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
    assert restored == reviewed
    assert restored.intxn_id == reviewed.intxn_id == [4]
    assert restored.rings.ay.tolist() == reviewed.rings.ay.tolist()
    assert restored.line_lon.tolist() == reviewed.line_lon.tolist()


# A reviewed.json as written before legs lost their "entering_bearing",
# which nothing set or read: every leg carries it as null.
OLD_REVIEWED_JSON = """{
  "intersections": [
    {
      "intxn_id": 4,
      "lat": 41.0,
      "lon": -96.0,
      "control_type": "stop",
      "approaches": [
        {
          "leg_id": 1,
          "polygon": [
            [
              41.0,
              -96.00000012345
            ],
            [
              41.00082,
              -96.0001
            ],
            [
              41.00082,
              -95.9999
            ]
          ],
          "entering_line": [
            [
              40.999,
              -96.0
            ],
            [
              41.0,
              -96.0
            ]
          ],
          "entering_bearing": null
        }
      ]
    }
  ]
}
"""


def test_a_reviewed_json_with_entering_bearings_loads_as_before():
    old = load_reviewed_json(io.StringIO(OLD_REVIEWED_JSON))
    out = io.StringIO()
    save_reviewed_json(old, out)
    assert "entering_bearing" not in out.getvalue()
    new = load_reviewed_json(io.StringIO(out.getvalue()))
    assert new == old
    assert new.rings.ay.tolist() == old.rings.ay.tolist() == [41.0, 41.00082, 41.00082]
    assert new.rings.ax.tolist() == old.rings.ax.tolist()
    doc = json.loads(OLD_REVIEWED_JSON)
    for entry in doc["intersections"]:
        for leg in entry["approaches"]:
            del leg["entering_bearing"]
    assert json.loads(out.getvalue()) == doc


def _reviewed_doc_with(**changes):
    """OLD_REVIEWED_JSON's document with the first intersection's keys changed."""
    doc = json.loads(OLD_REVIEWED_JSON)
    doc["intersections"][0].update(changes)
    return json.dumps(doc)


@pytest.mark.parametrize("control", [5, "yield", None])
def test_reviewed_json_with_an_unknown_control_type_is_a_data_error(control):
    with pytest.raises(DataError, match="invalid reviewed-intersection JSON: .*control_type"):
        load_reviewed_json(io.StringIO(_reviewed_doc_with(control_type=control)))


def test_reviewed_json_with_a_repeated_intersection_is_a_data_error():
    doc = json.loads(OLD_REVIEWED_JSON)
    doc["intersections"].append(doc["intersections"][0])
    with pytest.raises(DataError, match="invalid reviewed-intersection JSON: .*given twice"):
        load_reviewed_json(io.StringIO(json.dumps(doc)))


def test_reviewed_json_with_a_repeated_leg_id_is_a_data_error():
    doc = json.loads(OLD_REVIEWED_JSON)
    legs = doc["intersections"][0]["approaches"]
    legs.append(dict(legs[0]))
    with pytest.raises(DataError, match="invalid reviewed-intersection JSON: .*leg_id twice"):
        load_reviewed_json(io.StringIO(json.dumps(doc)))
    legs[1]["leg_id"] = 2
    assert load_reviewed_json(io.StringIO(json.dumps(doc))).leg_id == [1, 2]


@pytest.mark.parametrize("key, value", [("intxn_id", 4.5), ("intxn_id", "4"), ("leg_id", True)])
def test_reviewed_json_ids_must_be_integers(key, value):
    doc = json.loads(OLD_REVIEWED_JSON)
    entry = doc["intersections"][0]
    (entry if key == "intxn_id" else entry["approaches"][0])[key] = value
    with pytest.raises(DataError, match="invalid reviewed-intersection JSON: .*not an integer"):
        load_reviewed_json(io.StringIO(json.dumps(doc)))


def test_reviewed_json_with_an_intersection_without_approaches_is_a_data_error():
    with pytest.raises(DataError, match="invalid reviewed-intersection JSON: .*no approaches"):
        load_reviewed_json(io.StringIO(_reviewed_doc_with(approaches=[])))


@pytest.mark.parametrize(
    "polygon, message",
    [
        ([[41.0, -96.0], [41.001, -96.0]], "at least 3 vertices"),
        ([[41.0, -96.0], [41.001, -96.0], [41.001, -95.999], [41.0, -96.0]], "repeat its first"),
        ([[41.0, -96.0], [41.001, -95.999], [41.001, -96.0], [41.0, -95.999]], "self-intersecting"),
    ],
)
def test_reviewed_json_ring_checks_keep_their_texts(polygon, message):
    doc = json.loads(OLD_REVIEWED_JSON)
    legs = doc["intersections"][0]["approaches"]
    legs[0]["polygon"] = polygon
    with pytest.raises(DataError, match=f"invalid reviewed-intersection JSON: ValueError: .*{message}"):
        load_reviewed_json(io.StringIO(json.dumps(doc)))
    # The first faulty ring gives the text, whatever the rings after it.
    for fault in ([], [[41.0, -96.0], [41.001, -95.999], [41.001, -96.0], [41.0, -95.999]]):
        legs.append(dict(legs[0], leg_id=len(legs) + 1, polygon=fault))
    with pytest.raises(DataError, match=f"invalid reviewed-intersection JSON: ValueError: .*{message}"):
        load_reviewed_json(io.StringIO(json.dumps(doc)))


@pytest.mark.parametrize("lat", [91.0, True, "41.0", float("nan")])
def test_reviewed_json_coordinates_must_be_numbers_in_range(lat):
    with pytest.raises(DataError, match="invalid reviewed-intersection JSON"):
        load_reviewed_json(io.StringIO(_reviewed_doc_with(lat=lat)))


def _trajs(n=1):
    """A trajectory table holding trajectory A_1_4, referenced at 12:00:30, n times."""
    t = to_us(datetime(2019, 5, 1, 12, 0, 30, tzinfo=timezone.utc))
    return TrajectoryTable.from_columns(*([v] * n for v in ("A", 1, 4, 1, t, t, t)))


def _clip(traj_id="A_1_4", overlay_on_s=3.0):
    """The cut-list of one clip of trajectory ``traj_id``."""
    return cutlist_of([ClipSpec(traj_id, "v.mp4", 0.0, 10.0, overlay_on_s, 10.0, f"{traj_id}.mp4")])


def test_template_copies_overlay_on_as_jump_to_ref():
    rows, _, warnings = build_review_template(
        _trajs(), _clip(overlay_on_s=3.0), {"A": ("52", "F")}
    )
    assert rows["jump_to_ref"][0] == 3.0
    assert rows["primary_sub_age"][0] == "52"
    assert warnings["missing_demographics"] == 0


def test_template_custom_field_manifest():
    rows, manifest, _ = build_review_template(
        _trajs(),
        _clip(),
        {"A": ("52", "F")},
        custom_fields={"stop_type": ["full", "rolling", "none"]},
    )
    assert manifest == {"stop_type": ["full", "rolling", "none"]}
    assert rows["stop_type"][0] == ""


def test_template_zero_trajectories():
    rows, manifest, _ = build_review_template(_trajs(0), cutlist_of([]), {})
    out = io.StringIO()
    write_review_csv(rows, [], out)
    assert out.getvalue() == ",".join(REVIEW_COLUMNS) + "\n"
    assert manifest == {}


def test_template_missing_demographics_warns():
    rows, _, warnings = build_review_template(_trajs(), _clip(), {})
    assert rows["primary_sub_age"][0] == ""
    assert rows["primary_subj_gender"][0] == ""
    assert warnings["missing_demographics"] == 1


def test_template_takes_each_trajectory_its_own_clip():
    # The cut-list holds a clip sorting before A_1_4's, which the table lacks.
    cut = cutlist_of([
        ClipSpec("A_1_4", "v.mp4", 0.0, 10.0, 3.0, 10.0, "four.mp4"),
        ClipSpec("A_1_3", "v.mp4", 0.0, 10.0, 5.0, 10.0, "three.mp4"),
    ])
    rows, _, _ = build_review_template(_trajs(), cut, {}, video_base_url="u/")
    assert (rows["jump_to_ref"], rows["video_url"]) == ([3.0], ["u/four.mp4"])


def test_template_missing_clip_raises():
    with pytest.raises(DataError):
        build_review_template(_trajs(), cutlist_of([]), {})


def test_template_csv_column_order_and_formatting():
    rows, _, _ = build_review_template(
        _trajs(),
        _clip(),
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
    trajs = TrajectoryTable.from_columns(["A\rB"], [1], [4], [1], [t], [t], [t])
    columns, _, _ = build_review_template(trajs, _clip("A\rB_1_4"), {})
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


def test_demographics_subj_given_twice_raises_data_error():
    # The later row would otherwise silently replace the earlier one.
    text = "subj,age,gender\nA,52,F\nB,30,M\n A ,47,M\n"
    with pytest.raises(DataError, match="demographics subj 'A' is given more than once"):
        read_demographics(io.StringIO(text, newline=""))


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
    kinds = [r["kind"] for r in rejects]
    approaches = len(reviewed.leg_id)
    assert len(feats.true_points()) == len(reviewed) + kinds.count("intersection")
    assert len(feats.polygons) == approaches + kinds.count("polygon")
    assert len(feats.lines) == approaches + kinds.count("line")


@settings(max_examples=300, deadline=None)
@given(st.lists(KML_TREES, max_size=4))
def test_kml_reader_is_the_one_placemark_at_a_time_reader(trees):
    # Reading every coordinate text at once gives the placemarks, folders
    # and coordinates of the reader that took one tuple at a time, or the
    # KmlParseError it raised first, word for word.
    text = kml_doc("".join(trees))
    try:
        expected, folder_names = old_parse_kml_features(io.StringIO(text))
    except KmlParseError as exc:
        with pytest.raises(KmlParseError) as raised:
            parse_kml_features(io.StringIO(text))
        assert str(raised.value) == str(exc)
        return
    feats = parse_kml_features(io.StringIO(text))
    got = {kind: placemark_rows(getattr(feats, kind + "s")) for kind in ("point", "line", "polygon")}
    assert got == expected
    assert feats.folder_names == folder_names


@settings(max_examples=300, deadline=None)
@given(st.lists(KML_TREES, max_size=4), st.sampled_from([POLYGON_MATCH_FT, 50.0, 2000.0]))
def test_reviewed_kml_assembles_as_one_object_at_a_time(trees, polygon_match_ft):
    # The columnar import gives the intersections, legs and rejects, in the
    # same order and with the same reasons, as the scalar per-object one.
    text = kml_doc("".join(trees))
    try:
        expected, expected_rejects = scalar_import_reviewed_kml(
            io.StringIO(text), polygon_match_ft, LINE_EDGE_MATCH_FT
        )
    except KmlParseError:
        with pytest.raises(KmlParseError):
            import_reviewed_kml(io.StringIO(text), polygon_match_ft)
        return
    reviewed, rejects = import_reviewed_kml(io.StringIO(text), polygon_match_ft)
    assert reviewed_to_json(reviewed) == reviewed_doc(expected)
    assert rejects == expected_rejects
    assert reviewed_from_json(reviewed_doc(expected)) == reviewed
