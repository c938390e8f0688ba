import io
import json
import math
import shlex
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    ClipSpec, clip_specs, cutlist_of, old_emit_cutlist, reviewed_set, table_of, trajectories_of,
)
from test_trajectory import T0, northbound_drive, northbound_intersection, pt

from intxn_pipeline.clips import (
    OVERLAY_BOX_EXPR,
    VIDEO_COLUMNS,
    CutList,
    OverlayParams,
    VideoTable,
    build_clip_specs,
    emit_cutlist,
    parse_cutlist,
    read_videos_csv,
)
from intxn_pipeline.errors import DataError, HeaderMismatchError
from intxn_pipeline.ingest import SensorTable, to_us
from intxn_pipeline.review import read_demographics
from intxn_pipeline.trajectory import extract_trajectories

A_MP4 = "file:///videos/a.mp4"


def _trajs(sensor=None, intxns=None):
    """The trajectory table and the sensor table its windows are cut from."""
    sensor = table_of(SensorTable, sensor if sensor is not None else northbound_drive())
    intxns = intxns if intxns is not None else [northbound_intersection()]
    trajs, _ = extract_trajectories(sensor, reviewed_set(intxns))
    return trajs, sensor


def videos(*spans):
    """Drive (A, 1)'s video table, a video per (start_s, end_s, uri) in
    seconds after T0; by default one video over the whole drive."""
    spans = spans or [(0.0, 600.0, A_MP4)]
    start, end, uri = zip(*spans)
    times = [[to_us(T0 + timedelta(seconds=s)) for s in side] for side in (start, end)]
    n = len(spans)
    return VideoTable.from_columns(["A"] * n, [1] * n, *times, [30.0] * n, uri)


def test_match_video_containment():
    cut, report = build_clip_specs(*_trajs(), videos())  # spans T0+4 .. T0+14
    assert cut.source_uri == [A_MP4]
    assert report == {"unclippable": [], "warnings": []}


def test_match_video_straddling_files_picks_ref_file():
    # Neither file holds T0+4 .. T0+14; the second holds the ref at T0+10.
    split = videos((0.0, 8.0, "file:///videos/part1.mp4"), (8.0, 600.0, "file:///videos/part2.mp4"))
    cut, report = build_clip_specs(*_trajs(), split)
    assert cut.source_uri == ["file:///videos/part2.mp4"]
    assert (cut.in_offset_s[0], cut.duration_s[0]) == (0.0, 6.0)  # T0+8 .. T0+14
    assert report["warnings"] == [{"traj_id": "A_1_4", "warning": "spans_files"}]


def test_match_video_no_coverage_raises():
    # Drive (A, 1)'s only video ends at T0+9, before the ref at T0+10; the
    # video spanning the whole window belongs to drive (A, 2).
    window = [to_us(T0 + timedelta(seconds=s)) for s in (0.0, 9.0, 0.0, 600.0)]
    vids = VideoTable.from_columns(
        ["A", "A"], [1, 2], window[0::2], window[1::2], [30.0, 30.0], [A_MP4, "file:///videos/b.mp4"]
    )
    cut, report = build_clip_specs(*_trajs(), vids)
    assert len(cut) == 0
    assert report == {
        "unclippable": [{"traj_id": "A_1_4", "reason": "no_covering_video"}],
        "warnings": [],
    }


def test_crossing_time_constant_speed():
    # 50 ft/s from T0+4: the ref (cum 500) at 6 s, cum 375 at 3.5 s, cum 575 at 7.5 s.
    overlay = OverlayParams(on_upstream_ft=125.0, off_downstream_ft=75.0)
    cut, _ = build_clip_specs(*_trajs(), videos(), overlay)
    assert (cut.overlay_on_s.tolist(), cut.overlay_off_s.tolist()) == ([3.5], [7.5])


def test_crossing_time_at_knot_returns_sample_time():
    # Cum 350 is the sample at T0+7, 3 s into the clip.
    cut, _ = build_clip_specs(*_trajs(), videos())
    assert cut.overlay_on_s.tolist() == [3.0]


def test_crossing_time_flat_segment_resolves_earliest():
    base = pt()
    points = [
        ("A", 1, to_us(T0 + timedelta(seconds=s)), base.lat_deg, base.lon_deg, 0.0, 0.0, cum)
        for s, cum in ((0, 0.0), (1, 100.0), (2, 100.0), (3, 100.0), (4, 200.0))
    ]
    sensor = table_of(SensorTable, points)
    trajs = trajectories_of(sensor, [("A", 1, 4, 1, 2, 0, 5)])
    overlay = OverlayParams(on_upstream_ft=0.0, off_downstream_ft=0.0)
    cut, _ = build_clip_specs(trajs, sensor, videos(), overlay)
    assert (cut.overlay_on_s.tolist(), cut.overlay_off_s.tolist()) == ([1.0], [1.0])


def test_clip_specs_constant_speed_oracle():
    # Closed form at 50 ft/s: overlay on (300-150)/50 = 3 s into the clip,
    # off (300+50)/50 = 7 s, duration 500/50 = 10 s.
    cut, report = build_clip_specs(*_trajs(), videos())
    assert not report["unclippable"] and not report["warnings"]
    (spec,) = clip_specs(cut)
    assert spec.in_offset_s == pytest.approx(4.0)
    assert spec.duration_s == pytest.approx(10.0)
    assert spec.overlay_on_s == pytest.approx(3.0)
    assert spec.overlay_off_s == pytest.approx(7.0)
    assert spec.output_name == "A_1_4.mp4"


def test_clip_specs_truncated_window_clamps_overlay_on():
    # Junction 100 ft into the drive: only 100 ft of upstream history, so
    # the 150-ft overlay target precedes the clip and clamps to 0.
    trajs = _trajs(intxns=[northbound_intersection(junction_north_ft=100.0, length_ft=100.0)])
    cut, _ = build_clip_specs(*trajs, videos())
    assert cut.overlay_on_s[0] == 0.0
    assert cut.overlay_off_s[0] == pytest.approx(3.0)  # (100+50)/50


def test_clip_specs_degenerate_overlay_distances():
    trajs = _trajs()
    cut, _ = build_clip_specs(
        *trajs, videos(), OverlayParams(on_upstream_ft=0.0, off_downstream_ft=0.0)
    )
    (spec,) = clip_specs(cut)
    assert spec.overlay_on_s == spec.overlay_off_s == pytest.approx(6.0)  # ref at 300/50


def test_clip_specs_unclippable_reported():
    cut, report = build_clip_specs(*_trajs(), videos((100.0, 200.0, A_MP4)))
    assert len(cut) == 0
    assert report["unclippable"] == [{"traj_id": "A_1_4", "reason": "no_covering_video"}]


def test_clip_shorter_than_the_cut_list_holds_is_unclippable():
    # 0.3 ms of video at the reference time: the cut-list's three decimals
    # would write its duration as 0.000, which parse_cutlist rejects.
    cut, report = build_clip_specs(*_trajs(), videos((9.9997, 10.0, A_MP4)))
    assert len(cut) == 0
    assert report["unclippable"] == [{"traj_id": "A_1_4", "reason": "empty_overlap"}]


def test_clip_fits_in_source_invariant():
    trajs = _trajs()
    vid = videos()
    cut, _ = build_clip_specs(*trajs, vid)
    assert len(cut) == 1 and (cut.in_offset_s >= 0.0).all()
    video_duration = (vid.end_us[0] - vid.t_us[0]) / 1e6
    assert (cut.in_offset_s + cut.duration_s <= video_duration + 1e-9).all()


def test_emit_cutlist_roundtrip_lossless(tmp_path):
    cut, _ = build_clip_specs(*_trajs(), videos())
    json_path = tmp_path / "cutlist.json"
    script_path = tmp_path / "cutlist.sh"
    emit_cutlist(cut, json_path, script_path)
    restored = parse_cutlist(json_path)
    assert restored == cut
    assert clip_specs(restored) == [
        ClipSpec(*s[:2], *(round(t, 3) for t in s[2:6]), s.output_name) for s in clip_specs(cut)
    ]
    # Three-decimal fixed serialization.
    assert '"in_offset_s": 4.000' in json_path.read_text()


GOOD_ENTRY = {
    "traj_id": "A_1_4", "source_uri": "a.mp4", "in_offset_s": 4.0, "duration_s": 10.0,
    "overlay_on_s": 3.0, "overlay_off_s": 7.0, "output_name": "A_1_4.mp4",
}


@pytest.mark.parametrize(
    "entries",
    [
        {"traj_id": "A_1_4"},
        7,
        [{k: v for k, v in GOOD_ENTRY.items() if k != "duration_s"}],
        [{**GOOD_ENTRY, "duration_s": "ten"}],
        [{**GOOD_ENTRY, "duration_s": None}],
        [{**GOOD_ENTRY, "overlay_on_s": 1e6}],
        ["A_1_4"],
        [{**GOOD_ENTRY, "duration_s": 10**400}],
        {},
        [{**GOOD_ENTRY, "in_offset_s": float("nan")}],
        [{**GOOD_ENTRY, "duration_s": float("inf"), "overlay_off_s": float("inf")}],
        [{**GOOD_ENTRY, "overlay_on_s": True}],
        [{**GOOD_ENTRY, "duration_s": "10"}],
        [{**GOOD_ENTRY, "traj_id": 5}],
        [{**GOOD_ENTRY, "output_name": 5}],
        [{**GOOD_ENTRY, "source_uri": None}],
        [GOOD_ENTRY, {**GOOD_ENTRY, "output_name": "other.mp4"}],
        [GOOD_ENTRY, {**GOOD_ENTRY, "traj_id": "A_1_5"}],
    ],
    ids=[
        "object", "number", "missing-key", "bad-number", "null", "overlay-outside", "not-object",
        "beyond-float", "empty-object", "nan-offset", "infinite-duration", "bool-time",
        "text-time", "int-traj-id", "int-output-name", "null-uri", "repeated-traj-id",
        "repeated-output-name",
    ],
)
def test_bad_cutlist_entry_raises_data_error(tmp_path, entries):
    # A hand-edited cut-list must fail as data, not with a traceback.
    path = tmp_path / "cutlist.json"
    path.write_text(json.dumps(entries))
    with pytest.raises(DataError):
        parse_cutlist(path)


def test_emit_cutlist_empty(tmp_path):
    json_path = tmp_path / "cutlist.json"
    script_path = tmp_path / "cutlist.sh"
    emit_cutlist(cutlist_of([]), json_path, script_path)
    assert json_path.read_text() == "[]\n"
    assert script_path.read_text() == ""


def test_emit_cutlist_two_specs_same_source(tmp_path):
    sensor = northbound_drive(n=41)
    intxns = [
        northbound_intersection(intxn_id=2, junction_north_ft=500.0),
        northbound_intersection(intxn_id=9, junction_north_ft=1500.0),
    ]
    cut, _ = build_clip_specs(*_trajs(sensor, intxns), videos())
    json_path = tmp_path / "cutlist.json"
    script_path = tmp_path / "cutlist.sh"
    emit_cutlist(cut, json_path, script_path)
    lines = script_path.read_text().splitlines()
    assert len(lines) == 2
    assert all("file:///videos/a.mp4" in line for line in lines)
    assert "A_1_2.mp4" in lines[0] and "A_1_9.mp4" in lines[1]


def test_emit_cutlist_deterministic_bytes(tmp_path):
    sensor = northbound_drive(n=41)
    intxns = [northbound_intersection(i, north) for i, north in ((9, 500.0), (10, 1500.0))]
    cut, _ = build_clip_specs(*_trajs(sensor, intxns), videos())
    assert cut.traj_id == ["A_1_10", "A_1_9"]  # traj_id order, not the table's
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    emit_cutlist(cut, p1)
    emit_cutlist(cutlist_of(clip_specs(cut)[::-1]), p2)
    assert p1.read_bytes() == p2.read_bytes()


def _emitted(specs, processor="ffmpeg") -> tuple[str, str]:
    """The cut-list's and the script's texts for ``specs``, ``ClipSpec``s."""
    out = [io.StringIO(newline=""), io.StringIO(newline="")]
    emit_cutlist(cutlist_of(specs), *out, processor=processor)
    return out[0].getvalue(), out[1].getvalue()


def test_clip_command_contains_overlay_window():
    spec = ClipSpec("A_1_4", "file:///v.mp4", 4.0, 10.0, 3.0, 7.0, "A_1_4.mp4")
    cmd = _emitted([spec], processor="ffmpeg")[1]
    assert cmd.startswith("ffmpeg -y -ss 4.000 -t 10.000 ")
    assert "between(t,3.000,7.000)" in cmd
    assert "drawbox" in cmd and "color=red" in cmd


def test_cutlist_script_quotes_each_clip_as_a_whole(tmp_path):
    # The drawbox filter is quoted once per process; each line must still
    # equal quoting the clip's whole filter, whatever the URI and name hold.
    specs = [
        ClipSpec("A_1_4", "file:///my videos/it's.mp4", 4.0, 10.0, 3.25, 7.0005, "A B_1_4.mp4"),
        ClipSpec("A_2_4", "file:///v.mp4", 0.5, 1e9, 0.0, 1e9, "$(x)'; `y`.mp4"),
        ClipSpec("A_3_4", 'file:///"q"\\n.mp4', 0.0, 2.0, 1e-4, 2.0, "\n\t.mp4"),
    ]
    script_path = tmp_path / "cutlist.sh"
    emit_cutlist(cutlist_of(specs), tmp_path / "cutlist.json", script_path)
    expected = []
    for s in specs:
        on_off = f"{s.overlay_on_s:.3f},{s.overlay_off_s:.3f}"
        drawbox = f"drawbox={OVERLAY_BOX_EXPR}:enable='between(t,{on_off})'"
        expected.append(
            f"ffmpeg -y -ss {s.in_offset_s:.3f} -t {s.duration_s:.3f} -i {shlex.quote(s.source_uri)}"
            f" -vf {shlex.quote(drawbox)} {shlex.quote(s.output_name)}\n"
        )
    assert script_path.read_text(encoding="utf-8") == "".join(expected)
    for s, line in zip(specs, expected):  # the script's commands, one per clip
        args = shlex.split(line)
        assert (args[7], args[-1]) == (s.source_uri, s.output_name)


# Texts that JSON escapes, the shell quotes, or both, and non-ASCII.
CLIP_TEXTS = st.text(alphabet=st.sampled_from(list("a_ '\"\\$`;\n\t,é€🎥")), max_size=6)


@st.composite
def cutlist_specs(draw):
    """Clip specs with unique traj_ids and output names, a few URIs shared."""
    uris = draw(st.lists(CLIP_TEXTS, min_size=1, max_size=3))
    specs = []
    for k, traj_id in enumerate(draw(st.lists(CLIP_TEXTS, max_size=6, unique=True))):
        duration = draw(st.floats(1e-3, 1e9) | st.sampled_from([7.0005, 1e9, 2.0]))
        on, off = sorted(draw(st.floats(0.0, duration)) for _ in range(2))
        offset = draw(st.floats(0.0, 1e9))
        uri = draw(st.sampled_from(uris))
        specs.append(ClipSpec(traj_id, uri, offset, duration, on, off, f"{traj_id}_{k}.mp4"))
    return specs


@settings(max_examples=200, deadline=None)
@given(cutlist_specs(), st.sampled_from(["ffmpeg", "my ffmpeg"]))
def test_cutlist_is_the_clip_at_a_time_text(specs, processor):
    assert _emitted(specs, processor) == old_emit_cutlist(specs, processor)


def test_cutlist_chunks_join_as_one():
    # 2,500 specs are three chunks of rendering; the files are one text.
    specs = [
        ClipSpec(f"S{k:04d}_1_4", f"file:///v{k % 7}'s.mp4", k / 3, 1 + k / 7, 0.0, 1.0, f"{k}.mp4")
        for k in range(2500)
    ]
    assert _emitted(specs[::-1]) == old_emit_cutlist(specs)


def test_read_videos_csv_and_validation(tmp_path):
    path = tmp_path / "videos.csv"
    path.write_text(
        "uri,subj,drive,start_time_utc,end_time_utc,fps\n"
        "file:///v.mp4,A,1,2019-05-01T12:00:00.000Z,2019-05-01T12:10:00.000Z,30.0\n"
    )
    table = read_videos_csv(path)
    assert table.keys == [("A", 1)]
    assert table.fps.tolist() == [30.0]
    assert table.uri.tolist() == ["file:///v.mp4"]
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "uri,subj,drive,start_time_utc,end_time_utc,fps\n"
        "file:///v.mp4,A,1,2019-05-01T12:10:00.000Z,2019-05-01T12:00:00.000Z,30.0\n"
    )
    with pytest.raises(DataError, match="end time not after start time"):
        read_videos_csv(bad)


def test_video_rows_are_sorted_by_start_then_uri():
    text = ",".join(VIDEO_COLUMNS) + "\n" + "".join(
        f"{uri},B,1,2019-05-01T12:0{start}:00Z,2019-05-01T12:09:00Z,30\n"
        for uri, start in (("c.mp4", 1), ("b.mp4", 0), ("a.mp4", 1), (" a0.mp4 ", 1))
    ) + "a.mp4,A,1,2019-05-01T12:00:00Z,2019-05-01T12:09:00Z,30\n"
    table = read_videos_csv(io.StringIO(text, newline=""))
    assert table.keys == [("A", 1), ("B", 1)]
    assert table.uri.tolist() == ["a.mp4", "b.mp4", "a.mp4", "a0.mp4", "c.mp4"]


TIMES = "2019-05-01T12:00:00Z,2019-05-01T12:10:00Z"


@pytest.mark.parametrize(
    "row",
    [f"v.mp4, ,1,{TIMES},30", f"v.mp4,A,1,{TIMES},nan", f"v.mp4,A,1,{TIMES},0"],
    ids=["empty-subj", "nan-fps", "zero-fps"],
)
def test_bad_video_row_raises_data_error_naming_its_line(row):
    text = ",".join(VIDEO_COLUMNS) + "\n\n" + row + "\n"
    with pytest.raises(DataError, match="line 3"):
        read_videos_csv(io.StringIO(text, newline=""))


def test_video_table_without_a_column_raises_header_mismatch():
    header = ",".join(VIDEO_COLUMNS[:-1]) + "\n"
    with pytest.raises(HeaderMismatchError, match="fps"):
        read_videos_csv(io.StringIO(header, newline=""))


@pytest.mark.parametrize(
    "times, message",
    [
        ((-1.0, 10.0, 0.0, 1.0), "bad offset/duration"),
        ((0.0, 0.0, 0.0, 0.0), "bad offset/duration"),
        ((float("inf"), 10.0, 0.0, 1.0), "bad offset/duration"),
        ((0.0, float("nan"), 0.0, 1.0), "bad offset/duration"),
        ((0.0, 10.0, 5.0, 2.0), "overlay interval outside clip"),
        ((0.0, 10.0, 5.0, 12.0), "overlay interval outside clip"),
        ((0.0, 10.0, 5.0, 10.000001), "overlay interval outside clip"),
        ((0.0, 10.0, -1.0, 2.0), "overlay interval outside clip"),
        ((0.0, 10.0, float("nan"), 2.0), "overlay interval outside clip"),
    ],
    ids=[
        "negative-offset", "zero-duration", "infinite-offset", "nan-duration", "on-after-off",
        "off-past-duration", "off-just-past-duration", "negative-on", "nan-on",
    ],
)
def test_cutlist_checks_name_the_first_bad_clip(tmp_path, times, message):
    # Entries y (good), x (bad) and w (bad, sorting first): x is named, as
    # the one-clip-at-a-time check named the first bad clip it met.
    bad = dict(zip(["in_offset_s", "duration_s", "overlay_on_s", "overlay_off_s"], times))
    entries = [
        {**GOOD_ENTRY, "traj_id": "y", "output_name": "y.mp4"},
        {**GOOD_ENTRY, **bad, "traj_id": "x", "output_name": "x.mp4"},
        {**GOOD_ENTRY, **bad, "traj_id": "w", "output_name": "w.mp4"},
    ]
    if all(map(math.isfinite, times)):  # the one-clip check took NaN and inf
        with pytest.raises(ValueError, match=f"^clip x: {message}$"):
            ClipSpec(**entries[1])
    columns = {key: [e[key] for e in entries] for key in GOOD_ENTRY}
    with pytest.raises(ValueError, match=f"^clip x: {message}$"):
        CutList(**columns)
    path = tmp_path / "cutlist.json"
    path.write_text(json.dumps(entries))
    with pytest.raises(DataError, match=f"clip x: {message}$"):
        parse_cutlist(path)


def test_cutlist_sorts_by_traj_id_with_read_only_times():
    columns = {key: [GOOD_ENTRY[key]] * 3 for key in GOOD_ENTRY}
    columns["traj_id"] = ["b", "c", "a"]
    columns["output_name"] = ["2.mp4", "1.mp4", "3.mp4"]
    columns["in_offset_s"] = [2.0, 1.0, 3.0]
    cut = CutList(**columns)
    assert cut.traj_id == ["a", "b", "c"] and cut.output_name == ["3.mp4", "2.mp4", "1.mp4"]
    assert cut.in_offset_s.tolist() == [3.0, 2.0, 1.0] and cut.duration_s.tolist() == [10.0] * 3
    assert cut == CutList(**columns) and cut != CutList(**{**columns, "source_uri": list("uvw")})
    with pytest.raises(ValueError):
        cut.overlay_on_s[0] = 1.0
    with pytest.raises(ValueError, match="repeated traj_id b"):
        CutList(**{**columns, "traj_id": ["b", "c", "b"]})
    with pytest.raises(ValueError, match="repeated output_name 1.mp4"):
        CutList(**{**columns, "output_name": ["1.mp4", "2.mp4", "1.mp4"]})


def test_short_video_row_raises_data_error():
    with pytest.raises(DataError, match="v.mp4"):
        read_videos_csv(io.StringIO(",".join(VIDEO_COLUMNS) + "\nv.mp4\n", newline=""))


# Field values that parse, values that do not, and CSV syntax.
FIELDS = st.sampled_from([
    "", " ", "v.mp4", "A", "1", "-1", "x", "30", "nan", "1e999", "9" * 30, '"', "a,b", '"q"',
    "2019-05-01T12:00:00.000Z", "2019-05-01T12:10:00Z", "0001-01-01T00:00:00+01:00",
    "9999-12-31T23:59:59-01:00", "2019-05-01T12:00:00.000Z\0",
]) | st.text(max_size=4)
CSV_TEXT = st.lists(st.lists(FIELDS, max_size=8).map(",".join), max_size=5).map("\n".join)
CUT_KEYS = st.sampled_from(list(GOOD_ENTRY))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from(list(GOOD_ENTRY.values())) | st.just(10**400),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(CUT_KEYS | st.text(max_size=3), inner, max_size=8),
    max_leaves=12,
)
ENTRIES = st.lists(
    st.dictionaries(CUT_KEYS, JSON_VALUES, max_size=7).map(lambda e: {**GOOD_ENTRY, **e}),
    max_size=3,
)
HEADERS = {"videos": ",".join(VIDEO_COLUMNS) + "\n", "demographics": "subj,age,gender\n"}
READERS = {"videos": read_videos_csv, "demographics": read_demographics}


@pytest.mark.parametrize("name", sorted(READERS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_csv_sidecar_reader_gives_rows_or_a_data_error(name, data):
    header = HEADERS[name] if data.draw(st.booleans()) else ""
    text = header + data.draw(CSV_TEXT | st.text(max_size=40))
    try:
        READERS[name](io.StringIO(text, newline=""))
    except DataError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    ENTRIES.map(json.dumps), JSON_VALUES.map(json.dumps), st.text(max_size=40),
))
def test_parse_cutlist_gives_specs_or_a_data_error(text):
    try:
        parse_cutlist(io.StringIO(text, newline=""))
    except DataError:
        pass
