import io
import json
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_trajectory import T0, northbound_drive, northbound_intersection, pt

from intxn_pipeline.clips import (
    VIDEO_COLUMNS,
    ClipSpec,
    OverlayParams,
    VideoFile,
    build_clip_specs,
    clip_command,
    distance_crossing_time,
    emit_cutlist,
    match_video,
    parse_cutlist,
    read_videos_csv,
)
from intxn_pipeline.errors import DataError, NoCoveringVideoError
from intxn_pipeline.ingest import SensorRecord, SensorTable
from intxn_pipeline.review import read_demographics
from intxn_pipeline.trajectory import assign_bearings, extract_trajectories


def _trajs(sensor=None, intxns=None):
    sensor = sensor if sensor is not None else northbound_drive()
    intxns = intxns if intxns is not None else [northbound_intersection()]
    trajs, _ = extract_trajectories(SensorTable.from_records(sensor), assign_bearings(intxns))
    return trajs


def video(start_s=0.0, end_s=600.0, uri="file:///videos/a.mp4", subj="A", drive=1):
    return VideoFile(
        uri,
        subj,
        drive,
        T0 + timedelta(seconds=start_s),
        T0 + timedelta(seconds=end_s),
        30.0,
    )


def test_match_video_containment():
    traj = _trajs()[0]  # spans T0+4 .. T0+14
    picked, warning = match_video(traj, [video()])
    assert picked.uri == "file:///videos/a.mp4"
    assert warning is None


def test_match_video_straddling_files_picks_ref_file():
    traj = _trajs()[0]  # ref at T0+10
    early = video(0.0, 8.0, uri="file:///videos/part1.mp4")
    late = video(8.0, 600.0, uri="file:///videos/part2.mp4")
    picked, warning = match_video(traj, [early, late])
    assert picked.uri == "file:///videos/part2.mp4"
    assert warning == "spans_files"


def test_match_video_no_coverage_raises():
    traj = _trajs()[0]
    with pytest.raises(NoCoveringVideoError):
        match_video(traj, [video(100.0, 200.0)])


def test_crossing_time_constant_speed():
    traj = _trajs()[0]  # window starts 300 ft before the ref point
    target = traj.ref_cum_dist_ft - 150.0
    t = distance_crossing_time(traj.points, target)
    assert (t - traj.start_time_utc).total_seconds() == pytest.approx(3.0)


def test_crossing_time_at_knot_returns_sample_time():
    traj = _trajs()[0]
    sample = traj.points[4]
    assert distance_crossing_time(traj.points, sample.cum_dist_ft) == sample.t_utc


def test_crossing_time_flat_segment_resolves_earliest():
    base = pt()
    points = [
        SensorRecord("A", 1, T0 + timedelta(seconds=s), base, 0.0, 0.0, cum)
        for s, cum in ((0, 0.0), (1, 100.0), (2, 100.0), (3, 100.0), (4, 200.0))
    ]
    t = distance_crossing_time(SensorTable.from_records(points), 100.0)
    assert t == T0 + timedelta(seconds=1)


def test_crossing_time_out_of_range():
    traj = _trajs()[0]
    with pytest.raises(ValueError):
        distance_crossing_time(traj.points, traj.points[-1].cum_dist_ft + 1.0)


def test_clip_specs_constant_speed_oracle():
    # Closed form at 50 ft/s: overlay on (300-150)/50 = 3 s into the clip,
    # off (300+50)/50 = 7 s, duration 500/50 = 10 s.
    specs, report = build_clip_specs(_trajs(), [video()])
    assert not report["unclippable"] and not report["warnings"]
    spec = specs[0]
    assert spec.in_offset_s == pytest.approx(4.0)
    assert spec.duration_s == pytest.approx(10.0)
    assert spec.overlay_on_s == pytest.approx(3.0)
    assert spec.overlay_off_s == pytest.approx(7.0)
    assert spec.output_name == "A_1_4.mp4"


def test_clip_specs_truncated_window_clamps_overlay_on():
    # Junction 100 ft into the drive: only 100 ft of upstream history, so
    # the 150-ft overlay target precedes the clip and clamps to 0.
    trajs = _trajs(intxns=[northbound_intersection(junction_north_ft=100.0, length_ft=100.0)])
    specs, _ = build_clip_specs(trajs, [video()])
    assert specs[0].overlay_on_s == 0.0
    assert specs[0].overlay_off_s == pytest.approx(3.0)  # (100+50)/50


def test_clip_specs_degenerate_overlay_distances():
    trajs = _trajs()
    specs, _ = build_clip_specs(
        trajs, [video()], OverlayParams(on_upstream_ft=0.0, off_downstream_ft=0.0)
    )
    spec = specs[0]
    assert spec.overlay_on_s == spec.overlay_off_s == pytest.approx(6.0)  # ref at 300/50


def test_clip_specs_unclippable_reported():
    specs, report = build_clip_specs(_trajs(), [video(100.0, 200.0)])
    assert specs == []
    assert report["unclippable"] == [{"traj_id": "A_1_4", "reason": "no_covering_video"}]


def test_clip_shorter_than_the_cut_list_holds_is_unclippable():
    # 0.3 ms of video at the reference time: the cut-list's three decimals
    # would write its duration as 0.000, which parse_cutlist rejects.
    specs, report = build_clip_specs(_trajs(), [video(9.9997, 10.0)])
    assert specs == []
    assert report["unclippable"] == [{"traj_id": "A_1_4", "reason": "empty_overlap"}]


def test_clip_fits_in_source_invariant():
    trajs = _trajs()
    vid = video()
    specs, _ = build_clip_specs(trajs, [vid])
    for spec in specs:
        assert spec.in_offset_s >= 0.0
        video_duration = (vid.end_time_utc - vid.start_time_utc).total_seconds()
        assert spec.in_offset_s + spec.duration_s <= video_duration + 1e-9


def test_emit_cutlist_roundtrip_lossless(tmp_path):
    specs, _ = build_clip_specs(_trajs(), [video()])
    json_path = tmp_path / "cutlist.json"
    script_path = tmp_path / "cutlist.sh"
    emit_cutlist(specs, json_path, script_path)
    restored = parse_cutlist(json_path)
    assert restored == [
        ClipSpec(
            s.traj_id,
            s.source_uri,
            round(s.in_offset_s, 3),
            round(s.duration_s, 3),
            round(s.overlay_on_s, 3),
            round(s.overlay_off_s, 3),
            s.output_name,
        )
        for s in specs
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
    ],
    ids=[
        "object", "number", "missing-key", "bad-number", "null", "overlay-outside", "not-object",
        "beyond-float",
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
    emit_cutlist([], json_path, script_path)
    assert json_path.read_text() == "[]\n"
    assert script_path.read_text() == ""


def test_emit_cutlist_two_specs_same_source(tmp_path):
    sensor = northbound_drive(n=41)
    intxns = [
        northbound_intersection(intxn_id=2, junction_north_ft=500.0),
        northbound_intersection(intxn_id=9, junction_north_ft=1500.0),
    ]
    specs, _ = build_clip_specs(_trajs(sensor, intxns), [video()])
    json_path = tmp_path / "cutlist.json"
    script_path = tmp_path / "cutlist.sh"
    emit_cutlist(specs, json_path, script_path)
    lines = script_path.read_text().splitlines()
    assert len(lines) == 2
    assert all("file:///videos/a.mp4" in line for line in lines)
    assert "A_1_2.mp4" in lines[0] and "A_1_9.mp4" in lines[1]


def test_emit_cutlist_deterministic_bytes(tmp_path):
    specs, _ = build_clip_specs(_trajs(), [video()])
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    emit_cutlist(specs, p1)
    emit_cutlist(list(reversed(specs)), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_clip_command_contains_overlay_window():
    spec = ClipSpec("A_1_4", "file:///v.mp4", 4.0, 10.0, 3.0, 7.0, "A_1_4.mp4")
    cmd = clip_command(spec, processor="ffmpeg")
    assert cmd.startswith("ffmpeg -y -ss 4.000 -t 10.000 ")
    assert "between(t,3.000,7.000)" in cmd
    assert "drawbox" in cmd and "color=red" in cmd


def test_read_videos_csv_and_validation(tmp_path):
    path = tmp_path / "videos.csv"
    path.write_text(
        "uri,subj,drive,start_time_utc,end_time_utc,fps\n"
        "file:///v.mp4,A,1,2019-05-01T12:00:00.000Z,2019-05-01T12:10:00.000Z,30.0\n"
    )
    videos = read_videos_csv(path)
    assert videos[0].subj == "A"
    assert videos[0].fps == 30.0
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "uri,subj,drive,start_time_utc,end_time_utc,fps\n"
        "file:///v.mp4,A,1,2019-05-01T12:10:00.000Z,2019-05-01T12:00:00.000Z,30.0\n"
    )
    from intxn_pipeline.errors import DataError

    with pytest.raises(DataError):
        read_videos_csv(bad)


def test_clipspec_invariants():
    with pytest.raises(ValueError):
        ClipSpec("x", "u", -1.0, 10.0, 0.0, 1.0, "x.mp4")
    with pytest.raises(ValueError):
        ClipSpec("x", "u", 0.0, 10.0, 5.0, 2.0, "x.mp4")
    with pytest.raises(ValueError):
        ClipSpec("x", "u", 0.0, 10.0, 5.0, 12.0, "x.mp4")


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
