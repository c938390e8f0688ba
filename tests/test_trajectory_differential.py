"""The columnar trajectory path against the object-by-object original.

The ``old_*`` functions below are the implementations that
``TrajectoryTable`` replaced (an ``OldTrajectory`` per trajectory,
scalar distances, bisects and ``datetime`` arithmetic per window, a dict
per review row), kept here as the oracle. Hypothesis builds small studies
of northbound drives past junctions on one meridian, drawing from small
pools so that the cases below occur often: repeat passes within and beyond
``pass_gap_s``, points at equal distance from a junction (mirrored across
the centre line, or repeated while stopped), windows cut short by the
drive's ends, zero-motion stretches at the overlay targets, videos that
split a trajectory, miss it or hold only a fraction of a millisecond of
it, and overlay times to the microsecond. Both sides must give the same
trajectories and skip counts, the same ``trajectories.csv``, clip specs and
report, ``cutlist.json`` and ``cutlist.sh``, and review template.
"""

import io
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import csv_writer, old_emit_cutlist, table_of
from test_trajectory import T0, northbound_intersection, pt

from intxn_pipeline.clips import (
    ClipSpec,
    OverlayParams,
    VideoTable,
    _fromtimestamp_us,
    _written,
    _written_us,
    build_clip_specs,
    emit_cutlist,
)
from intxn_pipeline.errors import DataError
from intxn_pipeline.geo import GeoPoint, haversine_distance_ft
from intxn_pipeline.ingest import EPOCH, SensorTable, format_time_utc, to_us
from intxn_pipeline.review import REVIEW_COLUMNS, build_review_template, write_review_csv
from intxn_pipeline.trajectory import (
    TrajectoryTable,
    WindowParams,
    _leg_hits,
    extract_trajectories,
    load_trajectories_csv,
    write_trajectories_csv,
)


def from_us(us) -> datetime:
    return EPOCH + timedelta(microseconds=int(us))


@dataclass(frozen=True)
class OldTrajectory:
    """One (participant, drive, intersection) entering pass, as the original
    extractor gave it; its window ``points`` starts at row ``first`` of the
    sensor table."""

    traj_id: str
    subj: str
    drive: int
    intxn_id: int
    leg_id: int
    points: SensorTable
    ref_index: int
    ref_time_utc: datetime
    start_time_utc: datetime
    end_time_utc: datetime
    first: int

    @property
    def ref_cum_dist_ft(self) -> float:
        return float(self.points.cum[self.ref_index])


def old_table(trajs, sensor):
    """The ``TrajectoryTable`` of the oracle's trajectories."""
    rows = [
        (t.subj, t.drive, t.intxn_id, t.leg_id, t.first + t.ref_index, t.first,
         t.first + len(t.points))
        for t in trajs
    ]
    return table_of(TrajectoryTable, rows, sensor=sensor)


def old_split_episodes(indices, times, gap_s):
    episodes = [[indices[0]]]
    for prev, cur in zip(indices, indices[1:]):
        if times[cur] - times[prev] > gap_s:
            episodes.append([])
        episodes[-1].append(cur)
    return episodes


def old_extract_for_drive(rows, first, hits, params):
    times = rows.seconds().tolist()
    cums = rows.cum.tolist()
    lats, lons = rows.lat.tolist(), rows.lon.tolist()
    ((subj, drive),) = rows.keys
    picks = []
    for intxn, leg, surviving in hits:
        for episode in old_split_episodes(surviving, times, params.pass_gap_s):
            ref_i = min(
                episode,
                key=lambda i: (
                    haversine_distance_ft(GeoPoint(lats[i], lons[i]), intxn.pos), times[i]
                ),
            )
            picks.append((intxn.intxn_id, times[ref_i], leg.leg_id, ref_i))
    by_intxn = {}
    for pick in picks:
        by_intxn.setdefault(pick[0], []).append(pick)
    out, duplicates, truncated = [], 0, 0
    for intxn_id in sorted(by_intxn):
        visits = sorted(by_intxn[intxn_id], key=lambda p: (p[1], p[2], p[3]))
        duplicates += len(visits) - 1
        _, _, leg_id, ref_i = visits[0]
        lo = cums[ref_i] - params.upstream_ft
        hi = cums[ref_i] + params.downstream_ft
        left = bisect_left(cums, lo)
        right = bisect_right(cums, hi) - 1
        if cums[0] > lo or cums[-1] < hi:
            truncated += 1
        out.append(
            OldTrajectory(
                f"{subj}_{drive}_{intxn_id}", subj, drive, intxn_id, leg_id,
                rows[left : right + 1], ref_i - left, from_us(rows.t_us[ref_i]),
                from_us(rows.t_us[left]), from_us(rows.t_us[right]), first + left,
            )
        )
    return out, duplicates, truncated


def old_extract_trajectories(sensor, reviewed, params):
    # Each leg's study rows, regrouped per drive as drive-local rows.
    hits, starts = {}, sensor.offsets
    for intxn, leg, rows in _leg_hits(sensor, reviewed, params.heading_tol_deg):
        for d, members in groupby(rows.tolist(), key=lambda i: bisect_right(starts, i) - 1):
            hits.setdefault(d, []).append((intxn, leg, [i - starts[d] for i in members]))
    trajs, skips = [], {"duplicate_pass": 0, "truncated": 0}
    for d in sorted(hits):
        first = sensor.offsets[d]
        rows = sensor[first : sensor.offsets[d + 1]]
        drive_trajs, duplicates, truncated = old_extract_for_drive(rows, first, hits[d], params)
        trajs.extend(drive_trajs)
        skips["duplicate_pass"] += duplicates
        skips["truncated"] += truncated
    trajs.sort(key=lambda t: (t.subj, t.drive, t.intxn_id))
    return trajs, skips


def old_write_trajectories_csv(trajs):
    out = io.StringIO(newline="")
    w = csv_writer(out)
    w.writerow(("traj_id", "subj", "drive", "intxn_id", "leg_id", "ref_time_utc",
                "start_time_utc", "end_time_utc", "ref_cum_dist_ft", "n_points"))
    for t in trajs:
        w.writerow([
            t.traj_id, t.subj, t.drive, t.intxn_id, t.leg_id, format_time_utc(t.ref_time_utc),
            format_time_utc(t.start_time_utc), format_time_utc(t.end_time_utc),
            repr(t.ref_cum_dist_ft), len(t.points),
        ])
    return out.getvalue()


def old_distance_crossing_time(points, target):
    cums = points.cum.tolist()
    i = bisect_left(cums, target)
    if cums[i] == target:
        return from_us(points.t_us[i])
    c0, c1 = cums[i - 1], cums[i]
    t0 = int(points.t_us[i - 1]) / 1_000_000
    t1 = int(points.t_us[i]) / 1_000_000
    frac = (target - c0) / (c1 - c0)
    return datetime.fromtimestamp(t0 + frac * (t1 - t0), tz=timezone.utc)


def old_overlay_time(traj, target, clip_start, clip_end):
    cums = traj.points.cum
    if target < cums[0]:
        return clip_start
    if target > cums[-1]:
        return clip_end
    return old_distance_crossing_time(traj.points, target)


@dataclass
class OldVideo:
    """A row of the video table, as the original reader gave it."""

    uri: str
    subj: str
    drive: int
    start_time_utc: datetime
    end_time_utc: datetime
    fps: float


class OldNoCoveringVideo(Exception):
    pass


def video_table(videos):
    """The new side's table of the oracle's videos."""
    return VideoTable.from_columns(
        [v.subj for v in videos], [v.drive for v in videos],
        [to_us(v.start_time_utc) for v in videos], [to_us(v.end_time_utc) for v in videos],
        [v.fps for v in videos], [v.uri for v in videos],
    )


def old_match_video(traj, videos):
    containing = [
        v for v in videos
        if v.start_time_utc <= traj.start_time_utc and traj.end_time_utc <= v.end_time_utc
    ]
    if containing:
        return min(containing, key=lambda v: (v.start_time_utc, v.uri)), None
    at_ref = [v for v in videos if v.start_time_utc <= traj.ref_time_utc <= v.end_time_utc]
    if at_ref:
        return min(at_ref, key=lambda v: (v.start_time_utc, v.uri)), "spans_files"
    raise OldNoCoveringVideo(f"no video covers trajectory {traj.traj_id}")


def old_build_clip_specs(trajs, videos, overlay):
    by_drive = {}
    for v in videos:
        by_drive.setdefault((v.subj, v.drive), []).append(v)
    specs, report = [], {"unclippable": [], "warnings": []}
    for traj in sorted(trajs, key=lambda t: (t.subj, t.drive, t.intxn_id)):
        try:
            video, warning = old_match_video(traj, by_drive.get((traj.subj, traj.drive), []))
        except OldNoCoveringVideo:
            report["unclippable"].append({"traj_id": traj.traj_id, "reason": "no_covering_video"})
            continue
        if warning:
            report["warnings"].append({"traj_id": traj.traj_id, "warning": warning})
        clip_start = max(traj.start_time_utc, video.start_time_utc)
        clip_end = min(traj.end_time_utc, video.end_time_utc)
        duration = (clip_end - clip_start).total_seconds()
        if _written(duration) <= 0:
            report["unclippable"].append({"traj_id": traj.traj_id, "reason": "empty_overlap"})
            continue
        ref_cum = traj.ref_cum_dist_ft
        t_on = old_overlay_time(traj, ref_cum - overlay.on_upstream_ft, clip_start, clip_end)
        t_off = old_overlay_time(traj, ref_cum + overlay.off_downstream_ft, clip_start, clip_end)
        on_s = min(max((t_on - clip_start).total_seconds(), 0.0), duration)
        off_s = min(max((t_off - clip_start).total_seconds(), on_s), duration)
        specs.append(
            ClipSpec(
                traj.traj_id, video.uri,
                _written((clip_start - video.start_time_utc).total_seconds()),
                _written(duration), _written(on_s), _written(off_s), f"{traj.traj_id}.mp4",
            )
        )
    return specs, report


def old_build_review_template(trajs, clips, participants, custom_fields, video_base_url):
    by_traj = {c.traj_id: c for c in clips}
    warnings = {"missing_demographics": 0}
    rows = []
    for traj in sorted(trajs, key=lambda t: (t.subj, t.drive, t.intxn_id)):
        clip = by_traj.get(traj.traj_id)
        if clip is None:
            raise DataError(f"no clip for trajectory {traj.traj_id}")
        demo = participants.get(traj.subj)
        if demo is None:
            warnings["missing_demographics"] += 1
            demo = ("", "")
        row = dict(zip(REVIEW_COLUMNS, (
            traj.traj_id, traj.subj, traj.drive, traj.intxn_id,
            format_time_utc(traj.ref_time_utc), *demo, clip.overlay_on_s,
            video_base_url + clip.output_name,
        )))
        row.update((name, "") for name in custom_fields)
        rows.append(row)
    return rows, warnings


def old_write_review_csv(rows, custom_names):
    """The original writer, with the line ends of ``csv_writer``."""
    header = list(REVIEW_COLUMNS) + list(custom_names)
    out = io.StringIO(newline="")
    w = csv_writer(out)
    w.writerow(header)
    for row in rows:
        cells = [row.get(col, "") for col in header]
        w.writerow(
            [f"{float(v):.3f}" if col == "jump_to_ref" else v for col, v in zip(header, cells)]
        )
    return out.getvalue()


# Junctions on one meridian, by id: a junction's approach reaches 300 ft south.
JUNCTIONS = {2: 500.0, 9: 1500.0, -1: 525.0, 2**40: 1000.0}
SUBJECTS = st.sampled_from(["A", "B", "a,b", 'q"x', "r\rs", "t\nu"])
DRIVES = st.sampled_from([1, 2, 2**70])
# Steps north, in feet: stops, half and whole samples, and a jump back south
# that starts a repeat pass.
STEPS = st.sampled_from([0.0, 0.0, 25.0, 50.0, 50.0, 50.0, 12.5, -600.0])
# Time steps, in microseconds: one second, half a second, one millisecond,
# and gaps at and just over pass_gap_s. The clean sensor table holds whole
# milliseconds, so the trajectory file reads back to the same windows.
GAPS = st.sampled_from([1_000_000, 1_000_000, 500_000, 1_000, 30_000_000, 30_001_000])
EAST = st.sampled_from([0.0, 0.0, 10.0, -10.0])
HEADINGS = st.sampled_from([0.0, 0.0, 0.0, 30.0, 180.0])


@st.composite
def drive_records(draw, subj, drive):
    """Sensor rows of one drive, as ``oracles.row_tuples`` gives them."""
    north, t, cum, records = draw(st.sampled_from([0.0, 100.0, 350.0])), to_us(T0), 0.0, []
    for _ in range(draw(st.integers(1, 40))):
        pos = pt(north, draw(EAST))
        records.append((subj, drive, t, pos.lat_deg, pos.lon_deg, draw(HEADINGS), 50.0, cum))
        step = draw(STEPS)
        north += step
        cum += abs(step) if step > 0 else 0.0  # a jump south moves no odometer
        t += draw(GAPS)
    return records


@st.composite
def videos_for(draw, records):
    """Videos of one drive: spans between sample times and a little
    around them, so some cover a window, some split it, some miss it, and
    some hold a fraction of a millisecond."""
    times = sorted({from_us(r[2]) for r in records})
    ends = [times[0] - timedelta(seconds=10), times[-1] + timedelta(seconds=10)]

    def edge():
        shift = draw(st.sampled_from([0, 0, -10**7, -300, 200, 10**7]))
        return draw(st.sampled_from(ends) | st.sampled_from(times)) + timedelta(microseconds=shift)

    out = []
    for _ in range(draw(st.integers(0, 3))):
        a, b = sorted((edge(), edge()))
        if a < b:
            uri = draw(st.sampled_from(["v1.mp4", "v2.mp4", "dir/v 3.mp4"]))
            out.append(OldVideo(uri, *records[0][:2], a, b, 30.0))
    return out


@st.composite
def studies(draw):
    ids = draw(st.lists(st.sampled_from(sorted(JUNCTIONS)), min_size=1, max_size=3, unique=True))
    reviewed = [northbound_intersection(i, JUNCTIONS[i]) for i in ids]
    if draw(st.booleans()):  # a second approach leg over the first
        second = northbound_intersection(ids[0], JUNCTIONS[ids[0]]).approaches[0]
        second.leg_id = 2
        reviewed[0].approaches.append(second)
    records, videos = [], []
    keys = st.lists(st.tuples(SUBJECTS, DRIVES), min_size=1, max_size=3, unique=True)
    for subj, drive in draw(keys):
        drive_rows = draw(drive_records(subj, drive))
        records += drive_rows
        videos += draw(videos_for(drive_rows))
    params = WindowParams(upstream_ft=draw(st.sampled_from([300.0, 100.0])))
    overlay = OverlayParams(
        on_upstream_ft=draw(st.sampled_from([150.0, 0.0, 400.0])),
        off_downstream_ft=draw(st.sampled_from([50.0, 0.0])),
    )
    return table_of(SensorTable, records), reviewed, videos, params, overlay


@settings(max_examples=300, deadline=None)
@given(studies())
def test_columnar_trajectories_match_the_original(study):
    sensor, reviewed, videos, params, overlay = study
    trajs, skips = extract_trajectories(sensor, reviewed, params)
    old_trajs, old_skips = old_extract_trajectories(sensor, reviewed, params)
    assert trajs == old_table(old_trajs, sensor)
    assert skips == old_skips

    text = io.StringIO(newline="")
    write_trajectories_csv(trajs, text)
    assert text.getvalue() == old_write_trajectories_csv(old_trajs)
    assert load_trajectories_csv(io.StringIO(text.getvalue(), newline=""), sensor) == trajs

    specs, report = build_clip_specs(trajs, video_table(videos), overlay)
    assert (specs, report) == old_build_clip_specs(old_trajs, videos, overlay)
    new = [io.StringIO(newline=""), io.StringIO(newline="")]
    emit_cutlist(specs, *new)
    old = old_emit_cutlist(old_build_clip_specs(old_trajs, videos, overlay)[0])
    assert tuple(f.getvalue() for f in new) == old

    participants = {"A": ("52", "F"), "a,b": ("47", "M")}
    custom = {"stop_type": ["full", "rolling"], "subj": []}
    if report["unclippable"]:
        with pytest.raises(DataError, match="no clip for trajectory"):
            build_review_template(trajs, specs, participants, custom)
        with pytest.raises(DataError, match="no clip for trajectory"):
            old_build_review_template(old_trajs, specs, participants, custom, "")
        return
    url = "https://x/"
    columns, _, warnings = build_review_template(trajs, specs, participants, custom, url)
    rows, old_warnings = old_build_review_template(old_trajs, specs, participants, custom, url)
    assert warnings == old_warnings
    out = io.StringIO(newline="")
    write_review_csv(columns, list(custom), out)
    assert out.getvalue() == old_write_review_csv(rows, list(custom))


@settings(max_examples=300, deadline=None)
@given(st.lists(
    st.integers(0, 10**7) | st.integers(0, 10**6).map(lambda ms: ms * 1000 + 500)
    | st.integers(0, 2**62), min_size=1, max_size=20,
))
def test_written_spans_match_written_seconds(spans):
    # A span a half millisecond from a whole one rounds as its float does.
    seconds = [timedelta(microseconds=us).total_seconds() for us in spans]
    assert _written_us(np.array(spans, dtype=np.int64)).tolist() == list(map(_written, seconds))


@settings(max_examples=300, deadline=None)
@given(st.lists(
    st.floats(-6.2e10, 2.5e11) | st.integers(-(10**15), 10**15).map(lambda us: us / 1e6 + 5e-7),
    min_size=1, max_size=20,
))
def test_timestamps_round_as_fromtimestamp(seconds):
    expected = [to_us(datetime.fromtimestamp(s, tz=timezone.utc)) for s in seconds]
    assert _fromtimestamp_us(np.array(seconds)).tolist() == expected
