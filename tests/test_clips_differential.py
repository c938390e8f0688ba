"""The columnar cut-list against the one-clip-at-a-time original.

``clips.build_clip_specs`` builds one ``CutList`` with array passes;
``oracles.old_build_clip_specs`` matches videos and interpolates overlay
times one trajectory at a time with ``datetime`` arithmetic and gives a
``ClipSpec`` per clip. On ``test_clips``' fixtures and on a synthetic study
whose videos are dropped, split inside trajectories or cut to a fraction
of a millisecond, both must give the same clips, in traj_id order, the
same report (``no_covering_video``, ``empty_overlap`` and ``spans_files``
rows included), and the same ``cutlist.json`` and ``cutlist.sh``, which
read back to the same cut-list.
"""

import io
from datetime import timedelta

import pytest
from oracles import (
    clip_specs,
    cutlist_of,
    old_build_clip_specs,
    old_emit_cutlist,
    row_tuples,
    table_of,
    trajectories_of,
    trajectory_rows,
    video_rows,
)
from test_clips import A_MP4, _trajs, videos
from test_trajectory import T0, northbound_drive, northbound_intersection, pt

from intxn_pipeline.clips import (
    OverlayParams,
    VideoTable,
    build_clip_specs,
    emit_cutlist,
    parse_cutlist,
    read_videos_csv,
)
from intxn_pipeline.ingest import SensorTable, clean_sensor, to_us
from intxn_pipeline.review import import_reviewed_kml
from intxn_pipeline.synth import ScenarioSpec, generate
from intxn_pipeline.trajectory import extract_trajectories


def assert_clips_are_the_oracles(cut_from, vids, overlay=None) -> dict:
    """Check the cut-list, report and files of the trajectories of
    ``cut_from``, with the sensor table they are cut from, against the
    oracle's; returns the report."""
    overlay = overlay or OverlayParams()
    cut, report = build_clip_specs(*cut_from, vids, overlay)
    specs, old_report = old_build_clip_specs(trajectory_rows(*cut_from), video_rows(vids), overlay)
    assert report == old_report
    assert clip_specs(cut) == sorted(specs, key=lambda spec: spec.traj_id)
    assert cut == cutlist_of(specs)
    out = [io.StringIO(newline=""), io.StringIO(newline="")]
    emit_cutlist(cut, *out)
    assert tuple(f.getvalue() for f in out) == old_emit_cutlist(specs)
    assert parse_cutlist(io.StringIO(out[0].getvalue(), newline="")) == cut
    return report


def _flat_segment_trajs():
    base = pt()
    points = [
        ("A", 1, to_us(T0 + timedelta(seconds=s)), base.lat_deg, base.lon_deg, 0.0, 0.0, cum)
        for s, cum in ((0, 0.0), (1, 100.0), (2, 100.0), (3, 100.0), (4, 200.0))
    ]
    sensor = table_of(SensorTable, points)
    return trajectories_of(sensor, [("A", 1, 4, 1, 2, 0, 5)]), sensor


def _other_drive_videos():
    window = [to_us(T0 + timedelta(seconds=s)) for s in (0.0, 9.0, 0.0, 600.0)]
    return VideoTable.from_columns(
        ["A", "A"], [1, 2], window[0::2], window[1::2], [30.0, 30.0], [A_MP4, "file:///b.mp4"]
    )


FIXTURES = {
    "whole-video": lambda: (_trajs(), videos()),
    "spans-files": lambda: (
        _trajs(), videos((0.0, 8.0, "file:///part1.mp4"), (8.0, 600.0, "file:///part2.mp4"))
    ),
    "other-drive-only": lambda: (_trajs(), _other_drive_videos()),
    "no-covering-video": lambda: (_trajs(), videos((100.0, 200.0, A_MP4))),
    "empty-overlap": lambda: (_trajs(), videos((9.9997, 10.0, A_MP4))),
    "flat-segment": lambda: (_flat_segment_trajs(), videos(), OverlayParams(0.0, 0.0)),
    "off-knot-targets": lambda: (_trajs(), videos(), OverlayParams(125.0, 75.0)),
    "truncated-window": lambda: (
        _trajs(intxns=[northbound_intersection(junction_north_ft=100.0, length_ft=100.0)]),
        videos(),
    ),
    "two-junctions": lambda: (
        _trajs(northbound_drive(n=41), [
            northbound_intersection(intxn_id=9, junction_north_ft=500.0),
            northbound_intersection(intxn_id=10, junction_north_ft=1500.0),
        ]),
        videos((0.0, 30.0, A_MP4), (25.0, 600.0, "file:///late.mp4")),
    ),
}


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_clip_fixtures_are_the_oracles(name):
    assert_clips_are_the_oracles(*FIXTURES[name]())


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    scenario = generate(ScenarioSpec(), tmp_path_factory.mktemp("synth"))
    sensor = clean_sensor([str(p) for p in scenario.paths["sensor_files"]])[0]
    reviewed = import_reviewed_kml(scenario.paths["reviewed_kml"])[0]
    trajs = extract_trajectories(sensor, reviewed)[0]
    return (trajs, sensor), read_videos_csv(scenario.paths["videos"])


def _whole(k, row, ref):
    return [row]


def _dropped(k, row, ref):
    return [] if k % 3 == 0 else [row]


def _split(k, row, ref):
    # Cut 1.5 ms after or before the reference of the drive's first
    # trajectory, which then spans both files.
    subj, drive, start, end, fps, uri = row
    at = ref + (1500 if k % 2 else -1500)
    return [(subj, drive, start, at, fps, uri), (subj, drive, at, end, fps, uri + ".2")]


def _sliver(k, row, ref):
    # 0.3 ms of video up to the first trajectory's reference: its clip
    # would be 0.000 s long, and the drive's other trajectories miss it.
    subj, drive, _, _, fps, uri = row
    return [(subj, drive, ref - 300, ref, fps, uri)] if k % 2 else [row]


EDITS = {
    "whole": (_whole, set()),
    "dropped": (_dropped, {"no_covering_video"}),
    "split": (_split, {"spans_files"}),
    "sliver": (_sliver, {"empty_overlap", "no_covering_video", "spans_files"}),
}


@pytest.mark.parametrize("edit", sorted(EDITS))
def test_synth_clips_are_the_oracles(study, edit):
    (trajs, sensor), vids = study
    change, expected = EDITS[edit]
    first_ref = {key: int(trajs.ref_us[at]) for key, at in zip(trajs.keys, trajs.offsets)}
    rows = []
    for k, row in enumerate(row_tuples(vids)):
        ref = first_ref.get(row[:2])  # None for a drive without trajectories
        rows += [row] if ref is None else change(k, row, ref)
    report = assert_clips_are_the_oracles((trajs, sensor), table_of(VideoTable, rows))
    found = {r["reason"] for r in report["unclippable"]} | {w["warning"] for w in report["warnings"]}
    assert found == expected
