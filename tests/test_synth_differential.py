"""``synth.generate`` sampled as arrays against the per-sample original.

``old_generate`` below is the implementation that array sampling replaced
(a Python loop over every sample of every drive, a ``datetime`` per sensor,
detection, video and ground-truth time, ``format_time_utc`` per rendered
time, ``json.dump`` token by token, and the reviewed KML built as an
ElementTree by ``oracles.et_write_reviewed_kml``), kept here as the oracle.
Both sides must write the same files byte for byte and return the same
ground truth, on the benchmark's workload shapes, at several sample rates,
with GPS jitter, away from the default origin and with over 99 subjects.
"""

import csv
import json
import math
import random
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    IntersectionCandidate,
    candidate_rows,
    candidates_of,
    csv_writer,
    et_write_reviewed_kml,
    format_time_utc,
    network_of,
)

from intxn_pipeline.clips import VIDEO_COLUMNS
from intxn_pipeline.geo import FT_PER_DEG, GeoPoint
from intxn_pipeline.ingest import SensorTable, to_us, write_sensor_csv
from intxn_pipeline.storage import resolve_uri
from intxn_pipeline.synth import (
    APPROACH_HALF_WIDTH_FT,
    APPROACH_LENGTH_FT,
    DETECT_FT,
    ExpectedTrajectory,
    GroundTruth,
    ScenarioSpec,
    SynthScenario,
    _controlled_cols,
    _drive_start,
    _driven_row,
    _Grid,
    _sample_offsets_us,
    _subj_name,
    generate,
)


def old_write_json(doc, dest):
    with resolve_uri(dest, "w") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")


def old_build_network(grid):
    """The grid's polylines, as (line_id, vertex list) pairs."""
    spec = grid.spec
    polylines = []
    for i in range(spec.grid_rows):
        for j in range(spec.grid_cols - 1):
            polylines.append((f"h{i}-{j}", [grid.junction(i, j), grid.junction(i, j + 1)]))
    for i in range(spec.grid_rows - 1):
        for j in range(spec.grid_cols):
            polylines.append((f"v{i}-{j}", [grid.junction(i, j), grid.junction(i + 1, j)]))
    return polylines


def old_network_geojson(polylines):
    return {
        "type": "FeatureCollection",
        "features": [
            {
                "type": "Feature",
                "id": line_id,
                "geometry": {
                    "type": "LineString",
                    "coordinates": [[p.lon_deg, p.lat_deg] for p in points],
                },
                "properties": {},
            }
            for line_id, points in polylines
        ],
    }


def old_ground_truth_json(gt):
    return {
        "junctions": [
            {"lat": p.lat_deg, "lon": p.lon_deg, "degree": d} for p, d in gt.junctions
        ],
        "candidates": [
            {"intxn_id": c.intxn_id, "lat": c.pos.lat_deg, "lon": c.pos.lon_deg, "degree": c.degree}
            for c in candidate_rows(gt.candidates)
        ],
        "visited_ids": gt.visited_ids,
        "traj_counts": [
            {"subj": subj, "drive": drive, "count": count}
            for (subj, drive), count in sorted(gt.traj_counts.items())
        ],
        "trajectories": {
            traj_id: {
                "subj": t.subj,
                "drive": t.drive,
                "intxn_id": t.intxn_id,
                "ref_time_utc": format_time_utc(t.ref_time_utc),
                "start_time_utc": format_time_utc(t.start_time_utc),
                "end_time_utc": format_time_utc(t.end_time_utc),
                "n_points": t.n_points,
                "duration_s": t.duration_s,
                "overlay_on_s": t.overlay_on_s,
                "overlay_off_s": t.overlay_off_s,
            }
            for traj_id, t in sorted(gt.trajectories.items())
        },
    }


def old_generate(spec, out):
    grid = _Grid(spec)
    spacing = spec.sample_spacing_ft
    rng = random.Random(spec.seed)
    polylines = old_build_network(grid)

    junctions = []
    for i in range(spec.grid_rows):
        for j in range(spec.grid_cols):
            junctions.append((grid.junction(i, j), grid.degree(i, j)))
    eligible = sorted(
        ((pos, deg) for pos, deg in junctions if deg >= 3),
        key=lambda t: (t[0].lat_deg, t[0].lon_deg),
    )
    candidates = [
        IntersectionCandidate(k + 1, pos, deg) for k, (pos, deg) in enumerate(eligible)
    ]
    id_by_pos = {(c.pos.lat_deg, c.pos.lon_deg): c.intxn_id for c in candidates}

    def junction_id(row, col):
        pos = grid.junction(row, col)
        return id_by_pos[(pos.lat_deg, pos.lon_deg)]

    driven_rows = sorted({_driven_row(spec, d) for d in range(1, spec.drives_per_subject + 1)})
    controlled = sorted(
        (junction_id(row, col), row, col)
        for row in driven_rows
        for col in _controlled_cols(spec)
    )

    total_ft = 2 * spec.lead_ft + (spec.grid_cols - 1) * spec.block_ft
    n_samples = round(total_ft / spacing) + 1

    sensor_by_subj, detection_rows, video_rows = {}, {}, []
    traj_counts, trajectories = {}, {}
    for subj_idx in range(spec.n_subjects):
        subj = _subj_name(subj_idx)
        sensor_by_subj[subj] = []
        detection_rows[subj] = []
        for drive in range(1, spec.drives_per_subject + 1):
            row = _driven_row(spec, drive)
            t0 = _drive_start(spec, subj_idx, drive)
            lat = grid.lat_at(row * spec.block_ft)
            for k in range(n_samples):
                cum = k * spacing
                pos_lat, pos_lon = lat, grid.lon_at(cum - spec.lead_ft)
                if spec.jitter_ft > 0:
                    pos_lat += rng.gauss(0.0, spec.jitter_ft) / FT_PER_DEG
                    pos_lon += rng.gauss(0.0, spec.jitter_ft) / (FT_PER_DEG * grid.cos0)
                t_us = to_us(t0 + timedelta(seconds=k / spec.sample_hz))
                sensor_by_subj[subj].append(
                    (subj, drive, t_us, pos_lat, pos_lon, 90.0, spec.speed_fps, cum)
                )
            video_rows.append((
                f"file:///videos/{subj}_drive{drive}.mp4", subj, drive, t0,
                t0 + timedelta(seconds=(n_samples - 1) / spec.sample_hz), 30.0,
            ))

            count = 0
            for intxn_id, c_row, col in controlled:
                if c_row != row:
                    continue
                count += 1
                j_cum = spec.lead_ft + col * spec.block_ft
                k_lo = math.ceil((j_cum - DETECT_FT) / spacing - 1e-9)
                k_hi = math.floor(j_cum / spacing + 1e-9)
                for k in range(max(0, k_lo), min(n_samples - 1, k_hi) + 1):
                    detection_rows[subj].append((
                        subj, drive, t0 + timedelta(seconds=k / spec.sample_hz), "stop_sign", 0.9,
                    ))
                ref_time = t0 + timedelta(seconds=j_cum / spec.speed_fps)
                start_cum = j_cum - 300.0
                end_cum = j_cum + 200.0
                n_points = (
                    math.floor(end_cum / spacing + 1e-9)
                    - math.ceil(start_cum / spacing - 1e-9)
                    + 1
                )
                traj_id = f"{subj}_{drive}_{intxn_id}"
                trajectories[traj_id] = ExpectedTrajectory(
                    traj_id=traj_id,
                    subj=subj,
                    drive=drive,
                    intxn_id=intxn_id,
                    ref_time_utc=ref_time,
                    start_time_utc=t0 + timedelta(seconds=start_cum / spec.speed_fps),
                    end_time_utc=t0 + timedelta(seconds=end_cum / spec.speed_fps),
                    n_points=n_points,
                    duration_s=500.0 / spec.speed_fps,
                    overlay_on_s=150.0 / spec.speed_fps,
                    overlay_off_s=350.0 / spec.speed_fps,
                )
            traj_counts[(subj, drive)] = count

    ground_truth = GroundTruth(
        junctions=junctions,
        candidates=candidates_of(candidates),
        visited_ids=[intxn_id for intxn_id, _, _ in controlled],
        traj_counts=traj_counts,
        trajectories=trajectories,
    )
    paths = {
        "network": out / "network.geojson",
        "videos": out / "videos.csv",
        "demographics": out / "demographics.csv",
        "reviewed_kml": out / "reviewed.kml",
        "ground_truth": out / "ground_truth.json",
    }
    out.mkdir(parents=True, exist_ok=True)
    old_write_json(old_network_geojson(polylines), paths["network"])

    paths["sensor_files"] = []
    for subj in sorted(sensor_by_subj):
        path = out / "sensor" / f"{subj}.csv"
        paths["sensor_files"].append(path)
        write_sensor_csv(SensorTable.from_columns(*zip(*sensor_by_subj[subj])), path)

    paths["cv_files"] = []
    for subj in sorted(detection_rows):
        path = out / "cv" / f"{subj}.csv"
        paths["cv_files"].append(path)
        with resolve_uri(path, "w") as handle:
            w = csv.writer(handle, lineterminator="\n")
            w.writerow(("subj", "drive", "time_utc", "object_class", "confidence"))
            for subj_v, drive, t, object_class, confidence in detection_rows[subj]:
                w.writerow([subj_v, drive, format_time_utc(t), object_class, repr(confidence)])

    with resolve_uri(paths["videos"], "w") as handle:
        w = csv_writer(handle)
        w.writerow(VIDEO_COLUMNS)
        for uri, subj, drive, start, end, fps in video_rows:
            w.writerow([uri, subj, drive, format_time_utc(start), format_time_utc(end), repr(fps)])

    with resolve_uri(paths["demographics"], "w") as handle:
        w = csv_writer(handle)
        w.writerow(("subj", "age", "gender"))
        for subj_idx in range(spec.n_subjects):
            w.writerow([_subj_name(subj_idx), 30 + 2 * subj_idx, ("F", "M")[subj_idx % 2]])

    et_write_reviewed_kml(
        paths["reviewed_kml"], grid, controlled, APPROACH_LENGTH_FT, APPROACH_HALF_WIDTH_FT
    )
    old_write_json(old_ground_truth_json(ground_truth), paths["ground_truth"])
    return SynthScenario(spec, network_of(polylines), ground_truth, paths)


# The benchmark's three workload shapes, as perfbench/run.py declares them.
BENCH_SPECS = {
    "dense-drives": dict(grid_rows=3, grid_cols=6, n_subjects=6, drives_per_subject=8, sample_hz=10.0),
    "wide-grid": dict(grid_rows=12, grid_cols=40, n_subjects=4, drives_per_subject=10, sample_hz=1.0),
    "crowded-junctions": dict(
        grid_rows=3, grid_cols=4, n_subjects=50, drives_per_subject=25, sample_hz=0.5
    ),
}

CASES = {
    **BENCH_SPECS,
    **{f"hz-{hz}": dict(sample_hz=hz) for hz in (0.5, 1.0, 3.0, 10.0)},
    "jitter": dict(jitter_ft=4.0, seed=11, sample_hz=3.0, drives_per_subject=3),
    "jitter-int-fields": dict(jitter_ft=1, speed_fps=40, sample_hz=2, block_ft=800, lead_ft=400),
    "origin": dict(origin=GeoPoint(32.772, -115.4016), grid_rows=5, n_subjects=3),
    # From S100 on, name order is not subject order.
    "subjects-beyond-99": dict(n_subjects=101, drives_per_subject=1, sample_hz=0.5),
}


def _relative(paths, root):
    return [
        (key, [p.relative_to(root) for p in v] if isinstance(v, list) else v.relative_to(root))
        for key, v in paths.items()
    ]


def _files(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("case", sorted(CASES))
def test_generate_matches_per_sample_original(tmp_path, case):
    spec = ScenarioSpec(**CASES[case])
    new = generate(spec, tmp_path / "new")
    old = old_generate(spec, tmp_path / "old")
    new_files, old_files = _files(tmp_path / "new"), _files(tmp_path / "old")
    assert sorted(new_files) == sorted(old_files)
    for name, data in old_files.items():
        assert new_files[name] == data, name
    assert new.ground_truth == old.ground_truth
    for column in ("line_id", "lat", "lon", "first"):
        assert list(getattr(new.network, column)) == list(getattr(old.network, column))
    assert _relative(new.paths, tmp_path / "new") == _relative(old.paths, tmp_path / "old")


@settings(max_examples=200, deadline=None)
@given(
    speed_fps=st.floats(1.0, 200.0),
    sample_hz=st.floats(0.01, 100.0),
    block_steps=st.integers(1, 40),
    lead_steps=st.integers(1, 40),
    grid_cols=st.integers(2, 6),
    t0=st.datetimes(
        datetime(1970, 1, 1), datetime(2200, 1, 1), timezones=st.just(timezone.utc)
    ),
)
def test_sample_offsets_are_the_datetime_rule(
    speed_fps, sample_hz, block_steps, lead_steps, grid_cols, t0
):
    spacing = speed_fps / sample_hz
    try:
        spec = ScenarioSpec(
            grid_cols=grid_cols, speed_fps=speed_fps, sample_hz=sample_hz,
            block_ft=block_steps * spacing, lead_ft=lead_steps * spacing,
        )
    except ValueError:
        assume(False)
    off_us = _sample_offsets_us(spec)
    n_samples = round((2 * spec.lead_ft + (grid_cols - 1) * spec.block_ft) / spacing) + 1
    assert len(off_us) == n_samples
    assert off_us.tolist() == [
        to_us(t0 + timedelta(seconds=k / sample_hz)) - to_us(t0) for k in range(n_samples)
    ]

