"""Deterministic synthetic scenarios with closed-form ground truth.

Builds a rectangular street grid (lines split at every junction), constant
speed eastbound drives along interior rows, detection streams that fire for
the 150 ft preceding each controlled junction, video/demographics sidecars,
and a pre-reviewed KML standing in for the human review step. Because the
drives are straight and constant-speed, every expected candidate, visit,
window, and overlay timing has a closed form, which generate() returns as
ground truth alongside the written files. For the same reason all drives
share one set of sample offsets in time, distance and longitude, so each
drive is sampled as arrays and each time column is rendered in one call.

Ground-truth windows and timings assume the pipeline's default parameters
(300 ft upstream, 200 ft downstream, overlay on/off at 150/50 ft).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from .clips import VIDEO_COLUMNS
from .discovery import Candidates, RoadNetwork, network_to_geojson
from .geo import FT_PER_DEG, GeoPoint
from .ingest import _US, DETECTION_COLUMNS, EPOCH, SensorTable, _time_texts, to_us, write_sensor_csv
from .review import DEMOGRAPHICS_COLUMNS, TRUE_FOLDER, write_kml
from .storage import write_csv, write_json

BASE_TIME = datetime(2019, 5, 1, 12, 0, 0, tzinfo=timezone.utc)

# Detections fire while the vehicle is within this many feet before a
# controlled junction; matches the default overlay-on distance.
DETECT_FT = 150.0

APPROACH_LENGTH_FT = 300.0
APPROACH_HALF_WIDTH_FT = 20.0



@dataclass(frozen=True)
class ScenarioSpec:
    """Parameters of one synthetic scenario; output is a pure function of these."""

    grid_rows: int = 4
    grid_cols: int = 4
    block_ft: float = 1000.0
    n_subjects: int = 2
    drives_per_subject: int = 2
    speed_fps: float = 50.0
    sample_hz: float = 1.0
    seed: int = 0
    jitter_ft: float = 0.0  # optional Gaussian GPS noise; breaks exact ground truth
    lead_ft: float = 500.0  # straight run-in/run-out beyond the first/last junction
    origin: GeoPoint = GeoPoint(41.25, -96.0)

    def __post_init__(self) -> None:
        for name in ("block_ft", "speed_fps", "sample_hz", "jitter_ft", "lead_ft"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if min(self.grid_rows, self.grid_cols, self.n_subjects, self.drives_per_subject) < 1:
            raise ValueError("scenario counts must be positive")
        if min(self.block_ft, self.speed_fps, self.sample_hz, self.lead_ft) <= 0:
            raise ValueError("scenario dimensions must be positive")
        if self.grid_rows < 3:
            raise ValueError("need grid_rows >= 3 so routes follow rows with 3+ way junctions")
        if self.grid_cols < 2:
            raise ValueError("need grid_cols >= 2 for at least one controlled junction")
        if self.jitter_ft < 0:
            raise ValueError("jitter_ft must be nonnegative")
        spacing = self.sample_spacing_ft
        for name, value in (("block_ft", self.block_ft), ("lead_ft", self.lead_ft)):
            ratio = value / spacing
            if abs(ratio - round(ratio)) > 1e-9:
                raise ValueError(f"{name} must be a multiple of the sample spacing {spacing}")

    @property
    def sample_spacing_ft(self) -> float:
        return self.speed_fps / self.sample_hz


@dataclass
class ExpectedTrajectory:
    traj_id: str
    subj: str
    drive: int
    intxn_id: int
    ref_time_utc: datetime
    start_time_utc: datetime
    end_time_utc: datetime
    n_points: int
    duration_s: float
    overlay_on_s: float
    overlay_off_s: float


@dataclass
class GroundTruth:
    """Closed-form expected answers for every pipeline stage."""

    junctions: list[tuple[GeoPoint, int]]
    candidates: Candidates
    visited_ids: list[int]
    traj_counts: dict[tuple[str, int], int]
    trajectories: dict[str, ExpectedTrajectory]


@dataclass
class SynthScenario:
    spec: ScenarioSpec
    network: RoadNetwork
    ground_truth: GroundTruth
    paths: dict[str, Path] = field(default_factory=dict)


class _Grid:
    """Junction lattice; lat/lon are derived identically for grid and drives."""

    def __init__(self, spec: ScenarioSpec):
        self.spec = spec
        self.cos0 = math.cos(math.radians(spec.origin.lat_deg))

    def lat_at(self, north_ft: float) -> float:
        return self.spec.origin.lat_deg + north_ft / FT_PER_DEG

    def lon_at(self, east_ft: float) -> float:
        return self.spec.origin.lon_deg + east_ft / (FT_PER_DEG * self.cos0)

    def junction(self, row: int, col: int) -> GeoPoint:
        return GeoPoint(
            self.lat_at(row * self.spec.block_ft), self.lon_at(col * self.spec.block_ft)
        )

    def degree(self, row: int, col: int) -> int:
        return (
            (row > 0)
            + (row < self.spec.grid_rows - 1)
            + (col > 0)
            + (col < self.spec.grid_cols - 1)
        )


def _build_network(grid: _Grid) -> RoadNetwork:
    """Every block of every row (h<row>-<col>), then of every column
    (v<row>-<col>), as a line from junction to junction."""
    rows, cols = range(grid.spec.grid_rows), range(grid.spec.grid_cols)
    lines = [(f"h{i}-{j}", (i, j), (i, j + 1)) for i in rows for j in cols[:-1]]
    lines += [(f"v{i}-{j}", (i, j), (i + 1, j)) for i in rows[:-1] for j in cols]
    ends = [end for _, a, b in lines for end in (a, b)]
    north, east = np.array(ends, dtype=float).T * grid.spec.block_ft
    first = np.arange(0, len(ends) + 1, 2)
    return RoadNetwork([name for name, _, _ in lines], grid.lat_at(north), grid.lon_at(east), first)


def _driven_row(spec: ScenarioSpec, drive: int) -> int:
    drivable = spec.grid_rows - 2  # rows 1..grid_rows-2 have degree >= 3 junctions
    return 1 + ((drive - 1) % drivable)


def _drive_start(spec: ScenarioSpec, subj_idx: int, drive: int) -> datetime:
    return BASE_TIME + timedelta(hours=subj_idx * spec.drives_per_subject + (drive - 1))


def _subj_name(subj_idx: int) -> str:
    return f"S{subj_idx + 1:02d}"


def _controlled_cols(spec: ScenarioSpec) -> list[int]:
    # Every junction on the route except the first column, which keeps the
    # run-in free of detections.
    return list(range(1, spec.grid_cols))


def _sample_offsets_us(spec: ScenarioSpec) -> np.ndarray:
    """Microseconds from the start of a drive to each of its samples: sample
    k is ``timedelta(seconds=k / sample_hz)`` in, to the microsecond."""
    total_ft = 2 * spec.lead_ft + (spec.grid_cols - 1) * spec.block_ft
    n_samples = round(total_ft / spec.sample_spacing_ft) + 1
    return np.array([timedelta(seconds=k / spec.sample_hz) // _US for k in range(n_samples)])


def _kml_coords(*points: tuple[float, float]) -> str:
    # Full float precision so reimported geometry matches the grid exactly.
    return " ".join(f"{lon!r},{lat!r},0" for lat, lon in points)


def _write_reviewed_kml(path: Path, grid: _Grid, controlled: list[tuple[int, int, int]]) -> None:
    """controlled: (intxn_id, row, col) of every controlled junction."""
    dlat = APPROACH_HALF_WIDTH_FT / FT_PER_DEG
    dlon = APPROACH_LENGTH_FT / (FT_PER_DEG * grid.cos0)
    points, approaches = [], []
    for intxn_id, row, col in sorted(controlled):
        pos = grid.junction(row, col)
        lat, lon = pos.lat_deg, pos.lon_deg
        south, north, west = lat - dlat, lat + dlat, lon - dlon
        points.append((str(intxn_id), "Point", _kml_coords((lat, lon)), "stop"))
        # Eastbound approach: a rectangle reaching 300 ft west of the
        # junction, with the junction itself on its east edge, and the
        # entering line along its middle.
        ring = _kml_coords((south, west), (south, lon), (north, lon), (north, west), (south, west))
        approaches += [
            (f"approach-{intxn_id}", "Polygon", ring, None),
            (f"enter-{intxn_id}", "LineString", _kml_coords((lat, west), (lat, lon)), None),
        ]
    write_kml([(TRUE_FOLDER, points), ("approaches", approaches)], path)


def _time_column(times: list[datetime]) -> list[str]:
    """Each aware time as ``ingest._time_texts`` renders it, in UTC to the
    millisecond, e.g. 2019-05-01T14:03:22.500Z; all rendered as one array."""
    us = (np.array(times, dtype=object) - EPOCH).astype("timedelta64[us]")
    return _time_texts(us.view(np.int64))


def _ground_truth_json(gt: GroundTruth) -> dict:
    trajs = [t for _, t in sorted(gt.trajectories.items())]
    c = gt.candidates
    times = zip(*(
        _time_column([getattr(t, name) for t in trajs])
        for name in ("ref_time_utc", "start_time_utc", "end_time_utc")
    ))
    return {
        "junctions": [
            {"lat": p.lat_deg, "lon": p.lon_deg, "degree": d} for p, d in gt.junctions
        ],
        "candidates": [
            {"intxn_id": i, "lat": lat, "lon": lon, "degree": d}
            for i, lat, lon, d in zip(
                c.intxn_id, c.lat.tolist(), c.lon.tolist(), c.props["degree"]
            )
        ],
        "visited_ids": gt.visited_ids,
        "traj_counts": [
            {"subj": subj, "drive": drive, "count": count}
            for (subj, drive), count in sorted(gt.traj_counts.items())
        ],
        "trajectories": {
            t.traj_id: {
                "subj": t.subj,
                "drive": t.drive,
                "intxn_id": t.intxn_id,
                "ref_time_utc": ref,
                "start_time_utc": start,
                "end_time_utc": end,
                "n_points": t.n_points,
                "duration_s": t.duration_s,
                "overlay_on_s": t.overlay_on_s,
                "overlay_off_s": t.overlay_off_s,
            }
            for t, (ref, start, end) in zip(trajs, times)
        },
    }


def generate(spec: ScenarioSpec, out_dir: str | Path) -> SynthScenario:
    """Write all pipeline inputs for a scenario and return its ground truth.

    Files: network.geojson, sensor/<subj>.csv, cv/<subj>.csv, videos.csv,
    demographics.csv, reviewed.kml (the stand-in for human review), and
    ground_truth.json. Output is byte-identical for identical specs.
    """
    out = Path(out_dir)
    grid = _Grid(spec)
    spacing = spec.sample_spacing_ft
    rng = random.Random(spec.seed)

    network = _build_network(grid)

    junctions: list[tuple[GeoPoint, int]] = []
    for i in range(spec.grid_rows):
        for j in range(spec.grid_cols):
            junctions.append((grid.junction(i, j), grid.degree(i, j)))

    eligible = sorted((p.lat_deg, p.lon_deg, deg) for p, deg in junctions if deg >= 3)
    lats, lons, degrees = (list(c) for c in zip(*eligible))
    ids = list(range(1, len(eligible) + 1))
    candidates = Candidates(ids, np.array(lats), np.array(lons), {"degree": degrees})
    id_by_pos = dict(zip(zip(lats, lons), ids))

    def junction_id(row: int, col: int) -> int:
        pos = grid.junction(row, col)
        return id_by_pos[(pos.lat_deg, pos.lon_deg)]

    drives = range(1, spec.drives_per_subject + 1)
    driven_rows = sorted({_driven_row(spec, d) for d in drives})
    controlled = sorted(
        (junction_id(row, col), row, col)
        for row in driven_rows
        for col in _controlled_cols(spec)
    )

    # Every drive is straight, eastbound and constant-speed, so sample k of
    # any drive lies off_us[k] after its start, cum[k] along it, at lon[k].
    off_us = _sample_offsets_us(spec)
    n_samples = len(off_us)
    cum = np.arange(n_samples) * spacing
    lon = grid.lon_at(cum - spec.lead_ft)

    # Per controlled column: the samples that see its detections, and the
    # ref/start/end offsets of its window, the same on every row.
    legs = {}
    for col in _controlled_cols(spec):
        j_cum = spec.lead_ft + col * spec.block_ft
        k_lo = math.ceil((j_cum - DETECT_FT) / spacing - 1e-9)
        k_hi = math.floor(j_cum / spacing + 1e-9)
        start_cum, end_cum = j_cum - 300.0, j_cum + 200.0
        n_points = math.floor(end_cum / spacing + 1e-9) - math.ceil(start_cum / spacing - 1e-9) + 1
        times = [timedelta(seconds=c / spec.speed_fps) for c in (j_cum, start_cum, end_cum)]
        legs[col] = (np.arange(max(0, k_lo), min(n_samples - 1, k_hi) + 1), times, n_points)

    paths = {
        "network": out / "network.geojson",
        "videos": out / "videos.csv",
        "demographics": out / "demographics.csv",
        "reviewed_kml": out / "reviewed.kml",
        "ground_truth": out / "ground_truth.json",
        "sensor_files": [],
        "cv_files": [],
    }
    out.mkdir(parents=True, exist_ok=True)
    write_json(network_to_geojson(network), paths["network"])

    video_rows: list[tuple] = []
    traj_counts: dict[tuple[str, int], int] = {}
    trajectories: dict[str, ExpectedTrajectory] = {}

    for subj_idx in range(spec.n_subjects):
        subj = _subj_name(subj_idx)
        columns, det_drives, det_us = [], [], []
        for drive in drives:
            row = _driven_row(spec, drive)
            t0 = _drive_start(spec, subj_idx, drive)
            t0_us = to_us(t0)
            d_lat, d_lon = np.full(n_samples, grid.lat_at(row * spec.block_ft)), lon
            if spec.jitter_ft > 0:
                noise = np.array([rng.gauss(0.0, spec.jitter_ft) for _ in range(2 * n_samples)])
                d_lat = d_lat + noise[0::2] / FT_PER_DEG
                d_lon = lon + noise[1::2] / (FT_PER_DEG * grid.cos0)
            columns.append((t0_us + off_us, d_lat, d_lon))
            video_rows.append((f"file:///videos/{subj}_drive{drive}.mp4", subj, drive, t0_us))

            on_row = [(intxn_id, col) for intxn_id, c_row, col in controlled if c_row == row]
            for intxn_id, col in on_row:
                ks, (ref, start, end), n_points = legs[col]
                det_drives += [drive] * len(ks)
                det_us.append(t0_us + off_us[ks])
                traj_id = f"{subj}_{drive}_{intxn_id}"
                trajectories[traj_id] = ExpectedTrajectory(
                    traj_id, subj, drive, intxn_id, t0 + ref, t0 + start, t0 + end, n_points,
                    500.0 / spec.speed_fps, 150.0 / spec.speed_fps, 350.0 / spec.speed_fps,
                )
            traj_counts[(subj, drive)] = len(on_row)

        # Rows are already in (drive, time) order.
        t_us, lats, lons = (np.concatenate(c) for c in zip(*columns))
        sensor = SensorTable._grouped(
            [(subj, drive) for drive in drives],
            np.repeat(np.arange(len(drives)), n_samples),
            t_us, lats, lons,
            np.full(len(t_us), 90.0),
            np.full(len(t_us), spec.speed_fps, dtype=float),
            np.tile(cum, len(drives)),
        )
        paths["sensor_files"].append(out / "sensor" / f"{subj}.csv")
        write_sensor_csv(sensor, paths["sensor_files"][-1])
        n = len(det_drives)
        times = _time_texts(np.concatenate(det_us))
        detections = [[subj] * n, [*map(str, det_drives)], times, ["stop_sign"] * n, ["0.9"] * n]
        paths["cv_files"].append(out / "cv" / f"{subj}.csv")
        write_csv(paths["cv_files"][-1], DETECTION_COLUMNS, [detections])
    # In name order, which is not subject order from S100 on.
    paths["sensor_files"].sort()
    paths["cv_files"].sort()

    ground_truth = GroundTruth(
        junctions=junctions,
        candidates=candidates,
        visited_ids=[intxn_id for intxn_id, _, _ in controlled],
        traj_counts=traj_counts,
        trajectories=trajectories,
    )

    uri, subj, drive, t0_us = zip(*video_rows)
    t0_us = np.array(t0_us, dtype=np.int64)
    times = _time_texts(t0_us), _time_texts(t0_us + off_us[-1])
    videos = [uri, subj, [*map(str, drive)], *times, ["30.0"] * len(uri)]
    write_csv(paths["videos"], VIDEO_COLUMNS, [videos])
    subjects = range(spec.n_subjects)
    ages = [str(30 + 2 * k) for k in subjects]
    demographics = [[*map(_subj_name, subjects)], ages, ["FM"[k % 2] for k in subjects]]
    write_csv(paths["demographics"], DEMOGRAPHICS_COLUMNS, [demographics])

    _write_reviewed_kml(paths["reviewed_kml"], grid, controlled)

    write_json(_ground_truth_json(ground_truth), paths["ground_truth"])

    return SynthScenario(spec, network, ground_truth, paths)
