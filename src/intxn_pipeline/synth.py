"""Deterministic synthetic scenarios with closed-form ground truth.

Builds a rectangular street grid (lines split at every junction), constant
speed eastbound drives along interior rows, detection streams that fire for
the 150 ft preceding each controlled junction, video/demographics sidecars,
and a pre-reviewed KML standing in for the human review step. Because the
drives are straight and constant-speed, every expected candidate, visit,
window, and overlay timing has a closed form, which generate() returns as
ground truth alongside the written files.

Ground-truth windows and timings assume the pipeline's default parameters
(300 ft upstream, 200 ft downstream, overlay on/off at 150/50 ft).
"""

from __future__ import annotations

import csv
import json
import math
import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path

from .clips import VIDEO_COLUMNS
from .discovery import IntersectionCandidate, RoadNetwork, save_geojson
from .geo import FT_PER_DEG, GeoPoint
from .ingest import SensorTable, format_time_utc, to_us, write_sensor_csv
from .review import KML_NS, TRUE_FOLDER
from .storage import csv_writer, resolve_uri

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
    candidates: list[IntersectionCandidate]
    visited_ids: list[int]
    traj_counts: dict[tuple[str, int], int]
    trajectories: dict[str, ExpectedTrajectory]


@dataclass
class SynthScenario:
    spec: ScenarioSpec
    network: RoadNetwork
    ground_truth: GroundTruth
    paths: dict[str, Path] = field(default_factory=dict)


def _fmt(value: float) -> str:
    return repr(value)


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
    spec = grid.spec
    polylines: list[tuple[str, list[GeoPoint]]] = []
    for i in range(spec.grid_rows):
        for j in range(spec.grid_cols - 1):
            polylines.append((f"h{i}-{j}", [grid.junction(i, j), grid.junction(i, j + 1)]))
    for i in range(spec.grid_rows - 1):
        for j in range(spec.grid_cols):
            polylines.append((f"v{i}-{j}", [grid.junction(i, j), grid.junction(i + 1, j)]))
    return RoadNetwork(polylines)


def _network_geojson(network: RoadNetwork) -> dict:
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
            for line_id, points in network.polylines
        ],
    }


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


def _kml_coord(p: GeoPoint) -> str:
    # Full float precision so reimported geometry matches the grid exactly.
    return f"{_fmt(p.lon_deg)},{_fmt(p.lat_deg)},0"


def _write_reviewed_kml(
    path: Path, grid: _Grid, controlled: list[tuple[int, int, int]]
) -> None:
    """controlled: (intxn_id, row, col) of every controlled junction."""
    kml = ET.Element("kml", xmlns=KML_NS)
    doc = ET.SubElement(kml, "Document")
    true_folder = ET.SubElement(doc, "Folder")
    ET.SubElement(true_folder, "name").text = TRUE_FOLDER
    approach_folder = ET.SubElement(doc, "Folder")
    ET.SubElement(approach_folder, "name").text = "approaches"

    dlat = APPROACH_HALF_WIDTH_FT / FT_PER_DEG
    dlon = APPROACH_LENGTH_FT / (FT_PER_DEG * grid.cos0)
    for intxn_id, row, col in sorted(controlled):
        pos = grid.junction(row, col)
        mark = ET.SubElement(true_folder, "Placemark")
        ET.SubElement(mark, "name").text = str(intxn_id)
        ext = ET.SubElement(mark, "ExtendedData")
        data = ET.SubElement(ext, "Data", name="control")
        ET.SubElement(data, "value").text = "stop"
        point = ET.SubElement(mark, "Point")
        ET.SubElement(point, "coordinates").text = _kml_coord(pos)

        # Eastbound approach: a rectangle reaching 300 ft west of the
        # junction, with the junction itself on its east edge.
        ring = [
            GeoPoint(pos.lat_deg - dlat, pos.lon_deg - dlon),
            GeoPoint(pos.lat_deg - dlat, pos.lon_deg),
            GeoPoint(pos.lat_deg + dlat, pos.lon_deg),
            GeoPoint(pos.lat_deg + dlat, pos.lon_deg - dlon),
        ]
        poly_mark = ET.SubElement(approach_folder, "Placemark")
        ET.SubElement(poly_mark, "name").text = f"approach-{intxn_id}"
        polygon = ET.SubElement(poly_mark, "Polygon")
        outer = ET.SubElement(polygon, "outerBoundaryIs")
        linear = ET.SubElement(outer, "LinearRing")
        ET.SubElement(linear, "coordinates").text = " ".join(
            _kml_coord(v) for v in ring + [ring[0]]
        )

        line_mark = ET.SubElement(approach_folder, "Placemark")
        ET.SubElement(line_mark, "name").text = f"enter-{intxn_id}"
        line = ET.SubElement(line_mark, "LineString")
        ET.SubElement(line, "coordinates").text = " ".join(
            [_kml_coord(GeoPoint(pos.lat_deg, pos.lon_deg - dlon)), _kml_coord(pos)]
        )

    tree = ET.ElementTree(kml)
    ET.indent(tree)
    with resolve_uri(path, "w") as handle:
        handle.write('<?xml version="1.0" encoding="UTF-8"?>\n')
        handle.write(ET.tostring(kml, encoding="unicode"))
        handle.write("\n")


def _ground_truth_json(gt: GroundTruth) -> dict:
    return {
        "junctions": [
            {"lat": p.lat_deg, "lon": p.lon_deg, "degree": d} for p, d in gt.junctions
        ],
        "candidates": [
            {"intxn_id": c.intxn_id, "lat": c.pos.lat_deg, "lon": c.pos.lon_deg, "degree": c.degree}
            for c in gt.candidates
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

    eligible = sorted(
        ((pos, deg) for pos, deg in junctions if deg >= 3),
        key=lambda t: (t[0].lat_deg, t[0].lon_deg),
    )
    candidates = [
        IntersectionCandidate(k + 1, pos, deg) for k, (pos, deg) in enumerate(eligible)
    ]
    id_by_pos = {(c.pos.lat_deg, c.pos.lon_deg): c.intxn_id for c in candidates}

    def junction_id(row: int, col: int) -> int:
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

    sensor_by_subj: dict[str, list[tuple]] = {}
    detection_rows: dict[str, list[tuple]] = {}
    video_rows: list[tuple] = []
    traj_counts: dict[tuple[str, int], int] = {}
    trajectories: dict[str, ExpectedTrajectory] = {}

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
            video_rows.append(
                (
                    f"file:///videos/{subj}_drive{drive}.mp4",
                    subj,
                    drive,
                    t0,
                    t0 + timedelta(seconds=(n_samples - 1) / spec.sample_hz),
                    30.0,
                )
            )

            count = 0
            for intxn_id, c_row, col in controlled:
                if c_row != row:
                    continue
                count += 1
                j_cum = spec.lead_ft + col * spec.block_ft
                k_lo = math.ceil((j_cum - DETECT_FT) / spacing - 1e-9)
                k_hi = math.floor(j_cum / spacing + 1e-9)
                for k in range(max(0, k_lo), min(n_samples - 1, k_hi) + 1):
                    detection_rows[subj].append(
                        (
                            subj,
                            drive,
                            t0 + timedelta(seconds=k / spec.sample_hz),
                            "stop_sign",
                            0.9,
                        )
                    )
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
        candidates=candidates,
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

    save_geojson(_network_geojson(network), paths["network"])

    sensor_paths = []
    for subj in sorted(sensor_by_subj):
        path = out / "sensor" / f"{subj}.csv"
        sensor_paths.append(path)
        write_sensor_csv(SensorTable.from_columns(*zip(*sensor_by_subj[subj])), path)
    paths["sensor_files"] = sensor_paths

    cv_paths = []
    for subj in sorted(detection_rows):
        path = out / "cv" / f"{subj}.csv"
        cv_paths.append(path)
        with resolve_uri(path, "w") as handle:
            # Subjects are _subj_name's, which hold no line-break characters,
            # so the largest sidecar skips csv_writer's per-row rewrite.
            w = csv.writer(handle, lineterminator="\n")
            w.writerow(("subj", "drive", "time_utc", "object_class", "confidence"))
            for subj_v, drive, t, object_class, confidence in detection_rows[subj]:
                w.writerow(
                    [subj_v, drive, format_time_utc(t), object_class, _fmt(confidence)]
                )
    paths["cv_files"] = cv_paths

    with resolve_uri(paths["videos"], "w") as handle:
        w = csv_writer(handle)
        w.writerow(VIDEO_COLUMNS)
        for uri, subj, drive, start, end, fps in video_rows:
            w.writerow([uri, subj, drive, format_time_utc(start), format_time_utc(end), _fmt(fps)])

    with resolve_uri(paths["demographics"], "w") as handle:
        w = csv_writer(handle)
        w.writerow(("subj", "age", "gender"))
        for subj_idx in range(spec.n_subjects):
            w.writerow([_subj_name(subj_idx), 30 + 2 * subj_idx, ("F", "M")[subj_idx % 2]])

    _write_reviewed_kml(paths["reviewed_kml"], grid, controlled)

    with resolve_uri(paths["ground_truth"], "w") as handle:
        json.dump(_ground_truth_json(ground_truth), handle, indent=2)
        handle.write("\n")

    return SynthScenario(spec, network, ground_truth, paths)
