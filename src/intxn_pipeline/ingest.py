"""Clean and merge per-participant sensor and detection files.

Study inputs arrive as one sensor CSV and one computer-vision CSV per
participant. This module merges them into two study-wide tables with a
canonical (subj, drive, time) order, drops malformed rows instead of
failing, and accounts for every dropped row in a drop report.
"""

from __future__ import annotations

import csv
from bisect import bisect_left
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from itertools import groupby
from pathlib import Path
from typing import IO, Iterable

from .errors import DataError, HeaderMismatchError
from .geo import GeoPoint, haversine_distance_ft
from .storage import resolve_uri

SENSOR_COLUMNS = ("subj", "drive", "time_utc", "lat", "lon", "heading_deg", "speed_fps")
SENSOR_CUM_COLUMN = "cum_dist_ft"
DETECTION_COLUMNS = ("subj", "drive", "time_utc", "object_class", "confidence")
OBJECT_CLASSES = ("stop_sign", "signal_state")

# Detections are joined to the nearest-in-time sensor sample of the same
# (subj, drive); beyond this gap they are dropped.
DEFAULT_JOIN_TOL_S = 0.5


def parse_time_utc(text: str) -> datetime:
    """Parse an ISO-8601 timestamp (Z or explicit offset) to aware UTC."""
    # Fast path: from Python 3.11, fromisoformat alone parses the canonical
    # "...Z" form of the clean tables. Python 3.10, padding, lowercase "z",
    # other offsets and naive times take the general path below.
    try:
        dt = datetime.fromisoformat(text)
    except ValueError:
        pass
    else:
        if dt.tzinfo is timezone.utc:
            return dt
    raw = text.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    dt = datetime.fromisoformat(raw)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc)


def format_time_utc(dt: datetime) -> str:
    """Render UTC time with millisecond precision, e.g. 2019-05-01T14:03:22.500Z."""
    # isoformat pads the year to four digits, as %Y does not below 1000.
    return dt.astimezone(timezone.utc).isoformat(timespec="milliseconds")[:-6] + "Z"


@dataclass
class SensorRecord:
    """One timestamped GPS/heading/speed sample of one participant drive."""

    subj: str
    drive: int
    t_utc: datetime
    pos: GeoPoint
    heading_deg: float
    speed_fps: float
    cum_dist_ft: float

    def sort_key(self):
        return (self.subj, self.drive, self.t_utc)


@dataclass
class DetectionRecord:
    """One traffic-control-device detection, position-joined to the sensor stream."""

    subj: str
    drive: int
    t_utc: datetime
    pos: GeoPoint
    object_class: str
    confidence: float

    def sort_key(self):
        return (self.subj, self.drive, self.t_utc, self.object_class, self.confidence)


@dataclass
class CleanTables:
    """The two study-wide clean tables plus per-table drop accounting."""

    sensor: list[SensorRecord]
    detections: list[DetectionRecord]
    drop_report: dict[str, dict[str, int]] = field(default_factory=dict)


def _check_header(fieldnames: list[str] | None, required: Iterable[str], name: str) -> None:
    have = set(fieldnames or ())
    missing = [c for c in required if c not in have]
    if missing:
        raise HeaderMismatchError(str(name), missing)


def _parse_sensor_file(source) -> tuple[list[tuple], bool, dict[str, int]]:
    """Parse one sensor CSV into row tuples; count unusable rows."""
    drops = {"unparseable": 0, "out_of_range": 0}
    with resolve_uri(source, "r") as handle:
        reader = csv.DictReader(handle)
        _check_header(reader.fieldnames, SENSOR_COLUMNS, getattr(source, "name", source))
        has_cum = SENSOR_CUM_COLUMN in (reader.fieldnames or ())
        rows = []
        for raw in reader:
            try:
                subj = raw["subj"].strip()
                drive = int(raw["drive"])
                t = parse_time_utc(raw["time_utc"])
                lat = float(raw["lat"])
                lon = float(raw["lon"])
                heading = float(raw["heading_deg"])
                speed = float(raw["speed_fps"])
                cum = float(raw[SENSOR_CUM_COLUMN]) if has_cum else None
                if not subj:
                    raise ValueError("empty subj")
            except (KeyError, TypeError, ValueError):
                drops["unparseable"] += 1
                continue
            if (
                not -90.0 <= lat <= 90.0
                or not -180.0 <= lon <= 180.0
                or not 0.0 <= heading < 360.0
                or speed < 0.0
            ):
                drops["out_of_range"] += 1
                continue
            rows.append((subj, drive, t, lat, lon, heading, speed, cum))
        return rows, has_cum, drops


def compute_cum_dist(drive_records: list[SensorRecord]) -> list[SensorRecord]:
    """Fill the within-drive odometer from consecutive haversine distances.

    Input must be time-sorted records of a single drive. The first record
    gets 0; each later record adds the distance from its predecessor.
    """
    out = []
    cum = 0.0
    prev_pos = None
    for rec in drive_records:
        if prev_pos is not None:
            cum += haversine_distance_ft(prev_pos, rec.pos)
        out.append(replace(rec, cum_dist_ft=cum))
        prev_pos = rec.pos
    return out


def clean_sensor(
    files: list, jobs: int = 1
) -> tuple[list[SensorRecord], dict[str, int]]:
    """Merge sensor CSVs into one canonical table plus a drop report.

    Malformed or out-of-range rows are dropped and counted, rows that share
    (subj, drive, time to the millisecond) collapse to one survivor, and the
    cumulative distance column is recomputed for any drive that lacks it. A
    supplied odometer column is trusted but rows that run it backwards are
    dropped.
    """
    drops = {"unparseable": 0, "out_of_range": 0, "duplicate": 0, "cum_dist_regression": 0}
    if jobs > 1 and len(files) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            parsed = list(pool.map(_parse_sensor_file, files))
    else:
        parsed = [_parse_sensor_file(f) for f in files]

    rows: list[tuple] = []
    # (subj, drive) pairs seen in any file without the odometer column.
    missing_cum: set[tuple[str, int]] = set()
    for file_rows, has_cum, file_drops in parsed:
        rows.extend(file_rows)
        if not has_cum:
            missing_cum.update((r[0], r[1]) for r in file_rows)
        for k, v in file_drops.items():
            drops[k] += v

    # Full-tuple sort makes the dedupe winner independent of file order.
    rows.sort(key=lambda r: (r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7] is None, r[7] or 0.0))
    deduped: list[tuple] = []
    last_key = None
    for r in rows:
        # The clean table stores milliseconds: dedupe on what it will hold.
        t = r[2]
        if t.microsecond % 1000:
            t = t.replace(microsecond=t.microsecond // 1000 * 1000)
        key = (r[0], r[1], t)
        if key == last_key:
            drops["duplicate"] += 1
            continue
        deduped.append(r)
        last_key = key

    records: list[SensorRecord] = []
    for (subj, drive), group in groupby(deduped, key=lambda r: (r[0], r[1])):
        drive_rows = list(group)
        recompute = (subj, drive) in missing_cum or any(r[7] is None for r in drive_rows)
        drive_recs = [
            SensorRecord(r[0], r[1], r[2], GeoPoint(r[3], r[4]), r[5], r[6], r[7] or 0.0)
            for r in drive_rows
        ]
        if recompute:
            records.extend(compute_cum_dist(drive_recs))
        else:
            prev = None
            for rec in drive_recs:
                if prev is not None and rec.cum_dist_ft < prev:
                    drops["cum_dist_regression"] += 1
                    continue
                records.append(rec)
                prev = rec.cum_dist_ft
    return records, drops


def _parse_detection_file(source) -> tuple[list[tuple], dict[str, int]]:
    drops = {"unparseable": 0, "out_of_range": 0, "unknown_class": 0}
    with resolve_uri(source, "r") as handle:
        reader = csv.DictReader(handle)
        _check_header(reader.fieldnames, DETECTION_COLUMNS, getattr(source, "name", source))
        rows = []
        for raw in reader:
            try:
                subj = raw["subj"].strip()
                drive = int(raw["drive"])
                t = parse_time_utc(raw["time_utc"])
                object_class = raw["object_class"].strip()
                confidence = float(raw["confidence"])
                if not subj:
                    raise ValueError("empty subj")
            except (KeyError, TypeError, ValueError):
                drops["unparseable"] += 1
                continue
            if object_class not in OBJECT_CLASSES:
                drops["unknown_class"] += 1
                continue
            if not 0.0 <= confidence <= 1.0:
                drops["out_of_range"] += 1
                continue
            rows.append((subj, drive, t, object_class, confidence))
        return rows, drops


def clean_cv(
    files: list,
    sensor: list[SensorRecord],
    join_tol_s: float = DEFAULT_JOIN_TOL_S,
    jobs: int = 1,
) -> tuple[list[DetectionRecord], dict[str, int]]:
    """Position-join detection CSVs to an already-cleaned sensor table.

    Each detection inherits the position of the nearest-in-time sensor
    sample of its (subj, drive); ties break toward the earlier sample.
    Detections farther than ``join_tol_s`` from every sample are dropped.
    """
    drops = {"unparseable": 0, "out_of_range": 0, "unknown_class": 0, "no_sensor_match": 0}
    if jobs > 1 and len(files) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            parsed = list(pool.map(_parse_detection_file, files))
    else:
        parsed = [_parse_detection_file(f) for f in files]

    rows: list[tuple] = []
    for file_rows, file_drops in parsed:
        rows.extend(file_rows)
        for k, v in file_drops.items():
            drops[k] += v

    by_drive: dict[tuple[str, int], tuple[list[float], list[GeoPoint]]] = {}
    for rec in sensor:
        times, positions = by_drive.setdefault((rec.subj, rec.drive), ([], []))
        times.append(rec.t_utc.timestamp())
        positions.append(rec.pos)

    joined: list[DetectionRecord] = []
    for subj, drive, t, object_class, confidence in rows:
        entry = by_drive.get((subj, drive))
        if entry is None:
            drops["no_sensor_match"] += 1
            continue
        times, positions = entry
        ts = t.timestamp()
        i = bisect_left(times, ts)
        best = None
        # Earlier sample wins exact ties, so consider it first.
        for j in (i - 1, i):
            if 0 <= j < len(times):
                dt = abs(times[j] - ts)
                if best is None or dt < best[0]:
                    best = (dt, j)
        if best is None or best[0] > join_tol_s:
            drops["no_sensor_match"] += 1
            continue
        joined.append(
            DetectionRecord(subj, drive, t, positions[best[1]], object_class, confidence)
        )
    joined.sort(key=DetectionRecord.sort_key)
    return joined, drops


def clean_tables(
    sensor_files: list,
    cv_files: list,
    join_tol_s: float = DEFAULT_JOIN_TOL_S,
    jobs: int = 1,
) -> CleanTables:
    """Run both cleaning passes and bundle the results."""
    sensor, sensor_drops = clean_sensor(sensor_files, jobs=jobs)
    detections, cv_drops = clean_cv(cv_files, sensor, join_tol_s=join_tol_s, jobs=jobs)
    return CleanTables(sensor, detections, {"sensor": sensor_drops, "detections": cv_drops})


def write_sensor_csv(records: list[SensorRecord], dest: str | Path | IO) -> None:
    with resolve_uri(dest, "w") as handle:
        w = csv.writer(handle, lineterminator="\n")
        w.writerow(SENSOR_COLUMNS + (SENSOR_CUM_COLUMN,))
        for r in records:
            w.writerow(
                [
                    r.subj,
                    r.drive,
                    format_time_utc(r.t_utc),
                    repr(r.pos.lat_deg),
                    repr(r.pos.lon_deg),
                    repr(r.heading_deg),
                    repr(r.speed_fps),
                    repr(r.cum_dist_ft),
                ]
            )


CLEAN_DETECTION_COLUMNS = ("subj", "drive", "time_utc", "lat", "lon", "object_class", "confidence")


def write_detections_csv(records: list[DetectionRecord], dest: str | Path | IO) -> None:
    with resolve_uri(dest, "w") as handle:
        w = csv.writer(handle, lineterminator="\n")
        w.writerow(CLEAN_DETECTION_COLUMNS)
        for r in records:
            w.writerow(
                [
                    r.subj,
                    r.drive,
                    format_time_utc(r.t_utc),
                    repr(r.pos.lat_deg),
                    repr(r.pos.lon_deg),
                    r.object_class,
                    repr(r.confidence),
                ]
            )


def read_clean_sensor(source: str | Path | IO) -> list[SensorRecord]:
    """Load a clean sensor table; raises DataError on any anomaly.

    Blank lines are skipped. A row that lacks a column, or holds a value
    that does not parse or a position out of range, raises DataError
    naming its line.
    """
    with resolve_uri(source, "r") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        columns = SENSOR_COLUMNS + (SENSOR_CUM_COLUMN,)
        _check_header(header, columns, getattr(source, "name", source))
        # A repeated column name reads its last occurrence, as DictReader did.
        col = {name: i for i, name in enumerate(header)}
        subj, drive, t, lat, lon, heading, speed, cum = (col[c] for c in columns)
        out = []
        for row in reader:
            if not row:
                continue
            try:
                out.append(
                    SensorRecord(
                        row[subj],
                        int(row[drive]),
                        parse_time_utc(row[t]),
                        GeoPoint(float(row[lat]), float(row[lon])),
                        float(row[heading]),
                        float(row[speed]),
                        float(row[cum]),
                    )
                )
            except (IndexError, ValueError) as exc:
                raise DataError(
                    f"bad row in clean sensor table at line {reader.line_num}: {row!r}"
                ) from exc
        return out


def read_clean_detections(source: str | Path | IO) -> list[DetectionRecord]:
    """Load a clean detection table; raises DataError on any anomaly."""
    with resolve_uri(source, "r") as handle:
        reader = csv.DictReader(handle)
        _check_header(reader.fieldnames, CLEAN_DETECTION_COLUMNS, getattr(source, "name", source))
        out = []
        for raw in reader:
            try:
                out.append(
                    DetectionRecord(
                        raw["subj"],
                        int(raw["drive"]),
                        parse_time_utc(raw["time_utc"]),
                        GeoPoint(float(raw["lat"]), float(raw["lon"])),
                        raw["object_class"],
                        float(raw["confidence"]),
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise DataError(f"bad row in clean detection table: {raw!r}") from exc
        return out
