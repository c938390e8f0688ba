"""Clean and merge per-participant sensor and detection files.

Study inputs arrive as one sensor CSV and one computer-vision CSV per
participant. This module merges them into two study-wide tables with a
canonical (subj, drive, time) order, drops malformed rows instead of
failing, and accounts for every dropped row in a drop report.

The sensor table is a ``SensorTable``: numpy columns in the Arrow columnar
layout (https://arrow.apache.org/docs/format/Columnar.html), so cleaning,
writing, reading and the later stages work on arrays, not on per-row objects.
"""

from __future__ import annotations

import csv
import io
import math
from bisect import bisect_left, bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta, timezone
from itertools import chain, compress
from pathlib import Path
from typing import IO, Iterable

import numpy as np

from .errors import DataError, HeaderMismatchError
from .geo import EARTH_RADIUS_FT, GeoPoint
from .storage import resolve_uri

SENSOR_COLUMNS = ("subj", "drive", "time_utc", "lat", "lon", "heading_deg", "speed_fps")
SENSOR_CUM_COLUMN = "cum_dist_ft"
DETECTION_COLUMNS = ("subj", "drive", "time_utc", "object_class", "confidence")
OBJECT_CLASSES = ("stop_sign", "signal_state")

# Detections are joined to the nearest-in-time sensor sample of the same
# (subj, drive); beyond this gap they are dropped.
DEFAULT_JOIN_TOL_S = 0.5

EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_US = timedelta(microseconds=1)

# What converting one bad CSV value raises; a short row raises IndexError.
_BAD_VALUE = (IndexError, OverflowError, ValueError)


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


def to_us(dt: datetime) -> int:
    """Epoch microseconds of an aware datetime, exactly."""
    return (dt - EPOCH) // _US


def from_us(us: int) -> datetime:
    """The aware UTC datetime of an epoch-microsecond time."""
    return EPOCH + timedelta(microseconds=int(us))


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


# The row columns of a SensorTable, in SensorRecord field order.
ROW_COLUMNS = ("t_us", "lat", "lon", "heading", "speed", "cum")


def _drive_codes(subj: list, drive: list) -> tuple[list[tuple[str, int]], np.ndarray]:
    """The sorted distinct (subj, drive) keys and each row's index among them."""
    pairs = list(zip(subj, drive))
    keys = sorted(set(pairs))
    code = {key: k for k, key in enumerate(keys)}
    return keys, np.fromiter(map(code.__getitem__, pairs), np.int64, len(pairs))


@dataclass(eq=False)
class SensorTable:
    """Sensor rows as read-only numpy columns, sorted by (subj, drive, time).

    Drive key ``keys[d]`` (ascending, each once) owns rows
    ``offsets[d]:offsets[d + 1]``. Keys stay Python objects, so a subj keeps
    its exact text and a drive any int. Time is int64 epoch microseconds,
    the rest float64. ``table[i]`` builds row i as a SensorRecord, and a
    contiguous slice is a view. Stages share one table, so the columns of a
    table built here or viewed from one are read-only.
    """

    keys: list[tuple[str, int]]
    offsets: list[int]
    t_us: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    heading: np.ndarray
    speed: np.ndarray
    cum: np.ndarray

    @classmethod
    def from_columns(cls, subj, drive, t_us, lat, lon, heading, speed, cum) -> SensorTable:
        """A table of rows given column by column in any order; ties keep their order."""
        keys, codes = _drive_codes(subj, drive)
        t_us = np.asarray(t_us, dtype=np.int64)
        order = np.lexsort((t_us, codes))
        floats = (np.asarray(c, dtype=float)[order] for c in (lat, lon, heading, speed, cum))
        return cls._grouped(keys, codes[order], t_us[order], *floats)

    @classmethod
    def from_records(cls, records: Iterable[SensorRecord]) -> SensorTable:
        rows = [
            (r.subj, r.drive, to_us(r.t_utc), r.pos.lat_deg, r.pos.lon_deg)
            + (r.heading_deg, r.speed_fps, r.cum_dist_ft)
            for r in records
        ]
        return cls.from_columns(*(zip(*rows) if rows else [()] * 8))

    @classmethod
    def _grouped(cls, keys: list, codes: np.ndarray, *columns: np.ndarray) -> SensorTable:
        """A table of rows sorted by ``codes``, each row's index into ``keys``.

        Every key must own at least one row.
        """
        for column in columns:
            column.flags.writeable = False
        offsets = [0, *np.cumsum(np.bincount(codes, minlength=len(keys))).tolist()]
        return cls(keys, offsets, *columns)

    def __len__(self) -> int:
        return len(self.t_us)

    def spans(self) -> Iterable[tuple[tuple[str, int], int, int]]:
        """(key, start, stop) of each drive's rows."""
        return zip(self.keys, self.offsets, self.offsets[1:])

    def seconds(self) -> np.ndarray:
        """Epoch seconds of each row, equal to ``datetime.timestamp()``."""
        # int64 to float64 is exact below 2**53 us (years 1685 to 2255).
        if len(self) and max(-int(self.t_us.min()), int(self.t_us.max())) >= 2**53:
            return np.array([us / 1_000_000 for us in self.t_us.tolist()])
        return self.t_us / 1_000_000

    def __getitem__(self, i):
        if not isinstance(i, slice):
            i = range(len(self))[i]  # raises IndexError out of range
            d = bisect_right(self.offsets, i) - 1
            t, lat, lon, heading, speed, cum = (getattr(self, n)[i].item() for n in ROW_COLUMNS)
            return SensorRecord(*self.keys[d], from_us(t), GeoPoint(lat, lon), heading, speed, cum)
        start, stop, step = i.indices(len(self))
        if step != 1:
            raise ValueError("SensorTable slices must be contiguous")
        if stop <= start:
            return SensorTable([], [0], *(getattr(self, n)[:0] for n in ROW_COLUMNS))
        first = bisect_right(self.offsets, start) - 1
        last = bisect_left(self.offsets, stop)
        inner = [b - start for b in self.offsets[first + 1 : last]]
        rows = slice(start, stop)
        return SensorTable(
            self.keys[first:last], [0, *inner, stop - start], self.t_us[rows], self.lat[rows],
            self.lon[rows], self.heading[rows], self.speed[rows], self.cum[rows],
        )

    def __eq__(self, other):
        if not isinstance(other, SensorTable):
            return NotImplemented
        return (self.keys, self.offsets) == (other.keys, other.offsets) and all(
            np.array_equal(getattr(self, n), getattr(other, n)) for n in ROW_COLUMNS
        )


@dataclass
class CleanTables:
    """The two study-wide clean tables plus per-table drop accounting."""

    sensor: SensorTable
    detections: list[DetectionRecord]
    drop_report: dict[str, dict[str, int]] = field(default_factory=dict)


def header_indices(header: list[str] | None, columns: tuple[str, ...], source) -> list[int]:
    """Where each of ``columns`` sits in ``header``; raises HeaderMismatchError."""
    missing = [c for c in columns if c not in (header or ())]
    if missing:
        raise HeaderMismatchError(str(getattr(source, "name", source)), missing)
    # A repeated column name reads its last occurrence, as DictReader did.
    where = {c: i for i, c in enumerate(header)}
    return [where[c] for c in columns]


# Rows held at once while parsing: few enough that the cyclic GC does not
# walk a whole file's row lists again and again.
_CHUNK_ROWS = 4096


def _parse_sensor_rows(reader, idx: list[int], raw: bool, bad_row) -> list:
    """Columns of a csv reader's non-blank sensor rows, parsed a chunk at a time.

    The columns are as ``_sensor_columns`` returns them, without its bad
    rows; each of those goes to ``bad_row(row, line)`` in file order.
    """
    parts, rows, lines = [], [], []
    for row in chain(reader, [None]):
        if row:
            rows.append(row)
            lines.append(reader.line_num)
        if row is None or len(rows) == _CHUNK_ROWS:
            *columns, bad = _sensor_columns(rows, idx, raw)
            if bad.any():
                for k in np.flatnonzero(bad).tolist():
                    bad_row(rows[k], lines[k])
                columns = _select(columns, ~bad)
            parts.append(columns)
            rows, lines = [], []
    lists = [list(chain.from_iterable(p[k] for p in parts)) for k in (0, 1)]
    return lists + [np.concatenate([p[k] for p in parts]) for k in range(2, len(parts[0]))]


def _select(columns: list, ok: np.ndarray) -> list:
    """The rows where ``ok`` of sensor columns: subj and drive lists, then arrays."""
    keep = ok.tolist()
    return [list(compress(c, keep)) for c in columns[:2]] + [c[ok] for c in columns[2:]]


def _parse_files(parse, files: list, jobs: int) -> list:
    if jobs > 1 and len(files) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(parse, files))
    return [parse(f) for f in files]


# The clean tables' time form; zeros stand for digits.
_CANONICAL_TIME = np.array(list(map(ord, "0000-00-00T00:00:00.000Z")), dtype=np.uint32)
_DIGIT = _CANONICAL_TIME == ord("0")


def _times_us(texts: tuple[str, ...], bad: np.ndarray) -> np.ndarray:
    """Epoch microseconds of ISO timestamps, as parse_time_utc reads them.

    A column wholly in the clean tables' form, YYYY-MM-DDTHH:MM:SS.mmmZ from
    year 1, parses as one datetime64 array, whose parser rejects an invalid
    month, day, hour, minute or second as fromisoformat does. Any other
    column goes through parse_time_utc one time at a time, and a time it
    rejects marks its row ``bad``.
    """
    text = np.array(texts, dtype=str)
    if text.dtype == np.dtype("<U24"):
        codes = text.view(np.uint32).reshape(len(text), 24)
        if (
            (codes[:, ~_DIGIT] == _CANONICAL_TIME[~_DIGIT]).all()
            and (codes[:, _DIGIT] - ord("0") < 10).all()
            and (codes[:, :4] != ord("0")).any(axis=1).all()
        ):
            try:
                ms = text.astype("<U23").astype("datetime64[ms]")  # "<U23" drops the Z
                return ms.astype("datetime64[us]").view(np.int64)
            except ValueError:
                pass
    return np.array(_each(lambda s: to_us(parse_time_utc(s)), texts, bad), dtype=np.int64)


def _each(fn, texts: tuple[str, ...], bad: np.ndarray) -> list:
    """``fn`` of each text; a text it fails on marks its row ``bad`` and gives 0."""
    try:
        return list(map(fn, texts))
    except _BAD_VALUE:
        out = []
        for k, text in enumerate(texts):
            try:
                out.append(fn(text))
            except _BAD_VALUE:
                bad[k] = True
                out.append(0)
        return out


def _on_earth(lat: np.ndarray, lon: np.ndarray) -> np.ndarray:
    return (-90.0 <= lat) & (lat <= 90.0) & (-180.0 <= lon) & (lon <= 180.0)


def _sensor_columns(rows: list[list[str]], idx: list[int], raw: bool) -> list:
    """subj, drive, epoch-us time and the float columns of sensor CSV rows,
    then a mask of the bad rows, whose values are placeholders.

    ``idx`` locates subj, drive and time, then the float columns. A row is
    bad if it is short or holds a value that does not parse; a raw row if
    its stripped subj is empty; a clean row if its position is off earth.
    """
    width = max(idx) + 1
    if min(map(len, rows), default=width) < width:
        rows = [row if len(row) >= width else [""] * width for row in rows]
    bad = np.zeros(len(rows), dtype=bool)
    cols = list(zip(*rows)) or [()] * width
    subj = [s.strip() for s in cols[idx[0]]] if raw else list(cols[idx[0]])
    drive = _each(int, cols[idx[1]], bad)
    t = _times_us(cols[idx[2]], bad)
    floats = [np.array(_each(float, cols[i], bad), dtype=float) for i in idx[3:]]
    if raw and not all(subj):
        bad |= np.array([not s for s in subj], dtype=bool)
    if not raw:
        bad |= ~_on_earth(floats[0], floats[1])
    return [subj, drive, t, *floats, bad]


def _parse_sensor_file(source) -> tuple[list, bool, dict[str, int]]:
    """One sensor CSV's in-range rows as columns, and its drop counts.

    The columns are subj, drive, time, lat, lon, heading, speed and cum
    (NaN when the file has no odometer column).
    """
    bad = []
    with resolve_uri(source, "r") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        has_cum = SENSOR_CUM_COLUMN in (header or ())
        idx = header_indices(header, SENSOR_COLUMNS + (SENSOR_CUM_COLUMN,) * has_cum, source)
        columns = _parse_sensor_rows(reader, idx, True, lambda row, line: bad.append(line))
    if not has_cum:
        columns.append(np.full(len(columns[2]), np.nan))
    lat, lon, heading, speed, cum = columns[3:]
    ok = (
        _on_earth(lat, lon)
        & (0.0 <= heading) & (heading < 360.0)
        & (0.0 <= speed) & np.isfinite(speed)
        & (np.isfinite(cum) | (not has_cum))
    )
    columns = _select(columns, ok)
    return columns, has_cum, {"unparseable": len(bad), "out_of_range": len(ok) - len(columns[2])}


def _odometer(cum: np.ndarray, lat: np.ndarray, lon: np.ndarray, spans: Iterable) -> None:
    """Set ``cum`` over each (start, stop) span to the running sum, from 0, of
    the haversine steps between its positions, in feet.

    Bit-identical to adding ``geo.haversine_distance_ft`` step by step: the
    arithmetic is the same IEEE operations in the same order, np.cumsum adds
    in sequence, and sin, cos, asin and squaring are math's own (numpy's
    SIMD asin can differ in the last bit, and numpy squares by multiplying
    where Python's ``** 2`` calls the C library's pow).
    """

    def each(fn, x):
        return np.fromiter(map(fn, x.tolist()), float, len(x))

    def sin2(x):
        return math.sin(x) ** 2

    for start, stop in spans:
        lat_, lon_ = lat[start:stop], lon[start:stop]
        phi = np.radians(lat_)
        dphi = np.radians(np.diff(lat_))
        dlam = np.radians(np.diff(lon_))
        h = each(sin2, dphi / 2.0) + each(math.cos, phi[:-1]) * each(math.cos, phi[1:]) * each(
            sin2, dlam / 2.0
        )
        steps = 2.0 * EARTH_RADIUS_FT * each(math.asin, np.minimum(1.0, np.sqrt(h)))
        cum[start:stop] = np.cumsum(np.concatenate(([0.0], steps)))


def compute_cum_dist(table: SensorTable) -> SensorTable:
    """The table with every drive's odometer recomputed from its positions.

    The first row of a drive gets 0; each later row adds the haversine
    distance from its predecessor.
    """
    cum = np.empty(len(table))
    _odometer(cum, table.lat, table.lon, zip(table.offsets, table.offsets[1:]))
    cum.flags.writeable = False
    return replace(table, cum=cum)


def clean_sensor(files: list, jobs: int = 1) -> tuple[SensorTable, dict[str, int]]:
    """Merge sensor CSVs into one canonical table plus a drop report.

    Malformed or out-of-range rows are dropped and counted, rows that share
    (subj, drive, time to the millisecond) collapse to one survivor, and the
    cumulative distance column is recomputed for any drive that lacks it in
    any file. A supplied odometer column is trusted but rows that run it
    backwards are dropped.
    """
    drops = {"unparseable": 0, "out_of_range": 0, "duplicate": 0, "cum_dist_regression": 0}
    parsed = _parse_files(_parse_sensor_file, files, jobs)
    for _, _, file_drops in parsed:
        for k, v in file_drops.items():
            drops[k] += v
    if not parsed:
        return SensorTable.from_columns(*[[]] * 8), drops

    subj = [s for columns, _, _ in parsed for s in columns[0]]
    drive = [d for columns, _, _ in parsed for d in columns[1]]
    t, lat, lon, heading, speed, cum = (
        np.concatenate([columns[k] for columns, _, _ in parsed]) for k in range(2, 8)
    )
    sizes = [len(columns[2]) for columns, _, _ in parsed]
    cumless = np.repeat([not has_cum for _, has_cum, _ in parsed], sizes)
    keys, codes = _drive_codes(subj, drive)
    # Drives seen in any file without the odometer column get it recomputed.
    recompute = np.zeros(len(keys), dtype=bool)
    recompute[codes[cumless]] = True

    # The full-row sort makes the dedupe winner independent of file order.
    order = np.lexsort((np.where(cumless, 0.0, cum), cumless, speed, heading, lon, lat, t, codes))
    codes, t, lat, lon, heading, speed, cum = (
        a[order] for a in (codes, t, lat, lon, heading, speed, cum)
    )
    # The clean table stores milliseconds: dedupe on what it will hold.
    ms = t // 1000
    first = np.ones(len(t), dtype=bool)
    first[1:] = (codes[1:] != codes[:-1]) | (ms[1:] != ms[:-1])
    drops["duplicate"] = len(t) - int(first.sum())
    codes, t, lat, lon, heading, speed, cum = (
        a[first] for a in (codes, t, lat, lon, heading, speed, cum)
    )

    bounds = np.searchsorted(codes, np.arange(len(keys) + 1)).tolist()
    spans = list(zip(bounds, bounds[1:]))
    _odometer(cum, lat, lon, compress(spans, recompute))
    keep = np.ones(len(t), dtype=bool)
    for start, stop in compress(spans, ~recompute):
        # A row that runs the odometer below any earlier row is dropped.
        run = cum[start:stop]
        keep[start + 1 : stop] = run[1:] >= np.maximum.accumulate(run)[:-1]
    drops["cum_dist_regression"] = len(keep) - int(keep.sum())
    columns = (a[keep] for a in (t, lat, lon, heading, speed, cum))
    return SensorTable._grouped(keys, codes[keep], *columns), drops


def _parse_detection_file(source) -> tuple[list[tuple], dict[str, int]]:
    drops = {"unparseable": 0, "out_of_range": 0, "unknown_class": 0}
    with resolve_uri(source, "r") as handle:
        reader = csv.reader(handle)
        i_subj, i_drive, i_t, i_class, i_conf = header_indices(
            next(reader, None), DETECTION_COLUMNS, source
        )
        rows = []
        for raw in reader:
            if not raw:
                continue
            try:
                subj = raw[i_subj].strip()
                drive = int(raw[i_drive])
                t = parse_time_utc(raw[i_t])
                object_class = raw[i_class].strip()
                confidence = float(raw[i_conf])
                if not subj:
                    raise ValueError("empty subj")
            except _BAD_VALUE:
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
    sensor: SensorTable,
    join_tol_s: float = DEFAULT_JOIN_TOL_S,
    jobs: int = 1,
) -> tuple[list[DetectionRecord], dict[str, int]]:
    """Position-join detection CSVs to an already-cleaned sensor table.

    Each detection inherits the position of the nearest-in-time sensor
    sample of its (subj, drive); ties break toward the earlier sample.
    Detections farther than ``join_tol_s`` from every sample are dropped.
    """
    drops = {"unparseable": 0, "out_of_range": 0, "unknown_class": 0, "no_sensor_match": 0}
    spans = {key: (start, stop) for key, start, stop in sensor.spans()}
    by_drive: dict[tuple[int, int], list[tuple]] = {}
    for file_rows, file_drops in _parse_files(_parse_detection_file, files, jobs):
        for k, v in file_drops.items():
            drops[k] += v
        for row in file_rows:
            span = spans.get((row[0], row[1]))
            if span is None:
                drops["no_sensor_match"] += 1
            else:
                by_drive.setdefault(span, []).append(row)

    seconds = sensor.seconds()
    joined: list[DetectionRecord] = []
    for (start, stop), rows in by_drive.items():
        times = seconds[start:stop]
        ts = np.array([row[2].timestamp() for row in rows])
        i = np.searchsorted(times, ts)
        before = np.where(i > 0, np.abs(times[np.maximum(i - 1, 0)] - ts), np.inf)
        after = np.where(i < len(times), np.abs(times[np.minimum(i, len(times) - 1)] - ts), np.inf)
        # The earlier sample wins exact ties.
        nearest = start + np.where(after < before, i, i - 1)
        matched = np.minimum(before, after) <= join_tol_s
        drops["no_sensor_match"] += len(rows) - int(matched.sum())
        lats = sensor.lat[nearest].tolist()
        lons = sensor.lon[nearest].tolist()
        for row, lat, lon, ok in zip(rows, lats, lons, matched.tolist()):
            if ok:
                subj, drive, t, object_class, confidence = row
                joined.append(
                    DetectionRecord(subj, drive, t, GeoPoint(lat, lon), object_class, confidence)
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


def write_sensor_csv(table: SensorTable, dest: str | Path | IO) -> None:
    with resolve_uri(dest, "w") as handle:
        csv.writer(handle, lineterminator="\n").writerow(SENSOR_COLUMNS + (SENSOR_CUM_COLUMN,))
        # datetime64 renders as format_time_utc does: truncated to the
        # millisecond, the year padded to four digits.
        times = np.datetime_as_string(table.t_us.astype("datetime64[us]"), unit="ms").tolist()
        times = [text + "Z" for text in times]
        for (subj, drive), start, stop in table.spans():
            # csv renders (and if need be quotes) the key once per drive. Times
            # and float reprs never need quoting, so joining them with commas
            # is what csv.writer would write.
            key = io.StringIO()
            csv.writer(key, lineterminator="").writerow((subj, drive, ""))
            prefix = key.getvalue()
            floats = (map(repr, getattr(table, n)[start:stop].tolist()) for n in ROW_COLUMNS[1:])
            rows = zip(times[start:stop], *floats)
            handle.write("".join([prefix + ",".join(row) + "\n" for row in rows]))


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


def read_clean_sensor(source: str | Path | IO) -> SensorTable:
    """Load a clean sensor table; raises DataError on any anomaly.

    Blank lines are skipped. A row that lacks a column, or holds a value
    that does not parse or a position out of range, raises DataError
    naming its line.
    """

    def bad_row(row, line):
        raise DataError(f"bad row in clean sensor table at line {line}: {row!r}")

    with resolve_uri(source, "r") as handle:
        reader = csv.reader(handle)
        idx = header_indices(next(reader, None), SENSOR_COLUMNS + (SENSOR_CUM_COLUMN,), source)
        columns = _parse_sensor_rows(reader, idx, False, bad_row)
    return SensorTable.from_columns(*columns)


def read_clean_detections(source: str | Path | IO) -> list[DetectionRecord]:
    """Load a clean detection table; raises DataError on any anomaly.

    Blank lines are skipped. A row that lacks a column, or holds a value
    that does not parse, a position out of range, or what ``clean_cv``
    never writes (an empty subj, an object class outside
    ``OBJECT_CLASSES``, a confidence outside [0, 1]), raises DataError
    naming its line.
    """
    with resolve_uri(source, "r") as handle:
        reader = csv.reader(handle)
        subj, drive, t, lat, lon, object_class, confidence = header_indices(
            next(reader, None), CLEAN_DETECTION_COLUMNS, source
        )
        out = []
        for row in reader:
            if not row:
                continue
            try:
                record = DetectionRecord(
                    row[subj],
                    int(row[drive]),
                    parse_time_utc(row[t]),
                    GeoPoint(float(row[lat]), float(row[lon])),
                    row[object_class],
                    float(row[confidence]),
                )
                if (
                    not record.subj
                    or record.object_class not in OBJECT_CLASSES
                    or not 0.0 <= record.confidence <= 1.0
                ):
                    raise ValueError("a value clean_cv never writes")
                out.append(record)
            except _BAD_VALUE as exc:
                raise DataError(
                    f"bad row in clean detection table at line {reader.line_num}: {row!r}"
                ) from exc
        return out
