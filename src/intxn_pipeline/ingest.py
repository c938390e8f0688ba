"""Clean and merge per-participant sensor and detection files.

Study inputs arrive as one sensor CSV and one computer-vision CSV per
participant. This module merges them into two study-wide tables with a
canonical (subj, drive, time) order, drops malformed rows instead of
failing, and accounts for every dropped row in a drop report.

Both tables, ``SensorTable`` and ``DetectionTable``, are numpy columns in the
Arrow columnar layout (https://arrow.apache.org/docs/format/Columnar.html),
so cleaning, writing, reading and the later stages work on arrays, not on
per-row objects.
"""

from __future__ import annotations

import csv
import io
import math
from bisect import bisect_left, bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta, timezone
from functools import partial
from itertools import chain, compress, repeat
from pathlib import Path
from typing import IO, ClassVar, Iterable

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


def _drive_codes(subj: list, drive: list) -> tuple[list[tuple[str, int]], np.ndarray]:
    """The sorted distinct (subj, drive) keys and each row's index among them."""
    pairs = list(zip(subj, drive))
    keys = sorted(set(pairs))
    code = {key: k for k, key in enumerate(keys)}
    return keys, np.fromiter(map(code.__getitem__, pairs), np.int64, len(pairs))


def to_seconds(us: np.ndarray) -> np.ndarray:
    """Seconds of microsecond counts, each as ``timedelta.total_seconds()`` gives it."""
    # int64 to float64 is exact below 2**53 us (years 1685 to 2255).
    if len(us) and max(-int(us.min()), int(us.max())) >= 2**53:
        return np.array([n / 1_000_000 for n in us.tolist()])
    return us / 1_000_000


@dataclass(eq=False)
class _Table:
    """Rows as read-only numpy columns, sorted by (subj, drive), then ``SORT``.

    Drive key ``keys[d]`` (ascending, each once) owns rows
    ``offsets[d]:offsets[d + 1]``. Keys stay Python objects, so a subj keeps
    its exact text and a drive any int. ``COLUMNS`` names the row columns,
    in record field order, with their dtypes; time is ``t_us``, int64 epoch
    microseconds. ``table[i]`` builds row i as a record, and a contiguous
    slice is a view. Stages share one table, so the columns of a table
    built here or viewed from one are read-only.
    """

    COLUMNS: ClassVar[dict[str, type]]
    SORT: ClassVar[tuple[str, ...]]

    keys: list[tuple[str, int]]
    offsets: list[int]

    @classmethod
    def from_columns(cls, subj, drive, *columns):
        """A table of rows given column by column in any order; ties keep their order."""
        keys, codes = _drive_codes(subj, drive)
        return cls._sorted(keys, codes, *columns)

    @classmethod
    def from_records(cls, records: Iterable):
        rows = [
            (r.subj, r.drive, to_us(r.t_utc), r.pos.lat_deg, r.pos.lon_deg, *cls._fields(r))
            for r in records
        ]
        return cls.from_columns(*(zip(*rows) if rows else [()] * (2 + len(cls.COLUMNS))))

    @classmethod
    def _sorted(cls, keys: list, codes: np.ndarray, *columns):
        """A table of rows in any order, each given its index into ``keys``;
        ties keep their order."""
        columns = [np.asarray(c, dtype=t) for c, t in zip(columns, cls.COLUMNS.values())]
        named = dict(zip(cls.COLUMNS, columns))
        order = np.lexsort([named[n] for n in reversed(cls.SORT)] + [codes])
        return cls._grouped(keys, codes[order], *(c[order] for c in columns))

    @classmethod
    def _grouped(cls, keys: list, codes: np.ndarray, *columns: np.ndarray):
        """A table of rows sorted by ``codes``, each row's index into ``keys``.

        Every key must own at least one row.
        """
        for column in columns:
            column.flags.writeable = False
        offsets = [0, *np.cumsum(np.bincount(codes, minlength=len(keys))).tolist()]
        return cls(keys, offsets, *columns)

    def __len__(self) -> int:
        return self.offsets[-1]

    def columns(self) -> list[np.ndarray]:
        return [getattr(self, n) for n in self.COLUMNS]

    def spans(self) -> Iterable[tuple[tuple[str, int], int, int]]:
        """(key, start, stop) of each drive's rows."""
        return zip(self.keys, self.offsets, self.offsets[1:])

    def codes(self) -> np.ndarray:
        """Each row's index into ``keys``."""
        return np.repeat(np.arange(len(self.keys)), np.diff(self.offsets))

    def seconds(self) -> np.ndarray:
        """Epoch seconds of each row, equal to ``datetime.timestamp()``."""
        return to_seconds(self.t_us)

    def take(self, rows: np.ndarray):
        """The table of the rows at ascending indices, or where a mask is true."""
        used, codes = np.unique(self.codes()[rows], return_inverse=True)
        keys = [self.keys[k] for k in used.tolist()]
        return self._grouped(keys, codes, *(c[rows] for c in self.columns()))

    def __getitem__(self, i):
        if not isinstance(i, slice):
            i = range(len(self))[i]  # raises IndexError out of range
            d = bisect_right(self.offsets, i) - 1
            t, lat, lon, *rest = (c[i].item() for c in self.columns())
            return self._record(*self.keys[d], from_us(t), GeoPoint(lat, lon), *rest)
        start, stop, step = i.indices(len(self))
        if step != 1:
            raise ValueError(f"{type(self).__name__} slices must be contiguous")
        if stop <= start:
            return type(self)([], [0], *(c[:0] for c in self.columns()))
        first = bisect_right(self.offsets, start) - 1
        last = bisect_left(self.offsets, stop)
        inner = [b - start for b in self.offsets[first + 1 : last]]
        rows = slice(start, stop)
        return type(self)(
            self.keys[first:last], [0, *inner, stop - start], *(c[rows] for c in self.columns())
        )

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.keys, self.offsets) == (other.keys, other.offsets) and all(
            np.array_equal(a, b) for a, b in zip(self.columns(), other.columns())
        )


@dataclass(eq=False)
class SensorTable(_Table):
    """Sensor rows, sorted by (subj, drive, time); ``table[i]`` is a SensorRecord."""

    COLUMNS = {
        "t_us": np.int64, "lat": float, "lon": float, "heading": float, "speed": float, "cum": float
    }
    SORT = ("t_us",)

    t_us: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    heading: np.ndarray
    speed: np.ndarray
    cum: np.ndarray

    _record = SensorRecord

    @staticmethod
    def _fields(r: SensorRecord) -> tuple:
        return r.heading_deg, r.speed_fps, r.cum_dist_ft


# Object classes in name order: a class code sorts as its name does.
CLASS_NAMES = tuple(sorted(OBJECT_CLASSES))
_CLASS_CODE = {name: k for k, name in enumerate(CLASS_NAMES)}


@dataclass(eq=False)
class DetectionTable(_Table):
    """Detection rows in ``DetectionRecord.sort_key`` order; ``table[i]`` is a
    DetectionRecord. ``class_code`` indexes ``CLASS_NAMES``.
    """

    COLUMNS = {
        "t_us": np.int64, "lat": float, "lon": float, "class_code": np.int64, "confidence": float
    }
    SORT = ("t_us", "class_code", "confidence")

    t_us: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    class_code: np.ndarray
    confidence: np.ndarray

    @staticmethod
    def _record(subj, drive, t, pos, code, confidence) -> DetectionRecord:
        return DetectionRecord(subj, drive, t, pos, CLASS_NAMES[code], confidence)

    @staticmethod
    def _fields(r: DetectionRecord) -> tuple:
        return _CLASS_CODE[r.object_class], r.confidence


@dataclass
class CleanTables:
    """The two study-wide clean tables plus per-table drop accounting."""

    sensor: SensorTable
    detections: DetectionTable
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


def _parse_rows(reader, columns_of, bad_row) -> tuple[list, int]:
    """Columns of a csv reader's non-blank rows, parsed a chunk at a time, and
    how many rows were read.

    ``columns_of(rows)`` gives the subj and drive lists, the array columns
    and a mask of the bad rows. The columns come back without the bad rows;
    each of those goes to ``bad_row(row, line)`` in file order.
    """
    parts, rows, lines, read = [], [], [], 0
    for row in chain(reader, [None]):
        if row:
            rows.append(row)
            lines.append(reader.line_num)
        if row is None or len(rows) == _CHUNK_ROWS:
            *columns, bad = columns_of(rows)
            if bad.any():
                for k in np.flatnonzero(bad).tolist():
                    bad_row(rows[k], lines[k])
                columns = _select(columns, ~bad)
            parts.append(columns)
            read += len(rows)
            rows, lines = [], []
    lists = [list(chain.from_iterable(p[k] for p in parts)) for k in (0, 1)]
    arrays = [np.concatenate([p[k] for p in parts]) for k in range(2, len(parts[0]))]
    return lists + arrays, read


def _select(columns: list, ok: np.ndarray) -> list:
    """The rows where ``ok`` of table columns: subj and drive lists, then arrays."""
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


def _key_columns(rows: list[list[str]], idx: list[int], raw: bool, bad: np.ndarray) -> list:
    """subj, drive and epoch-us time of CSV rows, then the texts of their
    other columns at ``idx``. A short row reads as empty texts, and a raw
    subj is stripped; a drive or time that does not parse marks its row.
    """
    width = max(idx) + 1
    if min(map(len, rows), default=width) < width:
        rows = [row if len(row) >= width else [""] * width for row in rows]
    cols = list(zip(*rows)) or [()] * width
    subj, drive, t, *rest = (cols[i] for i in idx)
    subj = list(map(str.strip, subj) if raw else subj)
    return [subj, _each(int, drive, bad), _times_us(t, bad), *rest]


def _sensor_columns(rows: list[list[str]], idx: list[int], raw: bool) -> list:
    """subj, drive, epoch-us time and the float columns of sensor CSV rows,
    then a mask of the bad rows, whose values are placeholders.

    ``idx`` locates subj, drive and time, then the float columns. A row is
    bad if it is short or holds a value that does not parse; a raw row if
    its stripped subj is empty; a clean row if its position is off earth.
    """
    bad = np.zeros(len(rows), dtype=bool)
    subj, drive, t, *texts = _key_columns(rows, idx, raw, bad)
    floats = [np.array(_each(float, c, bad), dtype=float) for c in texts]
    if raw and not all(subj):
        bad |= np.array([not s for s in subj], dtype=bool)
    if not raw:
        bad |= ~_on_earth(floats[0], floats[1])
    return [subj, drive, t, *floats, bad]


def _detection_columns(rows: list[list[str]], idx: list[int], raw: bool) -> list:
    """subj, drive, epoch-us time, lat and lon (clean rows only), class code
    and confidence of detection CSV rows, then a mask of the bad rows.

    A class outside ``OBJECT_CLASSES`` gets code -1. A row is bad if it is
    short, holds a value that does not parse or has an empty subj; a raw
    row's subj and class are stripped. A clean row is also bad if it holds
    what ``clean_cv`` never writes: an unknown class, a confidence outside
    [0, 1] or a position off earth.
    """
    bad = np.zeros(len(rows), dtype=bool)
    subj, drive, t, *coords, names, conf = _key_columns(rows, idx, raw, bad)
    *coords, conf = (np.array(_each(float, c, bad), dtype=float) for c in (*coords, conf))
    names = map(str.strip, names) if raw else names
    code = np.fromiter(map(_CLASS_CODE.get, names, repeat(-1)), np.int64, len(rows))
    if not all(subj):
        bad |= np.array([not s for s in subj], dtype=bool)
    if not raw:
        bad |= ~_on_earth(*coords) | (code < 0) | ~((0.0 <= conf) & (conf <= 1.0))
    return [subj, drive, t, *coords, code, conf, bad]


def _parse_sensor_file(source) -> tuple[list, bool, dict[str, int], int]:
    """One sensor CSV's in-range rows as columns, and its drop counts and rows read.

    The columns are subj, drive, time, lat, lon, heading, speed and cum
    (NaN when the file has no odometer column).
    """
    bad = []
    with resolve_uri(source, "r") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        has_cum = SENSOR_CUM_COLUMN in (header or ())
        idx = header_indices(header, SENSOR_COLUMNS + (SENSOR_CUM_COLUMN,) * has_cum, source)
        columns_of = partial(_sensor_columns, idx=idx, raw=True)
        columns, read = _parse_rows(reader, columns_of, lambda row, line: bad.append(line))
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
    drops = {"unparseable": len(bad), "out_of_range": len(ok) - len(columns[2])}
    return columns, has_cum, drops, read


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


def clean_sensor(files: list, jobs: int = 1) -> tuple[SensorTable, dict[str, int], int]:
    """Merge sensor CSVs into one canonical table, a drop report and the
    number of non-blank data rows read.

    Malformed or out-of-range rows are dropped and counted, rows that share
    (subj, drive, time to the millisecond) collapse to one survivor, and the
    cumulative distance column is recomputed for any drive that lacks it in
    any file. A supplied odometer column is trusted but rows that run it
    backwards are dropped.
    """
    drops = {"unparseable": 0, "out_of_range": 0, "duplicate": 0, "cum_dist_regression": 0}
    parsed = _parse_files(_parse_sensor_file, files, jobs)
    for _, _, file_drops, _ in parsed:
        for k, v in file_drops.items():
            drops[k] += v
    rows_in = sum(read for *_, read in parsed)
    if not parsed:
        return SensorTable.from_columns(*[[]] * 8), drops, rows_in

    subj = [s for columns, *_ in parsed for s in columns[0]]
    drive = [d for columns, *_ in parsed for d in columns[1]]
    t, lat, lon, heading, speed, cum = (
        np.concatenate([columns[k] for columns, *_ in parsed]) for k in range(2, 8)
    )
    sizes = [len(columns[2]) for columns, *_ in parsed]
    cumless = np.repeat([not has_cum for _, has_cum, *_ in parsed], sizes)
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
    return SensorTable._grouped(keys, codes[keep], *columns), drops, rows_in


def _parse_detection_file(source) -> tuple[list, dict[str, int], int]:
    """One detection CSV's valid rows as columns (subj, drive, time, class
    code, confidence), and its drop counts and rows read.
    """
    bad = []
    with resolve_uri(source, "r") as handle:
        reader = csv.reader(handle)
        idx = header_indices(next(reader, None), DETECTION_COLUMNS, source)
        columns_of = partial(_detection_columns, idx=idx, raw=True)
        columns, read = _parse_rows(reader, columns_of, lambda row, line: bad.append(line))
    code, conf = columns[3:]
    known = code >= 0
    ok = known & (0.0 <= conf) & (conf <= 1.0)
    drops = {
        "unparseable": len(bad),
        "out_of_range": int((known & ~ok).sum()),
        "unknown_class": int((~known).sum()),
    }
    return _select(columns, ok), drops, read


def clean_cv(
    files: list,
    sensor: SensorTable,
    join_tol_s: float = DEFAULT_JOIN_TOL_S,
    jobs: int = 1,
) -> tuple[DetectionTable, dict[str, int], int]:
    """Position-join detection CSVs to an already-cleaned sensor table.

    Each detection inherits the position of the nearest-in-time sensor
    sample of its (subj, drive); ties break toward the earlier sample.
    Detections farther than ``join_tol_s`` from every sample are dropped.
    Returns the joined table, a drop report and the number of non-blank
    data rows read.
    """
    drops = {"unparseable": 0, "out_of_range": 0, "unknown_class": 0, "no_sensor_match": 0}
    parsed = _parse_files(_parse_detection_file, files, jobs)
    for _, file_drops, _ in parsed:
        for k, v in file_drops.items():
            drops[k] += v
    rows_in = sum(read for *_, read in parsed)
    if not parsed:
        return DetectionTable.from_columns(*[[]] * 7), drops, rows_in

    where = {key: d for d, key in enumerate(sensor.keys)}
    pairs = [zip(columns[0], columns[1]) for columns, *_ in parsed]
    drive = np.fromiter(map(where.get, chain(*pairs), repeat(-1)), np.int64)
    t, code, conf = (np.concatenate([columns[k] for columns, *_ in parsed]) for k in (2, 3, 4))
    seen = drive >= 0
    drive, t, code, conf = drive[seen], t[seen], code[seen], conf[seen]

    # One search for all detections over (drive, seconds) keys: complex
    # numbers sort by (real, imag), and the sensor rows ascend in both.
    seconds, ts = sensor.seconds(), to_seconds(t)
    keys = sensor.codes().astype(complex)
    keys.imag = seconds
    i = np.searchsorted(keys, drive + 1j * ts)
    bounds = np.array(sensor.offsets)
    last = max(len(seconds) - 1, 0)
    before = np.where(i > bounds[drive], np.abs(seconds[np.maximum(i - 1, 0)] - ts), np.inf)
    after = np.where(i < bounds[drive + 1], np.abs(seconds[np.minimum(i, last)] - ts), np.inf)
    # The earlier sample wins exact ties.
    nearest = np.where(after < before, i, i - 1)
    matched = np.minimum(before, after) <= join_tol_s
    drops["no_sensor_match"] += len(seen) - int(matched.sum())

    used, codes = np.unique(drive[matched], return_inverse=True)
    nearest = nearest[matched]
    return DetectionTable._sorted(
        [sensor.keys[d] for d in used.tolist()], codes, t[matched],
        sensor.lat[nearest], sensor.lon[nearest], code[matched], conf[matched],
    ), drops, rows_in


def clean_tables(
    sensor_files: list,
    cv_files: list,
    join_tol_s: float = DEFAULT_JOIN_TOL_S,
    jobs: int = 1,
) -> CleanTables:
    """Run both cleaning passes and bundle the results."""
    sensor, sensor_drops, _ = clean_sensor(sensor_files, jobs=jobs)
    detections, cv_drops, _ = clean_cv(cv_files, sensor, join_tol_s=join_tol_s, jobs=jobs)
    return CleanTables(sensor, detections, {"sensor": sensor_drops, "detections": cv_drops})


def _time_texts(t_us: np.ndarray) -> list[str]:
    """Epoch-us times as format_time_utc renders them: datetime64 also
    truncates to the millisecond and pads the year to four digits.
    """
    times = np.datetime_as_string(t_us.astype("datetime64[us]"), unit="ms").tolist()
    return [text + "Z" for text in times]


# Rows rendered before each write: a few drives' worth at most.
_WRITE_ROWS = 1000


def _write_table(table: _Table, header: tuple[str, ...], dest, cells) -> None:
    """Write ``header``, then each row: its key, then the texts that
    ``cells(start, stop)`` gives, column by column, for rows start to stop.
    """
    key = io.StringIO()
    render = csv.writer(key, lineterminator="")
    with resolve_uri(dest, "w") as handle:
        csv.writer(handle, lineterminator="\n").writerow(header)
        start, prefixes = 0, []
        for (subj, drive), first, stop in table.spans():
            # csv renders (and if need be quotes) the key once per drive.
            key.seek(0)
            key.truncate()
            render.writerow((subj, drive))
            prefixes += [key.getvalue()] * (stop - first)
            if stop - start >= _WRITE_ROWS or stop == len(table):
                # Times, names and float reprs never need quoting, so joining
                # them with commas is what csv.writer would write.
                rows = zip(prefixes, *cells(start, stop))
                handle.write("".join([",".join(row) + "\n" for row in rows]))
                start, prefixes = stop, []


def write_sensor_csv(table: SensorTable, dest: str | Path | IO) -> None:
    times = _time_texts(table.t_us)

    def cells(start, stop):
        floats = (c[start:stop].tolist() for c in table.columns()[1:])
        return [times[start:stop], *(map(repr, f) for f in floats)]

    _write_table(table, SENSOR_COLUMNS + (SENSOR_CUM_COLUMN,), dest, cells)


CLEAN_DETECTION_COLUMNS = ("subj", "drive", "time_utc", "lat", "lon", "object_class", "confidence")


def write_detections_csv(table: DetectionTable, dest: str | Path | IO) -> None:
    times = _time_texts(table.t_us)
    names = [CLASS_NAMES[code] for code in table.class_code.tolist()]

    def cells(start, stop):
        floats = (c[start:stop].tolist() for c in (table.lat, table.lon, table.confidence))
        lat, lon, conf = (map(repr, f) for f in floats)
        return [times[start:stop], lat, lon, names[start:stop], conf]

    _write_table(table, CLEAN_DETECTION_COLUMNS, dest, cells)


def _read_table(source, cls: type, columns: tuple[str, ...], columns_of, what: str):
    """A clean table; raises DataError naming the line of the first bad row."""

    def bad_row(row, line):
        raise DataError(f"bad row in clean {what} table at line {line}: {row!r}")

    with resolve_uri(source, "r") as handle:
        reader = csv.reader(handle)
        idx = header_indices(next(reader, None), columns, source)
        parsed, _ = _parse_rows(reader, partial(columns_of, idx=idx, raw=False), bad_row)
    return cls.from_columns(*parsed)


def read_clean_sensor(source: str | Path | IO) -> SensorTable:
    """Load a clean sensor table; raises DataError on any anomaly.

    Blank lines are skipped. A row that lacks a column, or holds a value
    that does not parse or a position out of range, raises DataError
    naming its line.
    """
    columns = SENSOR_COLUMNS + (SENSOR_CUM_COLUMN,)
    return _read_table(source, SensorTable, columns, _sensor_columns, "sensor")


def read_clean_detections(source: str | Path | IO) -> DetectionTable:
    """Load a clean detection table; raises DataError on any anomaly.

    Blank lines are skipped. A row that lacks a column, or holds a value
    that does not parse, a position out of range, or what ``clean_cv``
    never writes (an empty subj, an object class outside
    ``OBJECT_CLASSES``, a confidence outside [0, 1]), raises DataError
    naming its line.
    """
    columns = CLEAN_DETECTION_COLUMNS
    return _read_table(source, DetectionTable, columns, _detection_columns, "detection")
