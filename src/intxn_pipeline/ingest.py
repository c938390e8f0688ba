"""Clean and merge per-participant sensor and detection files.

Study inputs arrive as one sensor CSV and one computer-vision CSV per
participant. This module merges them into two study-wide tables with a
canonical (subj, drive, time) order, drops malformed rows instead of
failing, and accounts for every dropped row in a drop report.

Both tables, ``SensorTable`` and ``DetectionTable``, are numpy columns in the
Arrow columnar layout (https://arrow.apache.org/docs/format/Columnar.html).
They are the only form the rows take: cleaning, writing, reading and the
later stages work on arrays, and no code builds a row back into an object.

Each table class declares its CSV layout (header, raw columns and each
column's kind) once, so one parser reads raw and clean files of both
tables and one writer writes both. The same parser reads the trajectory
table and, in the raw layout, the video and demographics sidecars.

The parser reads a file a chunk of lines at a time. numpy's C tokenizer,
``np.loadtxt``, reads each chunk into typed columns, and a clean-form
time column parses from its digits. A chunk goes through the csv.reader
row path instead when it holds a quote, a NUL or only blank lines, when
loadtxt rejects it (a short row, a value that is not a float, an embedded
line break), or when one of its rows does not parse or fails a check. The
row path counts, drops and names bad rows by their line, so only such a
chunk costs two parses, and either path gives the same columns.

As in Arrow's dictionary encoding, each distinct value is parsed or
rendered once, not once per row: a text column's texts once per chunk,
the drive keys from integer codes per column, a write chunk's float
``repr`` once per bit pattern, and a time's date, hour and minute once
per distinct minute. This pays where values repeat, as subj, drive and
the minute always do, and as the floats do in synthetic drives; a float
column with no repeats renders about as fast as one ``repr`` per row.
"""

from __future__ import annotations

import csv
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, fields, replace
from datetime import datetime, timedelta, timezone
from functools import partial
from itertools import chain, compress, islice, repeat
from pathlib import Path
from typing import IO, Callable, ClassVar, Iterable, Iterator

import numpy as np

from .errors import DataError, HeaderMismatchError
from .geo import haversine_distances_ft
from .storage import WRITE_ROWS, resolve_uri, write_csv

SENSOR_COLUMNS = ("subj", "drive", "time_utc", "lat", "lon", "heading_deg", "speed_fps")
SENSOR_CUM_COLUMN = "cum_dist_ft"
DETECTION_COLUMNS = ("subj", "drive", "time_utc", "object_class", "confidence")
CLEAN_DETECTION_COLUMNS = ("subj", "drive", "time_utc", "lat", "lon", "object_class", "confidence")
OBJECT_CLASSES = ("stop_sign", "signal_state")
# Object classes in name order: a class code sorts as its name does.
CLASS_NAMES = tuple(sorted(OBJECT_CLASSES))
_CLASS_CODE = {name: k for k, name in enumerate(CLASS_NAMES)}

# Detections are joined to the nearest-in-time sensor sample of the same
# (subj, drive); beyond this gap they are dropped.
DEFAULT_JOIN_TOL_S = 0.5

EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_US = timedelta(microseconds=1)

# What converting one bad CSV value raises; a short row raises IndexError.
_BAD_VALUE = (IndexError, OverflowError, ValueError)


def parse_time_utc(text: str) -> datetime:
    """Parse an ISO-8601 timestamp (Z or explicit offset) to aware UTC."""
    # Python 3.11's fromisoformat stops reading an offset at a NUL, so it
    # would accept "...Z\0junk".
    if "\0" in text:
        raise ValueError(f"NUL in time {text!r}")
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


def _sorted_codes(values) -> tuple[list, np.ndarray]:
    """The sorted distinct values of texts or ints and each one's index
    among them, looked up once per run of equal values."""
    column = np.asarray(values, dtype=object)
    head = np.ones(len(column), dtype=bool)
    head[1:] = column[1:] != column[:-1]
    heads = column[head].tolist()
    distinct = sorted(dict.fromkeys(heads))
    index = dict(zip(distinct, range(len(distinct))))
    codes = np.fromiter(map(index.__getitem__, heads), np.int64, len(heads))
    return distinct, codes[np.cumsum(head) - 1]


def _drive_codes(subj, drive) -> tuple[list[tuple[str, int]], np.ndarray]:
    """The sorted distinct (subj, drive) keys and each row's index among them.

    Subjects and drives each get sorted codes, so a key's combined code
    sorts as the key does.
    """
    subjs, s = _sorted_codes(subj)
    drives, d = _sorted_codes(drive)
    pairs, codes = np.unique(s * len(drives) + d, return_inverse=True)
    return [(subjs[p // len(drives)], drives[p % len(drives)]) for p in pairs.tolist()], codes


def to_seconds(us: np.ndarray) -> np.ndarray:
    """Seconds of microsecond counts, each as ``timedelta.total_seconds()`` gives it."""
    # int64 to float64 is exact below 2**53 us (years 1685 to 2255).
    if len(us) and max(-int(us.min()), int(us.max())) >= 2**53:
        return np.array([n / 1_000_000 for n in us.tolist()])
    return us / 1_000_000


def _int64(text: str) -> int:
    """``int(text)``; raises OverflowError outside the int64 range."""
    value = int(text)
    if not -(2**63) <= value < 2**63:
        raise OverflowError(f"{text!r} is outside the int64 range")
    return value


def _per_text(parse, texts, strip: bool, bad: np.ndarray):
    """``parse(texts, bad)`` run once per distinct text, stripped first if
    ``strip``: a text that does not parse marks every row holding it ``bad``."""
    if not len(texts):
        return parse(texts, bad)
    distinct, inverse = _sorted_codes(texts)
    failed = np.zeros(len(distinct), dtype=bool)
    values = parse(tuple(map(str.strip, distinct)) if strip else tuple(distinct), failed)
    bad |= failed[inverse]
    if isinstance(values, np.ndarray):
        return values[inverse]
    return np.array(values, dtype=object)[inverse].tolist()


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


# The clean tables' time form; zeros stand for digits.
_CANONICAL_TIME = np.array(list(map(ord, "0000-00-00T00:00:00.000Z")), dtype=np.uint32)
# How far a character of a canonical time may lie above the form's: 9 at a
# digit, 0 at a separator.
_TIME_SPAN = np.where(_CANONICAL_TIME == ord("0"), 9, 0).astype(np.uint32)
# The digit spans of year, month, day, hour, minute, second and millisecond.
_TIME_FIELDS = ((0, 4), (5, 7), (8, 10), (11, 13), (14, 16), (17, 19), (20, 23))
# Per two-digit month, its days in a common year and the days of the year
# before it; 0 for the months 0 and 13 to 99.
_MONTH_DAYS = np.zeros(100, dtype=np.int64)
_MONTH_DAYS[1:13] = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)
_DAYS_BEFORE_MONTH = np.zeros(100, dtype=np.int64)
_DAYS_BEFORE_MONTH[2:13] = np.cumsum(_MONTH_DAYS[1:12])
_EPOCH_ORDINAL = EPOCH.toordinal()
# The digit characters of each number below 10,000, four to a row.
_DIGITS = (np.arange(10_000)[:, None] // 10 ** np.arange(3, -1, -1) % 10 + ord("0")).astype(np.uint32)


def _canonical_us(text: np.ndarray) -> np.ndarray | None:
    """Epoch microseconds of a "<U24" column wholly in the clean tables'
    form, YYYY-MM-DDTHH:MM:SS.mmmZ, computed from its digits; None if a time
    is not in that form or names a time that fromisoformat rejects: year 0,
    a month outside 1-12, a day outside its month, hour 24 and up, minute or
    second 60 and up.
    """
    digits = text.view(np.uint32).reshape(len(text), 24) - _CANONICAL_TIME
    if not (digits <= _TIME_SPAN).all():
        return None
    year, month, day, hour, minute, second, ms = (  # int64: uint32 digits @ int64 places
        digits[:, start:stop] @ 10 ** np.arange(stop - start - 1, -1, -1)
        for start, stop in _TIME_FIELDS
    )
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    if not (
        (year >= 1) & (day >= 1) & (day <= _MONTH_DAYS[month] + (leap & (month == 2)))
        & (hour < 24) & (minute < 60) & (second < 60)
    ).all():
        return None
    # The proleptic Gregorian ordinal of the date, as date.toordinal gives it.
    y = year - 1
    ordinal = y * 365 + y // 4 - y // 100 + y // 400
    ordinal += _DAYS_BEFORE_MONTH[month] + (leap & (month > 2)) + day
    seconds = ((ordinal - _EPOCH_ORDINAL) * 24 + hour) * 3600 + minute * 60 + second
    return seconds * 1_000_000 + ms * 1000


def _times_us(texts: tuple[str, ...] | np.ndarray, bad: np.ndarray) -> np.ndarray:
    """Epoch microseconds of ISO timestamps, as parse_time_utc reads them.

    A column of exact texts wholly in the clean tables' form parses by
    ``_canonical_us``. Any other column goes through parse_time_utc one time
    at a time, and a time it rejects marks its row ``bad``.
    """
    text = np.asarray(texts, dtype=str)
    us = _canonical_us(text) if text.dtype == np.dtype("<U24") else None
    if us is not None:
        return us
    return np.array(_each(lambda s: to_us(parse_time_utc(s)), texts, bad), dtype=np.int64)


def _time_texts(t_us: np.ndarray) -> list[str]:
    """Epoch-us times as format_time_utc renders them, cut to the
    millisecond: the inverse of ``_canonical_us``. The date, hour and
    minute are rendered once per distinct minute, the seconds and
    milliseconds from digits.
    """
    minutes, ms = np.divmod(np.asarray(t_us, dtype=np.int64) // 1000, 60_000)
    distinct, inverse = np.unique(minutes, return_inverse=True)
    text = np.tile(_CANONICAL_TIME, (len(distinct), 1))
    minute_texts = np.datetime_as_string(distinct.astype("datetime64[m]"), unit="m")
    text[:, :16] = minute_texts.astype("<U16").view(np.uint32).reshape(-1, 16)
    text = text[inverse]
    text[:, 17:19] = _DIGITS[ms // 1000, 2:]
    text[:, 20:23] = _DIGITS[ms % 1000, 1:]
    return text.view("<U24").ravel().tolist()


def _per_value(fn, column: np.ndarray) -> list:
    """``fn`` of each float of ``column``, called once per distinct value.

    Values are told apart by their bits, so 0.0 and -0.0, or NaNs of other
    payloads, each keep their own ``fn``. A column with no repeats skips
    the table: building it costs more than the ``fn`` calls it saves.
    """
    bits = column.view(np.int64)
    ordered = np.sort(bits)
    if (ordered[1:] != ordered[:-1]).all():
        return list(map(fn, column.tolist()))
    values, inverse = np.unique(bits, return_inverse=True)
    return np.array(list(map(fn, values.view(float).tolist())), dtype=object)[inverse].tolist()


# Column kinds, each (dtype, parse, render, read): parse turns a CSV
# column's texts into a column, marking ``bad`` the rows whose value does
# not parse, and render turns a slice of the column back into texts. The
# writer renders subj and drive as the row key. A class outside CLASS_NAMES
# parses as -1, and an _INT64 value outside int64 does not parse. A raw
# file's _STRIPPED columns are stripped before they parse. ``read`` is the
# dtype np.loadtxt reads the texts as: a kind read as its own dtype needs no
# parse, and "<U25" holds one character more than a canonical time, so a
# longer text shows rather than being cut to look canonical. No kind is
# read as an integer: numpy 2.4.6 crashes (SIGSEGV) after repeated int64
# conversion errors on non-BMP text, as 50,000 calls of
# np.loadtxt(io.StringIO("\U00105da6¼\n"), delimiter=",", dtype=np.int64,
# comments=None), each raising ValueError, did in 4 of 6 runs; and int()
# keeps drives beyond int64.
_TEXT = (None, lambda texts, bad: texts, None, object)
_INT = (None, partial(_each, int), None, object)
_INT64 = (
    np.int64,
    lambda texts, bad: np.array(_each(_int64, texts, bad), dtype=np.int64),
    None,
    object,
)
_TIME = (np.int64, _times_us, _time_texts, "<U25")
_FLOAT = (
    float,
    lambda texts, bad: np.array(_each(float, texts, bad), dtype=float),
    partial(_per_value, repr),
    float,
)
_CLASS = (
    np.int64,
    lambda names, bad: np.fromiter(map(_CLASS_CODE.get, names, repeat(-1)), np.int64, len(names)),
    lambda codes: list(map(CLASS_NAMES.__getitem__, codes.tolist())),
    object,
)
_STRIPPED = ("subj", "object_class", "uri", "age", "gender")

# Range checks, in the order they run: per CSV column, which rows of its
# parsed column pass, and the drop reason of a row it is the first to fail.
_CHECKS = {
    "subj": (lambda subj: np.fromiter(map(bool, subj), bool, len(subj)), "unparseable"),
    "object_class": (lambda code: code >= 0, "unknown_class"),
    "lat": (lambda lat: (-90.0 <= lat) & (lat <= 90.0), "out_of_range"),
    "lon": (lambda lon: (-180.0 <= lon) & (lon <= 180.0), "out_of_range"),
    "heading_deg": (lambda heading: (0.0 <= heading) & (heading < 360.0), "out_of_range"),
    "speed_fps": (lambda speed: (0.0 <= speed) & np.isfinite(speed), "out_of_range"),
    SENSOR_CUM_COLUMN: (np.isfinite, "out_of_range"),
    "confidence": (lambda conf: (0.0 <= conf) & (conf <= 1.0), "out_of_range"),
    "fps": (lambda fps: fps > 0.0, "out_of_range"),
}


@dataclass(eq=False)
class _Table:
    """Rows as read-only numpy columns, sorted by (subj, drive), then ``SORT``.

    Drive key ``keys[d]`` (ascending, each once) owns rows
    ``offsets[d]:offsets[d + 1]``. Keys stay Python objects, so a subj keeps
    its exact text and a drive any int. ``COLUMNS`` names the row columns,
    in CSV order, with their kinds; time is ``t_us``, int64 epoch
    microseconds. A contiguous slice ``table[i:j]`` is a view; there is no
    per-row access. Stages share one table, so the columns of a table
    built here or viewed from one are read-only.
    """

    COLUMNS: ClassVar[dict[str, tuple]]
    SORT: ClassVar[tuple[str, ...]]
    # The CSV layout. A clean file holds HEADER: subj, drive, then a column
    # per row column, of that column's kind. A raw file must hold RAW and
    # may hold OPTIONAL (NaN where it does not); its rows must pass the
    # check of each column it holds. A clean file's rows must pass the
    # checks of the CLEAN_CHECKED columns.
    HEADER: ClassVar[tuple[str, ...]]
    RAW: ClassVar[tuple[str, ...]]
    OPTIONAL: ClassVar[tuple[str, ...]] = ()
    CLEAN_CHECKED: ClassVar[tuple[str, ...]]

    keys: list[tuple[str, int]]
    offsets: list[int]

    @classmethod
    def from_columns(cls, subj, drive, *columns, **extra):
        """A table of rows given column by column in any order; ties keep
        their order. ``extra`` are the fields of the class other than columns."""
        keys, codes = _drive_codes(subj, drive)
        return cls._sorted(keys, codes, *columns, **extra)

    @classmethod
    def _sorted(cls, keys: list, codes: np.ndarray, *columns, **extra):
        """A table of rows in any order, each given its index into ``keys``;
        ties keep their order."""
        columns = [np.asarray(c, dtype=k[0]) for c, k in zip(columns, cls.COLUMNS.values())]
        named = dict(zip(cls.COLUMNS, columns))
        order = np.lexsort([named[n] for n in reversed(cls.SORT)] + [codes])
        return cls._grouped(keys, codes[order], *(c[order] for c in columns), **extra)

    @classmethod
    def _grouped(cls, keys: list, codes: np.ndarray, *columns: np.ndarray, **extra):
        """A table of rows sorted by ``codes``, each row's index into ``keys``.

        Every key must own at least one row.
        """
        for column in columns:
            column.flags.writeable = False
        offsets = [0, *np.cumsum(np.bincount(codes, minlength=len(keys))).tolist()]
        return cls(keys, offsets, *columns, **extra)

    @classmethod
    def kinds(cls) -> dict[str, tuple | None]:
        """The kind of each CSV column by name; None for one the file must
        hold but the reader skips."""
        return dict(zip(cls.HEADER, (_TEXT, _INT, *cls.COLUMNS.values())))

    def __len__(self) -> int:
        return self.offsets[-1]

    def columns(self) -> list[np.ndarray]:
        return [getattr(self, n) for n in self.COLUMNS]

    def codes(self) -> np.ndarray:
        """Each row's index into ``keys``."""
        return np.repeat(np.arange(len(self.keys)), np.diff(self.offsets))

    def key_texts(self) -> list[list[str]]:
        """Each row's subj and drive as texts, rendered once per drive."""
        counts = np.diff(self.offsets).tolist()
        keys = zip(*self.keys) if self.keys else ((), ())
        return [[*chain.from_iterable(map(repeat, map(str, c), counts))] for c in keys]

    def chunks(self, render: Callable) -> Iterator:
        """``render`` of each run of whole drives of ``WRITE_ROWS`` rows or more
        (the last may be shorter): a value repeated by drive renders once a run."""
        start = 0
        for stop in self.offsets[1:]:
            if stop - start >= WRITE_ROWS or stop == len(self):
                yield render(self[start:stop])
                start = stop

    def search(self, column: np.ndarray, drives: np.ndarray, values: np.ndarray, side="left"):
        """Where each value would go among the rows of its drive, by
        ``column``, which must ascend within each drive: np.searchsorted in
        ``column[offsets[d]:offsets[d + 1]]``, plus ``offsets[d]``.

        One search serves every drive: complex numbers sort by (real, imag),
        and the (drive, column) pairs ascend in both. Values compare as
        float64, so int64 ones compare exactly below 2**53.
        """
        keys = self.codes().astype(complex)
        keys.imag = column
        pairs = np.array(drives, dtype=complex)
        pairs.imag = values
        return np.searchsorted(keys, pairs, side)

    def seconds(self) -> np.ndarray:
        """Epoch seconds of each row, equal to ``datetime.timestamp()``."""
        return to_seconds(self.t_us)

    def take(self, rows: np.ndarray):
        """The table of the rows at ascending indices, or where a mask is true."""
        used, codes = np.unique(self.codes()[rows], return_inverse=True)
        keys = [self.keys[k] for k in used.tolist()]
        return self._grouped(keys, codes, *(c[rows] for c in self.columns()))

    def __getitem__(self, i: slice):
        if not isinstance(i, slice):
            raise TypeError(f"{type(self).__name__} indices must be contiguous slices")
        start, stop, step = i.indices(len(self))
        if step != 1:
            raise ValueError(f"{type(self).__name__} slices must be contiguous")
        rows = {n: c[start:stop] for n, c in zip(self.COLUMNS, self.columns())}
        if stop <= start:
            return replace(self, keys=[], offsets=[0], **rows)
        first = bisect_right(self.offsets, start) - 1
        last = bisect_left(self.offsets, stop)
        inner = [b - start for b in self.offsets[first + 1 : last]]
        return replace(self, keys=self.keys[first:last], offsets=[0, *inner, stop - start], **rows)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(
            np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
            for a, b in ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        )


@dataclass(eq=False)
class SensorTable(_Table):
    """Sensor rows, sorted by (subj, drive, time)."""

    COLUMNS = {
        "t_us": _TIME, "lat": _FLOAT, "lon": _FLOAT, "heading": _FLOAT, "speed": _FLOAT,
        "cum": _FLOAT,
    }
    SORT = ("t_us",)
    HEADER = SENSOR_COLUMNS + (SENSOR_CUM_COLUMN,)
    RAW = SENSOR_COLUMNS
    OPTIONAL = (SENSOR_CUM_COLUMN,)
    # The clean reader checks positions only, and loads an empty subj.
    CLEAN_CHECKED = ("lat", "lon")

    t_us: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    heading: np.ndarray
    speed: np.ndarray
    cum: np.ndarray


@dataclass(eq=False)
class DetectionTable(_Table):
    """Detection rows, sorted by (subj, drive, time, class, confidence).
    ``class_code`` indexes ``CLASS_NAMES``, so a code sorts as its name does.
    """

    COLUMNS = {
        "t_us": _TIME, "lat": _FLOAT, "lon": _FLOAT, "class_code": _CLASS, "confidence": _FLOAT
    }
    SORT = ("t_us", "class_code", "confidence")
    HEADER = CLEAN_DETECTION_COLUMNS
    RAW = DETECTION_COLUMNS
    # A clean file holds only what clean_cv writes.
    CLEAN_CHECKED = CLEAN_DETECTION_COLUMNS

    t_us: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    class_code: np.ndarray
    confidence: np.ndarray


def header_indices(header: list[str] | None, columns: tuple[str, ...], source) -> list[int]:
    """Where each of ``columns`` sits in ``header``; raises HeaderMismatchError."""
    missing = [c for c in columns if c not in (header or ())]
    if missing:
        raise HeaderMismatchError(str(getattr(source, "name", source)), missing)
    # A repeated column name reads its last occurrence, as DictReader did.
    where = {c: i for i, c in enumerate(header)}
    return [where[c] for c in columns]


# Data lines parsed at once. A chunk with a bad row is parsed twice, by
# loadtxt up to that row and then by the row path, so fewer lines make a
# bad row cheaper; more make the per-chunk numpy calls cheaper. With 2,048
# a raw sensor file of 4,800 rows whose row 4,000 is bad cleans faster
# than by the csv.reader path alone; with 4,096 it cleans slower.
_CHUNK_ROWS = 2048


def _row_columns(fields: list[tuple], rows: list[list[str]], bad: np.ndarray) -> list:
    """Columns of CSV rows, one per (index, kind, strip) field: the texts
    at that index, stripped if ``strip``, through the kind's parse. A short
    row reads as empty texts; a value that does not parse marks its row
    ``bad``."""
    width = max(i for i, *_ in fields) + 1
    if min(map(len, rows), default=width) < width:
        rows = [row if len(row) >= width else [""] * width for row in rows]
    cols = list(zip(*rows)) or [()] * width
    return [
        _per_text(kind[1], cols[i], strip, bad) if kind[3] is object else kind[1](cols[i], bad)
        for i, kind, strip in fields
    ]


def _failures(columns: list, bad: np.ndarray, checks: list[tuple]) -> np.ndarray:
    """Per row, whether it does not parse, then whether it fails each check."""
    return np.array([bad, *(~test(columns[k]) for k, test, _ in checks)])


def _parse_chunk(chunk: list[str], fields: list[tuple], checks: list[tuple]) -> list | None:
    """The ``_row_columns`` of CSV data lines, tokenised by np.loadtxt; None
    if loadtxt rejects them, or if a row does not parse or fails a check.

    Lines holding a quote are left to the row path, so no quoted field,
    which may run over lines, is cut at a chunk's end. So are lines holding
    a NUL, which a str field drops from a text's end (Python 3.10's
    fromisoformat rejects "...Z\\0", 3.11's accepts it), and blank lines
    only, of which loadtxt warns.
    """
    text = "".join(chunk)
    if '"' in text or "\0" in text or not text.strip("\r\n"):
        return None
    dtype = np.dtype([(f"f{k}", kind[3]) for k, (_, kind, _) in enumerate(fields)])
    try:
        table = np.loadtxt(
            chunk, dtype=dtype, delimiter=",", quotechar='"', comments=None,
            usecols=[i for i, *_ in fields], ndmin=1,
        )
    except ValueError:
        return None
    bad = np.zeros(len(table), dtype=bool)
    columns = []
    for name, (_, kind, strip) in zip(dtype.names, fields):
        column = table[name].copy()  # a field's view would keep the whole table
        if kind[3] is object:
            column = _per_text(kind[1], column, strip, bad)
        elif kind[3] != kind[0]:
            # loadtxt cuts a text to the field's width: a text that fills it
            # may be cut, and the rest fit one character less.
            width = column.dtype.itemsize // 4
            if (np.char.str_len(column) == width).any():
                return None
            column = kind[1](column.astype(f"<U{width - 1}"), bad)
        columns.append(column)
    return None if _failures(columns, bad, checks).any() else columns


def _parse_rows(reader, stop: int, first: int, fields: list[tuple], checks: list[tuple], bad_row):
    """The ``_row_columns`` of the non-blank rows a csv reader gives until
    it has read ``stop`` lines, and how many rows it gave; its line k is
    the file's line ``first + k``.

    ``checks`` are (column index, test, reason), in the order they run. A
    row that does not parse or fails a test goes to ``bad_row(reason, line,
    row)``, in file order, with "unparseable" or the reason of the first
    test it fails, and is left out.
    """
    rows, lines = [], []
    for row in reader:
        if row:
            rows.append(row)
            lines.append(first + reader.line_num)
        if reader.line_num >= stop:
            break
    bad = np.zeros(len(rows), dtype=bool)
    columns = _row_columns(fields, rows, bad)
    fails = _failures(columns, bad, checks)
    failed = fails.any(axis=0)
    if failed.any():
        reasons = ["unparseable", *(reason for *_, reason in checks)]
        which = fails.argmax(axis=0).tolist()
        for k in np.flatnonzero(failed).tolist():
            bad_row(reasons[which[k]], lines[k], rows[k])
        keep = (~failed).tolist()
        columns[:2] = [list(compress(c, keep)) for c in columns[:2]]
        columns[2:] = [c[~failed] for c in columns[2:]]
    return columns, len(rows)


def _concat(parts: list[list]) -> list:
    """Columns of several parts, one after another: an array where the
    first part's column is one, else a list."""
    return [
        np.concatenate(cols) if isinstance(cols[0], np.ndarray) else list(chain.from_iterable(cols))
        for cols in zip(*parts)
    ]


def _parse_csv(source, cls: type[_Table], raw: bool, bad_row) -> tuple[dict, int]:
    """The columns of a raw or clean CSV of ``cls`` rows, by name, and how
    many non-blank data rows it holds.

    A clean file's columns are ``cls.HEADER``, less those of no kind, with
    the ``CLEAN_CHECKED`` ones checked. A raw file's are ``cls.RAW`` and
    those of ``cls.OPTIONAL`` it holds, all checked, the ``_STRIPPED`` ones
    stripped; of ``cls`` the raw layout reads only those two and
    ``kinds()``. Each row that does not parse or fails a check goes to
    ``bad_row(reason, line, row)`` and is left out.

    The data lines parse ``_CHUNK_ROWS`` at a time by ``_parse_chunk``. A
    chunk it rejects goes through csv.reader and ``_parse_rows``, which
    reads on past the chunk's last line to end a quoted field.
    """
    with resolve_uri(source, "r") as handle:
        lines = iter(handle)
        reader = csv.reader(lines)
        header = next(reader, None)
        optional = tuple(c for c in cls.OPTIONAL if c in (header or ()))
        names = cls.RAW + optional if raw else cls.HEADER
        idx = header_indices(header, names, source)
        kinds = cls.kinds()
        used = [(i, n) for i, n in zip(idx, names) if kinds[n]]
        names = [n for _, n in used]
        fields = [(i, kinds[n], raw and n in _STRIPPED) for i, n in used]
        checked = names if raw else cls.CLEAN_CHECKED
        checks = [(names.index(c), *_CHECKS[c]) for c in _CHECKS if c in checked]
        # The columns of no rows, so that a file without data rows has columns.
        parts, read, line = [_row_columns(fields, [], np.zeros(0, dtype=bool))], 0, reader.line_num
        while chunk := list(islice(lines, _CHUNK_ROWS)):
            columns = _parse_chunk(chunk, fields, checks)
            if columns is None:
                reader = csv.reader(chain(chunk, lines))
                columns, rows = _parse_rows(reader, len(chunk), line, fields, checks, bad_row)
                line += reader.line_num
            else:
                rows = len(columns[0])
                line += len(chunk)
            parts.append(columns)
            read += rows
    return dict(zip(names, _concat(parts))), read


def _parse_files(cls: type[_Table], files: list, drops: dict) -> tuple[list, int]:
    """The rows of raw CSVs of ``cls``, file after file, as columns in ``RAW``
    then ``OPTIONAL`` order, and how many were read; ``drops`` counts each
    dropped row under its reason."""

    def bad_row(reason, line, row):
        drops[reason] += 1

    parsed = [_parse_csv(f, cls, True, bad_row) for f in files]
    layout = cls.RAW + cls.OPTIONAL  # an optional column a file lacks reads as NaN
    parts = [
        [named.get(c, np.full(len(named["subj"]), np.nan)) for c in layout] for named, _ in parsed
    ]
    return _concat(parts), sum(read for _, read in parsed)


def _odometer(cum: np.ndarray, lat: np.ndarray, lon: np.ndarray, spans: Iterable) -> None:
    """Set ``cum`` over each (start, stop) span to the running sum, from 0, of
    the haversine steps between its positions, in feet.

    Bit-identical to adding ``geo.haversine_distance_ft`` step by step: the
    steps are ``geo.haversine_distances_ft``, and np.cumsum adds in sequence.
    """
    for start, stop in spans:
        lat_, lon_ = lat[start:stop], lon[start:stop]
        steps = haversine_distances_ft(lat_[:-1], lon_[:-1], lat_[1:], lon_[1:])
        cum[start:stop] = np.cumsum(np.concatenate(([0.0], steps)))


def clean_sensor(files: list) -> tuple[SensorTable, dict[str, int], int]:
    """Merge sensor CSVs into one canonical table, a drop report and the
    number of non-blank data rows read.

    Malformed or out-of-range rows are dropped and counted, rows that share
    (subj, drive, time to the millisecond) collapse to one survivor, and the
    cumulative distance column is recomputed for any drive that lacks it in
    any file. A supplied odometer column is trusted but rows that run it
    backwards are dropped.
    """
    drops = {"unparseable": 0, "out_of_range": 0, "duplicate": 0, "cum_dist_regression": 0}
    if not files:
        return SensorTable.from_columns(*[[]] * 8), drops, 0

    columns, rows_in = _parse_files(SensorTable, files, drops)
    subj, drive, t, lat, lon, heading, speed, cum = columns
    keys, codes = _drive_codes(subj, drive)
    # Drives seen in any file without the odometer column, which reads as NaN
    # (a non-finite odometer is out of range), get it recomputed.
    recompute = np.zeros(len(keys), dtype=bool)
    recompute[codes[np.isnan(cum)]] = True

    # The full-row sort makes the dedupe winner independent of file order;
    # a NaN odometer sorts last.
    order = np.lexsort((cum, speed, heading, lon, lat, t, codes))
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


def clean_cv(
    files: list,
    sensor: SensorTable,
    join_tol_s: float = DEFAULT_JOIN_TOL_S,
) -> tuple[DetectionTable, dict[str, int], int]:
    """Position-join detection CSVs to an already-cleaned sensor table.

    Each detection inherits the position of the nearest-in-time sensor
    sample of its (subj, drive); ties break toward the earlier sample.
    Detections farther than ``join_tol_s`` from every sample are dropped.
    Returns the joined table, a drop report and the number of non-blank
    data rows read.
    """
    drops = {"unparseable": 0, "out_of_range": 0, "unknown_class": 0, "no_sensor_match": 0}
    if not files:
        return DetectionTable.from_columns(*[[]] * 7), drops, 0

    (subj, drive, t, code, conf), rows_in = _parse_files(DetectionTable, files, drops)
    where = {key: d for d, key in enumerate(sensor.keys)}
    drive = np.fromiter(map(where.get, zip(subj, drive), repeat(-1)), np.int64, len(t))
    seen = drive >= 0
    drive, t, code, conf = drive[seen], t[seen], code[seen], conf[seen]

    seconds, ts = sensor.seconds(), to_seconds(t)
    i = sensor.search(seconds, drive, ts)
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
    # The clean table stores milliseconds: order the rows by what it holds,
    # so that reading the file back gives them in the same order.
    return DetectionTable._sorted(
        [sensor.keys[d] for d in used.tolist()], codes, t[matched] // 1000 * 1000,
        sensor.lat[nearest], sensor.lon[nearest], code[matched], conf[matched],
    ), drops, rows_in


def _write_table(table: _Table, dest) -> _Table:
    """Write ``table.HEADER``, then each row: its key, then each of its
    columns rendered by the column's kind. Returns the table as the file
    holds it, its times cut to the millisecond.
    """
    kinds = table.COLUMNS.values()

    def render(part: _Table) -> list:
        return [*part.key_texts(), *(kind[2](c) for kind, c in zip(kinds, part.columns()))]

    write_csv(dest, table.HEADER, table.chunks(render))
    t_us = table.t_us // 1000 * 1000
    t_us.flags.writeable = False
    return replace(table, t_us=t_us)


def write_sensor_csv(table: SensorTable, dest: str | Path | IO) -> SensorTable:
    """Write a clean sensor table; returns what ``read_clean_sensor`` reads back."""
    return _write_table(table, dest)


def write_detections_csv(table: DetectionTable, dest: str | Path | IO) -> DetectionTable:
    """Write a clean detection table; returns the table as the file holds it,
    which is what ``read_clean_detections`` reads back when the rows were in
    order by the millisecond already, as ``clean_cv`` orders them."""
    return _write_table(table, dest)


def _read_table(source, cls: type[_Table], what: str):
    """A clean table; raises DataError naming the line of the first bad row."""

    def bad_row(reason, line, row):
        raise DataError(f"bad row in clean {what} table at line {line}: {row!r}")

    return cls.from_columns(*_parse_csv(source, cls, False, bad_row)[0].values())


def read_clean_sensor(source: str | Path | IO) -> SensorTable:
    """Load a clean sensor table; raises DataError on any anomaly.

    Blank lines are skipped. A row that lacks a column, or holds a value
    that does not parse or a position out of range, raises DataError
    naming its line.
    """
    return _read_table(source, SensorTable, "sensor")


def read_clean_detections(source: str | Path | IO) -> DetectionTable:
    """Load a clean detection table; raises DataError on any anomaly.

    Blank lines are skipped. A row that lacks a column, or holds a value
    that does not parse, a position out of range, or what ``clean_cv``
    never writes (an empty subj, an object class outside
    ``OBJECT_CLASSES``, a confidence outside [0, 1]), raises DataError
    naming its line.
    """
    return _read_table(source, DetectionTable, "detection")
