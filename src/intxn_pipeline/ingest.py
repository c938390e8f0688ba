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

The parser streams the data lines of consecutive files of one header through
one chunker, set up once per header, so a chunk may span files. numpy's C
tokenizer, ``np.loadtxt``, reads each chunk into typed columns; one with a
stray quote, a NUL or a bad row parses again a file at a time, and a file's
part that fails again takes the csv.reader row path, which drops and names
bad rows by their line in their file. A parsed chunk holds no per-row Python
object: floats, int64 epoch microseconds (the date, hour and minute parsed
once per run of rows that share them) and, as in Arrow's dictionary
encoding, an int64 code per row for its (subj, drive) key. The chunks'
columns grow in place, so ``clean_sensor`` peaks at about 1.8x the table it
keeps at 58k rows and 1.4x at 230k (``tracemalloc``). A written table
renders each float's ``repr`` once per bit pattern.
"""

from __future__ import annotations

import csv
import re
from bisect import bisect_left, bisect_right
from contextlib import ExitStack
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


def to_us(dt: datetime) -> int:
    """Epoch microseconds of an aware datetime, exactly."""
    return (dt - EPOCH) // _US


def _codes(index: dict, key: Callable, bad: np.ndarray, *columns) -> np.ndarray:
    """Each row's code in ``index``, which maps keys to codes and gains those
    first seen here. A row's key is ``key`` of its values in ``columns``,
    called once per run of rows that hold the same ones; a run whose key
    raises ValueError marks its rows ``bad``, with code -1."""
    columns = [np.asarray(c, dtype=object) for c in columns]
    head = np.ones(len(bad), dtype=bool)
    head[1:] = np.any([c[1:] != c[:-1] for c in columns], axis=0)

    def code(*values) -> int:
        try:
            return index.setdefault(key(*values), len(index))
        except ValueError:
            return -1

    codes = np.fromiter(map(code, *(c[head].tolist() for c in columns)), np.int64)
    bad |= (codes := codes[np.cumsum(head) - 1]) < 0
    return codes


def _file_key(strip: bool, check: bool, subj: str, drive: str) -> tuple[str, int]:
    """A file's subj and drive texts as a key, subj stripped if ``strip``;
    ValueError (from int) if the drive does not parse, or ``check`` and subj is empty."""
    subj = subj.strip() if strip else subj
    return subj, int(drive if subj or not check else "")


def _sorted_keys(keys: Iterable, codes: np.ndarray) -> tuple[list, np.ndarray]:
    """The keys that ``codes`` index into ``keys``, ascending, and each
    code's index among them."""
    keys = list(keys)
    used = np.flatnonzero(np.bincount(codes, minlength=len(keys))).tolist()
    order = sorted(used, key=keys.__getitem__)
    rank = np.zeros(len(keys), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return [keys[k] for k in order], rank[codes]


def _ascending(keys: list, last=np.greater_equal) -> bool:
    """Whether no row sorts below the one before it by ``keys``, primary last
    as np.lexsort takes them, the first by ``last``; NaN is out of order."""
    rising = last(keys[0][1:], keys[0][:-1])
    for c in keys[1:]:
        rising = (c[1:] > c[:-1]) | (c[1:] == c[:-1]) & rising
    return bool(rising.all())


def _drive_codes(subj, drive) -> tuple[list[tuple[str, int]], np.ndarray]:
    """The sorted distinct (subj, drive) keys and each row's index among them."""
    index = {}
    codes = _codes(index, lambda *key: key, np.zeros(len(subj), dtype=bool), subj, drive)
    return _sorted_keys(index, codes)


def to_seconds(us: np.ndarray) -> np.ndarray:
    """Seconds of microsecond counts, each as ``timedelta.total_seconds()`` gives it."""
    # int64 to float64 is exact below 2**53 us (years 1685 to 2255).
    if len(us) and max(-int(us.min()), int(us.max())) >= 2**53:
        return np.array([n / 1_000_000 for n in us.tolist()])
    return us / 1_000_000


def search_runs(column: np.ndarray, lo, hi, values, side="left") -> np.ndarray:
    """``np.searchsorted(column[lo[i]:hi[i]], values[i], side) + lo[i]`` for
    every i, each run ascending: one branch-free bisection of all queries at
    once (Khuong & Morin, ACM JEA 2017), about log2 of the longest run
    passes, comparing in the column's own dtype."""
    below = np.less if side == "left" else np.less_equal
    at = np.array(lo, dtype=np.int64)
    n = np.maximum(np.asarray(hi) - at, 0)  # the answer lies in [at, at + n]
    while n.max(initial=0) > 0:
        half = n // 2
        go = (n > 0) & below(column[np.minimum(at + half, len(column) - 1)], values)
        at += go * (half + 1)
        n = np.where(go, n - half - 1, half)
    return at


def _int64(text: str) -> int:
    """``int(text)``; raises OverflowError outside the int64 range."""
    value = int(text)
    if not -(2**63) <= value < 2**63:
        raise OverflowError(f"{text!r} is outside the int64 range")
    return value


def _per_text(parse, texts, strip: bool, bad: np.ndarray):
    """``parse(texts, bad)`` run once per distinct text, stripped first if
    ``strip``: a text that does not parse marks every row holding it ``bad``."""
    index = {}
    inverse = _codes(index, str.strip if strip else str, bad, texts)
    failed = np.zeros(len(index), dtype=bool)
    values = parse(tuple(index), failed)
    bad |= failed[inverse]
    return values[inverse]


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
# digit, 5 at the tens of the minute and of the second, 0 at a separator.
_TIME_SPAN = np.where(_CANONICAL_TIME == ord("0"), 9, 0).astype(np.uint32)
_TIME_SPAN[[14, 17]] = 5
# The place value of each character of a canonical ":SS.mmmZ" in SSmmm.
_SECOND_PLACES = np.array([0, 1e4, 1e3, 0, 100, 10, 1, 0])
# The digit characters of each number below 10,000, four to a row.
_DIGITS = (np.arange(10_000)[:, None] // 10 ** np.arange(3, -1, -1) % 10 + ord("0")).astype(np.uint32)


def _canonical_us(text: np.ndarray) -> np.ndarray | None:
    """Epoch microseconds of a "<U24" column wholly in the clean tables'
    form, YYYY-MM-DDTHH:MM:SS.mmmZ; None if a time is not in that form or
    names a time that fromisoformat rejects: year 0, a month outside 1-12,
    a day outside its month, hour 24 and up, minute or second 60 and up.
    numpy parses the date, hour and minute once per run of rows that share
    them, as ``_time_texts`` renders them; each row's seconds and
    milliseconds come from its digits. The column may be strided.
    """
    chars = text[:, None].view(np.uint32)
    head = np.ones(len(chars), dtype=bool)
    head[1:] = (chars[1:, :16] != chars[:-1, :16]).any(axis=1)
    minutes, tail = chars[head, :16], chars[:, 16:] - _CANONICAL_TIME[16:]
    if not (
        (tail <= _TIME_SPAN[16:]).all()
        and (minutes - _CANONICAL_TIME[:16] <= _TIME_SPAN[:16]).all()
        and (minutes[:, :4] > ord("0")).any(axis=1).all()  # not year 0
    ):
        return None
    try:
        minutes = minutes.view("<U16")[:, 0].astype("datetime64[m]").astype(np.int64)
    except ValueError:  # a month, day or hour out of range
        return None
    ms = (tail @ _SECOND_PLACES).astype(np.int64)
    return minutes[np.cumsum(head) - 1] * 60_000_000 + ms * 1000


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
    """Epoch-us times as UTC texts cut to the millisecond, e.g.
    2019-05-01T14:03:22.500Z (the year in four digits): the inverse of
    ``_canonical_us``. The date, hour and minute are rendered once per
    distinct minute, the seconds and milliseconds from digits.
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


# The most distinct floats a table's column renders once each: ~1.2 MB of texts.
_FLOAT_DICTIONARY = 16 * WRITE_ROWS


def _float_renderer(fn, column: np.ndarray) -> Callable[[np.ndarray], list]:
    """What renders each slice of ``column`` as ``fn`` of its floats: as in
    Parquet's dictionary encoding, each bit pattern once, and a slice gathers
    its texts by binary search; without repeats or past ``_FLOAT_DICTIONARY``
    patterns, ``_per_value`` of each slice. The sorted bits (~9 bytes a row)
    are the one table-sized scratch; numpy 2.4.6's ``np.unique`` hashes int64,
    ~20x slower."""
    bits = np.sort(column.view(np.int64))
    new = bits[1:] != bits[:-1]
    if new.all() or new.sum() >= _FLOAT_DICTIONARY:
        return partial(_per_value, fn)
    values = np.append(bits[:1], bits[1:][new])
    texts = np.array(list(map(fn, values.view(float).tolist())), dtype=object)
    return lambda part: texts[np.searchsorted(values, part.view(np.int64))].tolist()


# Column kinds, each (dtype, parse, render, read): parse turns a CSV
# column's texts into a column, marking ``bad`` the rows whose value does
# not parse, and render(column) gives what renders its slices as texts.
# Subj and drive, of kind _KEY, parse together as the row's key code (see
# ``_parse_csv``). A class outside CLASS_NAMES parses as -1, and an _INT64
# value outside int64 does not parse. A raw
# file's _STRIPPED columns are stripped before they parse. ``read`` is the
# dtype np.loadtxt reads the texts as: a kind read as its own dtype needs no
# parse, and "<U25" holds one character more than a canonical time, so a
# longer text shows rather than being cut to look canonical. No kind is
# read as an integer: numpy 2.4.6 crashes (SIGSEGV) after repeated int64
# conversion errors on non-BMP text, as 50,000 calls of
# np.loadtxt(io.StringIO("\U00105da6¼\n"), delimiter=",", dtype=np.int64,
# comments=None), each raising ValueError, did in 4 of 6 runs; and int()
# keeps drives beyond int64.
_TEXT = (None, lambda texts, bad: np.array(texts, dtype=object), None, object)
_KEY = (None, None, None, object)
_INT64 = (
    np.int64, lambda texts, bad: np.array(_each(_int64, texts, bad), dtype=np.int64), None, object
)
_TIME = (np.int64, _times_us, lambda column: _time_texts, "<U25")
_FLOAT = (
    float, lambda texts, bad: np.array(_each(float, texts, bad), dtype=float),
    partial(_float_renderer, repr), float,
)
_CLASS = (
    np.int64,
    lambda names, bad: np.fromiter(map(_CLASS_CODE.get, names, repeat(-1)), np.int64, len(names)),
    lambda column: lambda codes: list(map(CLASS_NAMES.__getitem__, codes.tolist())),
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
        return cls._sorted(*_drive_codes(subj, drive), *columns, **extra)

    @classmethod
    def _sorted(cls, keys: list, codes: np.ndarray, *columns, **extra):
        """A table of rows in any order, each given its index into ``keys``;
        ties keep their order. Rows already in order are viewed, not gathered."""
        columns = [np.asarray(c, dtype=k[0]) for c, k in zip(columns, cls.COLUMNS.values())]
        named = dict(zip(cls.COLUMNS, columns))
        by = [named[n] for n in reversed(cls.SORT)] + [codes]
        order = slice(None) if _ascending(by) else np.lexsort(by)
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
        return dict(zip(cls.HEADER, (_KEY, _KEY, *cls.COLUMNS.values())))

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

    def drive_index(self, keys: list) -> np.ndarray:
        """The drive (index into ``self.keys``) of each of ``keys``, -1 for one the table lacks."""
        where = {key: d for d, key in enumerate(self.keys)}
        return np.fromiter(map(where.get, keys, repeat(-1)), np.int64, len(keys))

    def seconds(self) -> np.ndarray:
        """Epoch seconds of each row, equal to ``datetime.timestamp()``."""
        return to_seconds(self.t_us)

    def take(self, rows: np.ndarray):
        """The table of the rows at ascending indices, or where a mask is true."""
        keys, codes = _sorted_keys(self.keys, self.codes()[rows])
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


# Data lines parsed at once. A chunk with a bad row is parsed by loadtxt up
# to that row (again for the bad file's part if it spans files) and then by
# the row path, so fewer lines make a bad row cheaper; more make the numpy
# calls cheaper. With 2,048 a raw sensor file of 4,800 rows whose row 4,000
# is bad cleans faster than by the csv.reader path alone; with 4,096 slower.
_CHUNK_ROWS = 2048


def _row_columns(fields: list[tuple], key: tuple, rows: list[list[str]], bad: np.ndarray) -> list:
    """Columns of CSV rows: ``code(bad, subj, drive)`` of the texts at the
    indices of a (subj, drive, code) ``key``, if any; then, per (index, kind,
    strip) field, the texts there, stripped if ``strip``, through the kind's
    parse. A short row reads as empty texts; a bad value marks its row ``bad``."""
    width = max([i for i, *_ in fields] + list(key[:2])) + 1
    if min(map(len, rows), default=width) < width:
        rows = [row if len(row) >= width else [""] * width for row in rows]
    cols = list(zip(*rows)) or [()] * width
    return ([key[2](bad, cols[key[0]], cols[key[1]])] if key else []) + [
        _per_text(kind[1], cols[i], strip, bad) if kind[3] is object else kind[1](cols[i], bad)
        for i, kind, strip in fields
    ]


def _failures(columns: list, bad: np.ndarray, checks: list[tuple]) -> np.ndarray:
    """Per row, whether it does not parse, then whether it fails each check."""
    return np.array([bad, *(~test(columns[k]) for k, test, _ in checks)])


# A whole quoted field on one line, which csv.reader and loadtxt read alike.
# Its first quote leads the pattern, so re scans for quotes.
_QUOTED_FIELD = re.compile(r'"(?<![^,\r\n]")[^"\r\n]*(?:""[^"\r\n]*)*"(?![^,\r\n])')


def _parse_chunk(parts: list[list[str]], fields: list[tuple], key, checks: list) -> list | None:
    """The ``_row_columns`` of the data lines of one file or more, by file,
    tokenised by np.loadtxt; None if loadtxt rejects them, or if a row does
    not parse or fails a check.

    A quote outside whole quoted fields on one line leaves the lines to the row
    path, so no quoted field is cut at a chunk's end or runs into the next file;
    so does a NUL, which a str field drops from a text's end (3.11's fromisoformat
    accepts "...Z\\0"), and so do blank lines only, of which loadtxt warns.
    """
    text = "\n".join(map("".join, parts))  # no file's last line runs into the next's first
    if "\0" in text or not text.strip("\r\n") or '"' in text and '"' in _QUOTED_FIELD.sub("", text):
        return None
    used = [*key[:2], *(i for i, *_ in fields)]
    reads = [object] * len(key[:2]) + [kind[3] for _, kind, _ in fields]
    dtype = np.dtype([(f"f{k}", read) for k, read in enumerate(reads)])
    try:
        table = np.loadtxt(
            chain.from_iterable(parts), dtype=dtype, delimiter=",", quotechar='"', comments=None,
            usecols=used, ndmin=1,
        )
    except ValueError:
        return None
    bad = np.zeros(len(table), dtype=bool)
    columns = [key[2](bad, table["f0"], table["f1"])] if key else []
    for name, (_, kind, strip) in zip(dtype.names[len(key[:2]) :], fields):
        column = table[name]  # a view, copied once: into the columns it extends
        if kind[3] is object:
            column = _per_text(kind[1], column, strip, bad)
        elif kind[3] != kind[0]:
            # loadtxt cuts a text to the field's width: one that fills it may
            # be cut, and the rest fit one character less, read in place.
            chars = column[:, None].view(np.uint32)
            if chars[:, -1].any():
                return None
            column = kind[1](chars[:, :-1].view(f"<U{chars.shape[1] - 1}")[:, 0], bad)
        columns.append(column)
    return None if _failures(columns, bad, checks).any() else columns


def _parse_rows(reader, stop: int, first: int, fields, key, checks: list[tuple], bad_row) -> list:
    """The ``_row_columns`` of the non-blank rows a csv reader gives until
    it has read ``stop`` lines; its line k is the file's line ``first + k``.

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
    columns = _row_columns(fields, key, rows, bad)
    fails = _failures(columns, bad, checks)
    failed = fails.any(axis=0)
    if failed.any():
        reasons = ["unparseable", *(reason for *_, reason in checks)]
        which = fails.argmax(axis=0).tolist()
        for k in np.flatnonzero(failed).tolist():
            bad_row(reasons[which[k]], lines[k], rows[k])
        columns = [c[~failed] for c in columns]
    return columns


class _Columns(dict):
    """Arrays by name that chunks of rows extend in place, NaN where one lacks
    a column; nothing else may view one. Each grows by an eighth, a large one by mremap."""

    rows = 0

    def append(self, named: dict) -> None:
        stop = self.rows + len(next(iter(named.values())))
        for name, new in {**dict.fromkeys(self, np.nan), **named}.items():
            have = self.setdefault(name, np.empty(0, np.result_type(new)))
            if len(have) < stop:
                have.resize(max(stop, len(have) * 9 // 8), refcheck=False)
            have[self.rows : stop] = new
        self.rows = stop


def _parse_csv(sources: list, cls, raw: bool, bad_row) -> dict:
    """The columns of raw or clean CSVs of ``cls`` rows, by name, file after file.

    A clean file's columns are ``cls.HEADER``, less those of no kind, with
    the ``CLEAN_CHECKED`` ones checked. A raw file's are ``cls.RAW`` and
    ``cls.OPTIONAL`` (NaN where it lacks one), all checked, the
    ``_STRIPPED`` ones stripped; of ``cls`` the raw layout reads only those
    two and ``kinds()``. Each row that does not parse or fails a check goes
    to ``bad_row(reason, line, row)``, by its line in its own file, and is
    left out. Subj and drive come back as "key", each row's code among the
    keys in the order first seen, which "keys" lists.

    Consecutive files of one header share its layout, worked out once, and a
    chunker: ``_parse_chunk`` parses ``_CHUNK_ROWS`` data lines at a time,
    across files, or else each file's part in turn, and a part it rejects
    goes to csv.reader and ``_parse_rows``, which read on in that file only
    to end a quoted field. The columns go straight into one ``_Columns``.
    """
    index, into, layouts, sources = {}, _Columns(), {}, iter(sources)
    header, file, lines, source = (), [(), 0], iter(()), True  # () is no file's header
    with ExitStack() as stack:
        while source is not None:
            if file[0] != header:  # a file of another header is open
                header = file[0]
                if (layout := layouts.get(str(header))) is None:
                    optional = tuple(c for c in cls.OPTIONAL if c in (header or ()))
                    names = cls.RAW + optional if raw else cls.HEADER
                    kinds, checked = cls.kinds(), names if raw else cls.CLEAN_CHECKED
                    at = dict(zip(names, header_indices(header, names, source)))
                    key, used = (), [n for n in names if kinds[n] and kinds[n] is not _KEY]
                    if kinds.get("drive") is _KEY:
                        code = partial(_codes, index, partial(_file_key, raw, "subj" in checked))
                        key = (at["subj"], at["drive"], code)
                    fields = [(at[n], kinds[n], raw and n in _STRIPPED) for n in used]
                    names = ["key"] * bool(key) + used
                    tested = [c for c in _CHECKS if c in checked and c in names]
                    checks = [(names.index(c), *_CHECKS[c]) for c in tested]
                    layout = layouts[str(header)] = names, (fields, key, checks)
                    # The columns of no rows, so that each column is there from the start.
                    columns = dict(zip(names, _row_columns(fields, key, [], np.zeros(0, bool))))
                    into.append({**columns, **dict.fromkeys(cls.OPTIONAL * raw, np.zeros(0))})
                names, args = layout
            # Each part is ([header, lines read] of a file, its lines here, its lines after).
            parts, count = [], 0
            while file[0] == header and count < _CHUNK_ROWS and source is not None:
                count += len(got := list(islice(lines, _CHUNK_ROWS - count)))
                parts += [(file, got, lines if count == _CHUNK_ROWS else ())] * bool(got)
                if count < _CHUNK_ROWS and (source := next(sources, None)) is not None:
                    stack.close()  # the file at its end, then the next
                    lines = iter(stack.enter_context(resolve_uri(source, "r")))
                    file = [next(reader := csv.reader(lines), None), reader.line_num]
            whole = _parse_chunk([got for _, got, _ in parts], *args) if parts else None
            if whole is not None:
                into.append(dict(zip(names, whole)))
            for counted, got, more in parts:
                if whole is None:
                    columns = _parse_chunk([got], *args) if len(parts) > 1 else None
                    if columns is None:
                        reader = csv.reader(chain(got, more))
                        columns = _parse_rows(reader, len(got), counted[1], *args, bad_row)
                        counted[1] += reader.line_num - len(got)  # the lines read past the part
                    into.append(dict(zip(names, columns)))
                counted[1] += len(got)
    for column in into.values():  # each cut to the rows it holds
        column.resize(into.rows, refcheck=False)
    return {**into, "keys": list(index)} if "key" in into else into


def _parse_files(cls: type[_Table], files: list, drops: dict) -> tuple[list, list, int]:
    """The sorted keys of raw CSVs of ``cls``; their rows, file after file: the
    index of each one's key, then ``RAW`` after subj and drive, then ``OPTIONAL``;
    and how many rows were read. ``drops``, all 0, counts dropped rows by reason."""

    def bad_row(reason, line, row):
        drops[reason] += 1

    named = _parse_csv(files, cls, True, bad_row)
    columns = [named[c] for c in ("key", *cls.RAW[2:], *cls.OPTIONAL)]
    keys, columns[0] = _sorted_keys(named["keys"], columns[0])
    return keys, columns, len(columns[0]) + sum(drops.values())


def _odometer(cum: np.ndarray, lat: np.ndarray, lon: np.ndarray, spans: Iterable) -> None:
    """Set ``cum`` over each (start, stop) span to the running sum, from 0, of
    the haversine steps between its positions, in feet.

    The steps are ``geo.haversine_distances_ft`` of each position and the
    next, and np.cumsum adds them in sequence, as adding them one at a time
    in floats would.
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

    keys, columns, rows_in = _parse_files(SensorTable, files, drops)
    # Drives seen in any file without the odometer column, which reads as NaN
    # (a non-finite odometer is out of range), get it recomputed.
    recompute = np.bincount(columns[0][np.isnan(columns[-1])], minlength=len(keys)) > 0

    # The full-row sort makes the dedupe winner independent of file order; a
    # NaN odometer sorts last. Rows already in ascending (key, time) order
    # with no time repeated, as a study's files usually are, stay as they are.
    codes, t = columns[:2]
    ascending = _ascending([t, codes], np.greater)
    order = slice(None) if ascending else np.lexsort(columns[::-1])
    del codes, t
    columns[0] = columns[0][order]  # one column at a time, each freed as it goes
    columns[1] = columns[1][order]
    codes, t = columns[:2]
    # The clean table stores milliseconds: dedupe on what it will hold.
    ms = t // 1000
    first = np.ones(len(t), dtype=bool)
    first[1:] = (codes[1:] != codes[:-1]) | (ms[1:] != ms[:-1])
    drops["duplicate"] = len(t) - int(first.sum())
    if drops["duplicate"]:
        order = np.flatnonzero(first) if ascending else order[first]
        columns[:2] = codes[first], t[first]
    del codes, t, ms, first
    for k in range(2, len(columns)):  # each gathered once, by the sort and dedupe
        columns[k] = columns[k][order]
    codes, t, lat, lon, heading, speed, cum = columns

    bounds = np.searchsorted(codes, np.arange(len(keys) + 1)).tolist()
    spans = list(zip(bounds, bounds[1:]))
    _odometer(cum, lat, lon, compress(spans, recompute))
    # Only a drive whose odometer falls between two of its rows can lose any.
    down = np.flatnonzero(cum[1:] < cum[:-1])
    falls = np.bincount(codes[down][codes[down] == codes[down + 1]], minlength=len(keys)) > 0
    keep = np.ones(len(t), dtype=bool)
    for start, stop in compress(spans, falls & ~recompute):
        # A row that runs the odometer below any earlier row is dropped.
        run = cum[start:stop]
        keep[start + 1 : stop] = run[1:] >= np.maximum.accumulate(run)[:-1]
    drops["cum_dist_regression"] = len(keep) - int(keep.sum())
    if drops["cum_dist_regression"]:
        columns = [a[keep] for a in columns]
    return SensorTable._grouped(keys, *columns), drops, rows_in


def clean_cv(
    files: list, sensor: SensorTable, join_tol_s: float = DEFAULT_JOIN_TOL_S
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

    keys, (codes, t, code, conf), rows_in = _parse_files(DetectionTable, files, drops)
    drive = sensor.drive_index(keys)[codes]
    seen = drive >= 0
    drive, t, code, conf = drive[seen], t[seen], code[seen], conf[seen]

    # Each detection's two candidate samples by time; only their seconds are taken.
    bounds = np.array(sensor.offsets)
    lo, hi = bounds[drive], bounds[drive + 1]
    i, ts = search_runs(sensor.t_us, lo, hi, t), to_seconds(t)
    before = np.where(i > lo, np.abs(to_seconds(sensor.t_us[np.maximum(i - 1, lo)]) - ts), np.inf)
    after = np.where(i < hi, np.abs(to_seconds(sensor.t_us[np.minimum(i, hi - 1)]) - ts), np.inf)
    # The earlier sample wins exact ties.
    nearest = np.where(after < before, i, i - 1)
    matched = np.minimum(before, after) <= join_tol_s
    drops["no_sensor_match"] += len(seen) - int(matched.sum())

    nearest = nearest[matched]
    # The clean table stores milliseconds: order the rows by what it holds,
    # so that reading the file back gives them in the same order.
    return DetectionTable._sorted(
        *_sorted_keys(sensor.keys, drive[matched]), t[matched] // 1000 * 1000,
        sensor.lat[nearest], sensor.lon[nearest], code[matched], conf[matched],
    ), drops, rows_in


def _write_table(table: _Table, dest) -> _Table:
    """Write ``table.HEADER``, then each row: its key, then each of its
    columns rendered by the column's kind. Returns the table as the file
    holds it, its times cut to the millisecond.
    """
    renders = [kind[2](c) for kind, c in zip(table.COLUMNS.values(), table.columns())]

    def render(part: _Table) -> list:
        return [*part.key_texts(), *(r(c) for r, c in zip(renders, part.columns()))]

    # Only subj may hold a text that needs quotes.
    write_csv(dest, table.HEADER, table.chunks(render), plain=range(1, len(table.HEADER)))
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

    key, *columns, keys = _parse_csv([source], cls, False, bad_row).values()
    return cls._sorted(*_sorted_keys(keys, key), *columns)


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
