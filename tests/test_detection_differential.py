"""The columnar detection path against the record-based original.

The ``old_*`` functions below are the record-by-record implementations that
``DetectionTable`` replaced (a parsed tuple, a record and a ``datetime`` per
row), kept here as the oracle; a record is a tuple (subj, drive, t_utc, lat,
lon, object_class, confidence). Hypothesis builds raw
detection files from small pools of field values, so that time ties,
class and confidence ties, UTC offsets, bad, short and blank rows, quoted
subjects, unmatched drives and detections exactly ``join_tol_s`` (and one
microsecond more or less), 1 or 30 microseconds from a sensor sample all
occur often, in 2019 and in years 2300 and 9999, where epoch microseconds
pass 2**53 and float seconds are 2 to 30 microseconds apart. Both sides
must write the same bytes, report the same drops, give the same rows from
``read_clean_detections`` and ``last_in_runs`` and the same cluster centers,
in cluster-id order, from ``cluster_detections``.
"""

import csv
import io
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    boundary_texts, centroid, format_time_utc, parsed, parsed_alone, row_tuples
)

from intxn_pipeline import ingest
from intxn_pipeline.discovery import cluster_detections, dbscan_labels, last_in_runs
from intxn_pipeline.errors import DataError
from intxn_pipeline.geo import GeoPoint
from intxn_pipeline.ingest import (
    _BAD_VALUE,
    CLASS_NAMES,
    CLEAN_DETECTION_COLUMNS,
    DETECTION_COLUMNS,
    DetectionTable,
    EPOCH,
    OBJECT_CLASSES,
    SensorTable,
    clean_cv,
    header_indices,
    parse_time_utc,
    read_clean_detections,
    to_us,
    write_detections_csv,
)


def sort_key(record):
    """(subj, drive, t_utc, object_class, confidence): the tables' row order."""
    return (*record[:3], *record[5:])


def as_row(record):
    """A record as ``row_tuples`` gives its row."""
    subj, drive, t, lat, lon, object_class, confidence = record
    return subj, drive, to_us(t), lat, lon, CLASS_NAMES.index(object_class), confidence


def old_parse_detection_file(source):
    drops = {"unparseable": 0, "out_of_range": 0, "unknown_class": 0}
    reader = csv.reader(source)
    i_subj, i_drive, i_t, i_class, i_conf = header_indices(next(reader, None), DETECTION_COLUMNS, source)
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


def old_clean_cv(files, sensor, join_tol_s):
    drops = {"unparseable": 0, "out_of_range": 0, "unknown_class": 0, "no_sensor_match": 0}
    spans = dict(zip(sensor.keys, zip(sensor.offsets, sensor.offsets[1:])))
    by_drive = {}
    for file_rows, file_drops in map(old_parse_detection_file, files):
        for k, v in file_drops.items():
            drops[k] += v
        for row in file_rows:
            span = spans.get((row[0], row[1]))
            if span is None:
                drops["no_sensor_match"] += 1
            else:
                by_drive.setdefault(span, []).append(row)

    seconds = sensor.seconds()
    joined = []
    for (start, stop), rows in by_drive.items():
        times = seconds[start:stop]
        ts = np.array([row[2].timestamp() for row in rows])
        i = np.searchsorted(times, ts)
        before = np.where(i > 0, np.abs(times[np.maximum(i - 1, 0)] - ts), np.inf)
        after = np.where(i < len(times), np.abs(times[np.minimum(i, len(times) - 1)] - ts), np.inf)
        nearest = start + np.where(after < before, i, i - 1)
        matched = np.minimum(before, after) <= join_tol_s
        drops["no_sensor_match"] += len(rows) - int(matched.sum())
        lats = sensor.lat[nearest].tolist()
        lons = sensor.lon[nearest].tolist()
        for row, lat, lon, ok in zip(rows, lats, lons, matched.tolist()):
            if ok:
                subj, drive, t, object_class, confidence = row
                t = t.replace(microsecond=t.microsecond // 1000 * 1000)  # the clean file's time
                joined.append((subj, drive, t, lat, lon, object_class, confidence))
    joined.sort(key=sort_key)
    return joined, drops


def old_write_detections_csv(records):
    out = io.StringIO(newline="")
    w = csv.writer(out, lineterminator="\n")
    w.writerow(CLEAN_DETECTION_COLUMNS)
    for subj, drive, t, lat, lon, object_class, confidence in records:
        w.writerow(
            [subj, drive, format_time_utc(t), repr(lat), repr(lon), object_class, repr(confidence)]
        )
    return out.getvalue()


def old_read_clean_detections(source):
    reader = csv.reader(source)
    subj, drive, t, lat, lon, object_class, confidence = header_indices(
        next(reader, None), CLEAN_DETECTION_COLUMNS, source
    )
    out = []
    for row in reader:
        if not row:
            continue
        try:
            pos = GeoPoint(float(row[lat]), float(row[lon]))
            record = (
                row[subj],
                int(row[drive]),
                parse_time_utc(row[t]),
                pos.lat_deg,
                pos.lon_deg,
                row[object_class],
                float(row[confidence]),
            )
            if not record[0] or record[5] not in OBJECT_CLASSES or not 0.0 <= record[6] <= 1.0:
                raise ValueError("a value clean_cv never writes")
            out.append(record)
        except _BAD_VALUE as exc:
            raise DataError(f"bad row in clean detection table at line {reader.line_num}: {row!r}") from exc
    return out


def old_last_in_runs(detections, max_gap_s):
    by_stream = {}
    for det in detections:
        by_stream.setdefault((det[0], det[1], det[5]), []).append(det)
    kept = []
    for key in sorted(by_stream):
        stream = sorted(by_stream[key], key=sort_key)
        for i, det in enumerate(stream):
            if i + 1 == len(stream) or (stream[i + 1][2] - det[2]).total_seconds() > max_gap_s:
                kept.append(det)
    kept.sort(key=sort_key)
    return kept


def old_cluster_detections(detections, eps_ft, min_pts):
    lats = np.array([d[3] for d in detections], dtype=float)
    lons = np.array([d[4] for d in detections], dtype=float)
    labels = dbscan_labels(lats, lons, eps_ft, min_pts).tolist()
    groups = {}
    for det, lab in zip(detections, labels):
        if lab >= 0:
            groups.setdefault(lab, []).append(det)
    built = []
    for members in groups.values():
        members = sorted(members, key=sort_key)
        positions = sorted((m[3], m[4]) for m in members)
        built.append((positions[0], members, centroid([GeoPoint(*p) for p in positions])))
    built.sort(key=lambda t: (t[0], sort_key(t[1][0])))
    return [(i + 1, members, center) for i, (_, members, center) in enumerate(built)]


# Sample times in epoch us, about a second apart from 2019-05-01T12:00:00Z,
# with odd microseconds so that their seconds round in many ways.
SAMPLE_US = [1_556_712_000_000_000 + 1_000_000 * k + j for k, j in enumerate([0, 3, 123_457, 7, 999, 1])]
KEYS = [("A", 1), ("A", 2), ('q"uote', 1), ("c,omma", 7)]
JOIN_TOL_S = 0.5


# Shifts of the samples to the same instant of years 2019, 2300 and 9999.
YEAR_SHIFTS_US = [to_us(datetime(y, 5, 1, 12, tzinfo=timezone.utc)) - SAMPLE_US[0] for y in (2019, 2300, 9999)]


def sensor_table(shift_us=0):
    """Positions ~45 ft apart, zig-zagging, so DBSCAN chains form and the
    (lat, lon) order of a cluster's members is not their time order."""
    rows = []
    for d, (subj, drive) in enumerate(KEYS):
        for k, t in enumerate(SAMPLE_US):
            t += shift_us
            lat = 41.0 + 1.2345678e-4 * k + 2.5e-4 * d  # drives interleave too
            lon = -96.0 - 0.7654321e-4 * (k % 2)
            rows.append((subj, drive, t, lat, lon, 90.0, 50.0, 0.0))
    return SensorTable.from_columns(*zip(*rows))


SUBJS = ["A", " A ", 'q"uote', "c,omma", "Z", "", "  "]
DRIVES = ["1", "2", "7", " 1 ", "3", "x"]
# Offsets from a sample in us: ties, the midpoint of two samples, the join
# tolerance and one microsecond either side of it, one float second's width
# in 9999 (30 us), and far off.
OFFSETS_US = [0, 1, -1, 30, -30, 250_000, 500_000, 499_999, 500_001, -500_000, -500_001, 700_000, 9_000_000]
ZONES = [timedelta(0), timedelta(hours=2), timedelta(hours=-5, minutes=-30)]
CLASSES = ["stop_sign", "signal_state", " stop_sign ", "pedestrian", ""]
CONFIDENCES = ["0.9", "0.5", "0.0", "-0.0", "1.0", "1e-3", "1.5", "-0.1", "nan", "x"]


def render_time(us, zone):
    """The time in ``zone``, in milliseconds when that is exact (so whole
    columns can take the canonical fast path), or an unparseable text."""
    if zone is None:
        return "bad-time"
    t = (EPOCH + timedelta(microseconds=us)).astimezone(timezone(zone))
    spec = "microseconds" if us % 1000 else "milliseconds"
    return t.isoformat(timespec=spec).replace("+00:00", "Z")


def detection_pool(draw):
    """A pool of rows as (key, instant, zone, class, confidence)."""
    pick = st.sampled_from
    # A few keys and instants (sample, offset), shared by many rows: time
    # ties across classes and confidences, and gaps that equal max_gap_s.
    keys = draw(st.lists(st.tuples(pick(SUBJS[:4]), pick(DRIVES[:4])), min_size=1, max_size=3))
    instants = draw(st.lists(st.tuples(st.integers(0, 5), pick(OFFSETS_US)), min_size=1, max_size=6))
    # Mostly valid values, so the join, the runs and DBSCAN see many rows.
    good = st.tuples(
        pick(keys),
        pick(instants),
        pick(ZONES),
        pick(CLASSES[:3]),
        pick(CONFIDENCES[:6]),
    )
    anything = st.tuples(
        st.tuples(pick(SUBJS), pick(DRIVES)),
        st.tuples(st.integers(0, 5), pick(OFFSETS_US)),
        st.one_of(pick(ZONES), st.just(None)),
        pick(CLASSES),
        pick(CONFIDENCES),
    )
    return draw(st.lists(st.one_of(good, good, anything), min_size=1, max_size=12))


def detection_fields(row, shift_us):
    """A pool row's fields, in ``DETECTION_COLUMNS`` order, about the samples moved by ``shift_us``."""
    (subj, drive), (sample, offset), zone, cls, conf = row
    return [subj, drive, render_time(SAMPLE_US[sample] + shift_us + offset, zone), cls, conf]


@st.composite
def raw_detection_files(draw, shift_us=0):
    """1-3 raw detection files whose rows come from one shared pool, as CSV
    text, about the samples moved by ``shift_us``."""
    pool = detection_pool(draw)
    texts, rows_in = [], 0
    for _ in range(draw(st.integers(1, 3))):
        out = io.StringIO(newline="")
        w = csv.writer(out, lineterminator="\n")
        order = draw(st.permutations(range(len(DETECTION_COLUMNS))))
        w.writerow([DETECTION_COLUMNS[k] for k in order])
        for k in draw(st.lists(st.integers(0, len(pool) - 1), max_size=15)):
            fields = detection_fields(pool[k], shift_us)
            kind = draw(st.sampled_from(["row"] * 8 + ["short", "blank"]))
            if kind == "blank":
                out.write("\n")
                continue
            fields = [fields[j] for j in order]
            if kind == "short":
                fields = fields[: draw(st.integers(1, len(fields) - 1))]
            w.writerow(fields)
            rows_in += 1
        texts.append(out.getvalue())
    return texts, rows_in


@st.composite
def boundary_detection_files(draw):
    """2-4 raw detection files whose rows come from one shared pool, as
    ``boundary_texts`` renders them, each in one of two column orders, so
    that headers repeat and alternate down the list."""
    pool = detection_pool(draw)
    orders = [draw(st.permutations(range(len(DETECTION_COLUMNS)))) for _ in range(2)]
    files = []
    for _ in range(draw(st.integers(2, 4))):
        order = draw(st.sampled_from(orders))
        rows = []
        for k in draw(st.lists(st.integers(0, len(pool) - 1), max_size=8)):
            fields = [detection_fields(pool[k], 0)[j] for j in order]
            kind = draw(st.sampled_from(["row"] * 6 + ["short", "blank"]))
            if kind == "short":
                fields = fields[: draw(st.integers(1, len(fields) - 1))]
            rows.append(None if kind == "blank" else fields)
        files.append(([DETECTION_COLUMNS[j] for j in order], rows))
    return boundary_texts(draw, files)


def beside_a_sample(shift_us):
    """Detections 1 and 30 us either side of the first and last samples, and
    the join tolerance and 1 us more beyond them, as (shift_us, (texts, rows_in))."""
    instants = [SAMPLE_US[k] + d for k in (0, 5) for d in (1, -1, 30, -30)]
    instants += [SAMPLE_US[0] - 500_000, SAMPLE_US[0] - 500_001, SAMPLE_US[5] + 500_000, SAMPLE_US[5] + 500_001]
    rows = [f"A,1,{render_time(us + shift_us, timedelta(0))},stop_sign,0.9" for us in instants]
    return shift_us, (["\n".join([",".join(DETECTION_COLUMNS), *rows, ""])], len(rows))


def streams(texts):
    return [io.StringIO(text, newline="") for text in texts]


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(YEAR_SHIFTS_US).flatmap(lambda us: st.tuples(st.just(us), raw_detection_files(us))),
    st.sampled_from([0.25, 0.5, 1.0, 2.0]),
    st.sampled_from([40.0, 100.0]),
    st.sampled_from([1, 2, 3]),
)
@example(beside_a_sample(YEAR_SHIFTS_US[1]), 0.5, 40.0, 1)
@example(beside_a_sample(YEAR_SHIFTS_US[2]), 0.5, 40.0, 1)
def test_detection_path_matches_record_based_original(files, max_gap_s, eps_ft, min_pts):
    shift_us, (texts, rows_in) = files
    sensor = sensor_table(shift_us)
    table, drops, read = clean_cv(streams(texts), sensor, join_tol_s=JOIN_TOL_S)
    records, old_drops = old_clean_cv(streams(texts), sensor, JOIN_TOL_S)
    assert drops == old_drops
    assert rows_in == read == len(table) + sum(drops.values())

    out = io.StringIO(newline="")
    write_detections_csv(table, out)
    text = out.getvalue()
    assert text == old_write_detections_csv(records)

    loaded = read_clean_detections(io.StringIO(text, newline=""))
    old_loaded = old_read_clean_detections(io.StringIO(text, newline=""))
    assert row_tuples(loaded) == list(map(as_row, old_loaded))

    last = last_in_runs(loaded, max_gap_s=max_gap_s)
    old_last = old_last_in_runs(old_loaded, max_gap_s)
    assert row_tuples(last) == list(map(as_row, old_last))

    lat, lon = cluster_detections(last, eps_ft=eps_ft, min_pts=min_pts)
    old_clusters = old_cluster_detections(old_last, eps_ft, min_pts)
    assert list(map(GeoPoint, lat.tolist(), lon.tolist())) == [
        center for _, _, center in old_clusters
    ]


CV_HEADER = ",".join(DETECTION_COLUMNS) + "\n"


def parse_detections(sources, bad_row):
    return ingest._parse_csv(sources, DetectionTable, True, bad_row)


@pytest.mark.parametrize("chunk_rows", [1, 2, 3, 2048])
@settings(max_examples=100, deadline=None)
@given(boundary_detection_files())
# Glued, the two lines would read as one good detection of a stop sign.
@example([CV_HEADER + 'A,1,2019-05-01T12:00:00.000Z,"stop', CV_HEADER + '_sign",0.9\n'])
def test_detection_files_that_meet_in_a_chunk_join_as_the_record_based_original(chunk_rows, texts):
    # A chunk spans the files of one header; each file's rows still parse,
    # drop and count as that file read alone does.
    sensor = sensor_table()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_CHUNK_ROWS", chunk_rows)
        table, drops, read = clean_cv(streams(texts), sensor, join_tol_s=JOIN_TOL_S)
        assert parsed(parse_detections, texts) == parsed_alone(parse_detections, texts)
    records, old_drops = old_clean_cv(streams(texts), sensor, JOIN_TOL_S)
    assert drops == old_drops
    out = io.StringIO(newline="")
    write_detections_csv(table, out)
    assert out.getvalue() == old_write_detections_csv(records)
    rows = [row for text in texts for row in csv.reader(io.StringIO(text, newline="")) if row]
    assert read == len(rows) - len(texts)
