"""``clean_sensor`` on the columnar table against the record-based original.

``old_clean_sensor`` below is the record-by-record implementation that the
columnar one replaced (DictReader, one tuple sort, a dedupe loop, per-drive
records), kept here as the oracle; a record is a tuple (subj, drive, t_utc,
lat, lon, heading, speed, cum). It carries two deliberate changes, both as
the columnar code now does: a non-finite speed or odometer counts as
``out_of_range``, and a row too short to reach its subj column (DictReader
gives None there) as ``unparseable``. Hypothesis builds raw
files from small pools of field values so that duplicates within one
millisecond, one drive in files with and without the odometer column,
odometer regressions, bad and short rows, quoted subjects and drive numbers
beyond int64 all occur often; both sides must write the same bytes and
report the same drops. ``boundary_files`` varies where files meet as well:
headers that repeat and alternate, header-only and blank files, a last line
without its newline and quotes left open at a file's end.
"""

import csv
import io
import math
from itertools import groupby

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import boundary_texts, format_time_utc, haversine_distance_ft, parsed, parsed_alone

from intxn_pipeline import ingest
from intxn_pipeline.geo import GeoPoint
from intxn_pipeline.ingest import (
    SENSOR_COLUMNS,
    SENSOR_CUM_COLUMN,
    SensorTable,
    clean_sensor,
    parse_time_utc,
    write_sensor_csv,
)


def old_parse_sensor_file(source):
    drops = {"unparseable": 0, "out_of_range": 0}
    reader = csv.DictReader(source)
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
        except (AttributeError, KeyError, TypeError, ValueError):
            drops["unparseable"] += 1
            continue
        if (
            not -90.0 <= lat <= 90.0
            or not -180.0 <= lon <= 180.0
            or not 0.0 <= heading < 360.0
            or speed < 0.0
            or not math.isfinite(speed)  # the one change from the original
            or (cum is not None and not math.isfinite(cum))
        ):
            drops["out_of_range"] += 1
            continue
        rows.append((subj, drive, t, lat, lon, heading, speed, cum))
    return rows, has_cum, drops


def old_compute_cum_dist(drive_records):
    out, cum, prev = [], 0.0, None
    for rec in drive_records:
        pos = GeoPoint(rec[3], rec[4])
        if prev is not None:
            cum += haversine_distance_ft(prev, pos)
        out.append((*rec[:7], cum))
        prev = pos
    return out


def old_clean_sensor(files):
    drops = {"unparseable": 0, "out_of_range": 0, "duplicate": 0, "cum_dist_regression": 0}
    rows, missing_cum = [], set()
    for file_rows, has_cum, file_drops in map(old_parse_sensor_file, files):
        rows.extend(file_rows)
        if not has_cum:
            missing_cum.update((r[0], r[1]) for r in file_rows)
        for k, v in file_drops.items():
            drops[k] += v
    rows.sort(key=lambda r: (r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7] is None, r[7] or 0.0))
    deduped, last_key = [], None
    for r in rows:
        t = r[2]
        if t.microsecond % 1000:
            t = t.replace(microsecond=t.microsecond // 1000 * 1000)
        key = (r[0], r[1], t)
        if key == last_key:
            drops["duplicate"] += 1
            continue
        deduped.append(r)
        last_key = key
    records = []
    for (subj, drive), group in groupby(deduped, key=lambda r: (r[0], r[1])):
        drive_rows = list(group)
        recompute = (subj, drive) in missing_cum or any(r[7] is None for r in drive_rows)
        drive_recs = [(*r[:7], r[7] or 0.0) for r in drive_rows]
        if recompute:
            records.extend(old_compute_cum_dist(drive_recs))
        else:
            prev = None
            for rec in drive_recs:
                if prev is not None and rec[7] < prev:
                    drops["cum_dist_regression"] += 1
                    continue
                records.append(rec)
                prev = rec[7]
    return records, drops


def old_write_sensor_csv(records):
    out = io.StringIO(newline="")
    w = csv.writer(out, lineterminator="\n")
    w.writerow(SENSOR_COLUMNS + (SENSOR_CUM_COLUMN,))
    for subj, drive, t, *floats in records:
        w.writerow([subj, drive, format_time_utc(t), *map(repr, floats)])
    return out.getvalue()


SUBJS = ["A", "B", 'q"uote', "c,omma", " pad ", "", "  ", "S\x00"]
DRIVES = ["1", "2", " 3 ", str(2**70), "-4", "x"]
TIMES = [
    "2019-05-01T12:00:00.000Z",
    "2019-05-01T12:00:00.000400Z",  # same millisecond, sub-ms digits
    "2019-05-01T12:00:00.000999Z",
    "2019-05-01T12:00:00.001Z",
    "2019-05-01T14:00:00.0002+02:00",  # an offset, same millisecond again
    "2019-05-01T12:00:01.500Z",
    "1969-12-31T23:59:59.9995Z",  # before the epoch: floors, not truncates
    "2019-05-01t12:00:00Z",
    "bad",
]
LATS = ["41.0", "41.0001", "0.0", "-0.0", "91", "nan"]
LONS = ["-96.0", "-96.0001", "181", "inf"]
HEADINGS = ["90.0", "0", "359.9", "360", "-1", "nan"]
SPEEDS = ["50.0", "0.0", "-1", "nan", "inf"]
CUMS = ["0.0", "5.0", "10.0", "2.5", "-1.0", "nan", "inf", "-inf", "x"]


# Each CSV column's field in a row of the pool.
FIELD_OF = dict(
    zip((*SENSOR_COLUMNS, SENSOR_CUM_COLUMN), "subj drive time lat lon heading speed cum".split())
)


def pool_rows():
    """A row's fields, mostly valid values, so the dedupe, sort and odometer see many rows."""
    pick = st.sampled_from
    good = {
        "subj": pick(SUBJS[:5]),
        "drive": pick(DRIVES[:4]),
        "time": pick(TIMES[:7]),
        "lat": pick(LATS[:4]),
        "lon": pick(LONS[:2]),
        "heading": pick(HEADINGS[:3]),
        "speed": pick(SPEEDS[:2]),
        "cum": pick(CUMS[:5]),
    }
    anything = {
        "subj": pick(SUBJS),
        "drive": pick(DRIVES),
        "time": pick(TIMES),
        "lat": pick(LATS),
        "lon": pick(LONS),
        "heading": pick(HEADINGS),
        "speed": pick(SPEEDS),
        "cum": pick(CUMS),
    }
    return st.one_of(st.fixed_dictionaries(good), st.fixed_dictionaries(anything))


@st.composite
def raw_files(draw):
    """1-3 raw sensor files whose rows come from one shared pool, as CSV text."""
    pool = draw(st.lists(pool_rows(), min_size=1, max_size=8))
    texts, rows_in = [], 0
    for _ in range(draw(st.integers(1, 3))):
        has_cum = draw(st.booleans())
        out = io.StringIO(newline="")
        w = csv.writer(out, lineterminator="\n")
        w.writerow(SENSOR_COLUMNS + ((SENSOR_CUM_COLUMN,) if has_cum else ()))
        for k in draw(st.lists(st.integers(0, len(pool) - 1), max_size=12)):
            r = pool[k]
            row = [r["subj"], r["drive"], r["time"], r["lat"], r["lon"], r["heading"], r["speed"]]
            row += [r["cum"]] if has_cum else []
            kind = draw(st.sampled_from(["row"] * 8 + ["short", "blank"]))
            if kind == "blank":
                out.write("\n")
                continue
            if kind == "short":
                row = row[: draw(st.integers(1, len(row) - 1))]
            w.writerow(row)
            rows_in += 1
        texts.append(out.getvalue())
    return texts, rows_in


@st.composite
def boundary_files(draw):
    """2-4 raw sensor files whose rows come from one shared pool, as
    ``boundary_texts`` renders them: each file with or without the odometer
    and in one of two column orders, the CSV's and a shuffled one with subj
    last, so that headers repeat and alternate down the list."""
    pool = draw(st.lists(pool_rows(), min_size=1, max_size=6))
    shuffled = [c for c in draw(st.permutations(SENSOR_COLUMNS)) if c != "subj"] + ["subj"]
    files = []
    for _ in range(draw(st.integers(2, 4))):
        order = draw(st.sampled_from([list(SENSOR_COLUMNS), shuffled]))
        header = order + [SENSOR_CUM_COLUMN] * draw(st.booleans())
        rows = []
        for k in draw(st.lists(st.integers(0, len(pool) - 1), max_size=6)):
            row = [pool[k][FIELD_OF[c]] for c in header]
            kind = draw(st.sampled_from(["row"] * 6 + ["short", "blank"]))
            if kind == "short":
                row = row[: draw(st.integers(1, len(row) - 1))]
            rows.append(None if kind == "blank" else row)
        files.append((header, rows))
    return boundary_texts(draw, files)


def streams(texts):
    return [io.StringIO(text, newline="") for text in texts]


@settings(max_examples=300, deadline=None)
@given(raw_files())
def test_clean_sensor_matches_record_based_original(files):
    texts, rows_in = files
    table, drops, read = clean_sensor([io.StringIO(t, newline="") for t in texts])
    records, old_drops = old_clean_sensor([io.StringIO(t, newline="") for t in texts])
    out = io.StringIO(newline="")
    write_sensor_csv(table, out)
    assert out.getvalue() == old_write_sensor_csv(records)
    assert drops == old_drops
    assert rows_in == read == len(table) + sum(drops.values())


@settings(max_examples=100, deadline=None)
@given(raw_files(), st.integers(1, 4))
def test_clean_sensor_is_the_same_parsed_a_few_rows_at_a_time(files, chunk_rows):
    texts, _ = files
    whole = clean_sensor([io.StringIO(t, newline="") for t in texts])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_CHUNK_ROWS", chunk_rows)
        assert clean_sensor([io.StringIO(t, newline="") for t in texts]) == whole


def test_cumless_rows_that_lose_the_dedupe_still_recompute_the_drive():
    # The row without an odometer duplicates one with it and loses the
    # dedupe, yet the drive was seen without the column, so its supplied
    # odometer (5 and 500 ft) is replaced by positions (0 and ~36 ft).
    header = ",".join(SENSOR_COLUMNS)
    first = "A,1,2019-05-01T12:00:00.000Z,41.0,-96.0,90.0,50.0"
    second = "A,1,2019-05-01T12:00:01.000Z,41.0001,-96.0,90.0,50.0"
    with_cum = io.StringIO(f"{header},cum_dist_ft\n{first},5.0\n{second},500.0\n")
    without = io.StringIO(f"{header}\n{first}\n")
    table, drops, _ = clean_sensor([with_cum, without])
    assert drops["duplicate"] == 1
    assert table.cum[0] == 0.0
    assert table.cum[1] == pytest.approx(36.5, abs=0.1)


def parse_sensor(sources, bad_row):
    return ingest._parse_csv(sources, SensorTable, True, bad_row)


CUM_HEADER = ",".join(SENSOR_COLUMNS + (SENSOR_CUM_COLUMN,)) + "\n"
SUBJ_LAST = "drive,time_utc,lat,lon,heading_deg,speed_fps,subj\n"


@pytest.mark.parametrize("chunk_rows", [1, 2, 3, 2048])
@settings(max_examples=100, deadline=None)
@given(boundary_files())
# Glued, the two lines would read as one good row whose speed is "50.0".
@example([CUM_HEADER + 'A,1,2019-05-01T12:00:00.000Z,41.0,-96.0,90.0,"5', CUM_HEADER + '0.0",1.0\n'])
# A subj whose quote a file leaves open, then a file of one good row.
@example(
    [
        SUBJ_LAST + '1,2019-05-01T12:00:00.000Z,41.0,-96.0,90.0,50.0,"A',
        SUBJ_LAST + "1,2019-05-01T12:00:01.000Z,41.0,-96.0,90.0,50.0,B\n",
    ]
)
def test_files_that_meet_in_a_chunk_clean_as_the_record_based_original(chunk_rows, texts):
    # A chunk spans the files of one header; each file's rows still parse,
    # drop and count as that file read alone does.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_CHUNK_ROWS", chunk_rows)
        table, drops, read = clean_sensor(streams(texts))
        assert parsed(parse_sensor, texts) == parsed_alone(parse_sensor, texts)
    records, old_drops = old_clean_sensor(streams(texts))
    out = io.StringIO(newline="")
    write_sensor_csv(table, out)
    assert out.getvalue() == old_write_sensor_csv(records)
    assert drops == old_drops
    assert read == sum(1 for text in texts for _ in csv.DictReader(io.StringIO(text, newline="")))
