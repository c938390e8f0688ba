import ast
import csv
import io
import math
import random
import re
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import row_tuples

from intxn_pipeline import ingest
from intxn_pipeline.errors import DataError, HeaderMismatchError, StorageNotFoundError
from intxn_pipeline.geo import FT_PER_DEG, GeoPoint, haversine_distance_ft
from intxn_pipeline.ingest import (
    CLASS_NAMES,
    clean_cv,
    clean_sensor,
    format_time_utc,
    parse_time_utc,
    read_clean_detections,
    read_clean_sensor,
    to_us,
    write_detections_csv,
    write_sensor_csv,
)

SENSOR_HEADER = "subj,drive,time_utc,lat,lon,heading_deg,speed_fps"
CV_HEADER = "subj,drive,time_utc,object_class,confidence"


def sensor_csv(rows, header=SENSOR_HEADER):
    return io.StringIO(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))


def cv_csv(rows):
    return io.StringIO(CV_HEADER + "\n" + "\n".join(rows) + ("\n" if rows else ""))


def test_parse_format_time_roundtrip():
    t = parse_time_utc("2019-05-01T14:03:22.500Z")
    assert t == datetime(2019, 5, 1, 14, 3, 22, 500000, tzinfo=timezone.utc)
    assert format_time_utc(t) == "2019-05-01T14:03:22.500Z"


def test_clean_sensor_well_formed():
    src = sensor_csv(
        [
            "A,1,2019-05-01T12:00:00.000Z,41.0,-96.0,90.0,50.0",
            "A,1,2019-05-01T12:00:01.000Z,41.0,-95.9999,90.0,50.0",
            "A,1,2019-05-01T12:00:02.000Z,41.0,-95.9998,90.0,50.0",
        ]
    )
    records, drops, _ = clean_sensor([src])
    assert len(records) == 3
    assert sum(drops.values()) == 0
    # Odometer column was absent, so it is recomputed from positions.
    assert records.cum[0] == 0.0
    assert records.cum[1] > 0.0


def test_clean_sensor_drops_out_of_range():
    src = sensor_csv(
        [
            "A,1,2019-05-01T12:00:00.000Z,95.0,-96.0,90.0,50.0",
            "A,1,2019-05-01T12:00:01.000Z,41.0,-96.0,90.0,50.0",
            "A,1,2019-05-01T12:00:02.000Z,41.0,-96.0,360.0,50.0",
            "A,1,2019-05-01T12:00:03.000Z,41.0,-96.0,90.0,-1.0",
        ]
    )
    records, drops, _ = clean_sensor([src])
    assert len(records) == 1
    assert drops["out_of_range"] == 3


def test_clean_sensor_drops_unparseable():
    src = sensor_csv(["A,notanumber,2019-05-01T12:00:00.000Z,41.0,-96.0,90.0,50.0"])
    records, drops, _ = clean_sensor([src])
    assert not records
    assert drops["unparseable"] == 1


def test_clean_sensor_merges_and_sorts_two_files():
    f_b = sensor_csv(["B,1,2019-05-01T12:00:00.000Z,41.0,-96.0,90.0,50.0"])
    f_a = sensor_csv(["A,2,2019-05-01T12:00:00.000Z,41.0,-96.0,90.0,50.0"])
    records, _, _ = clean_sensor([f_b, f_a])
    assert [r[:2] for r in row_tuples(records)] == [("A", 2), ("B", 1)]


def test_clean_sensor_collapses_duplicates():
    src = sensor_csv(
        [
            "A,1,2019-05-01T12:00:00.000Z,41.0,-96.0,90.0,50.0",
            "A,1,2019-05-01T12:00:00.000Z,41.0,-96.0,90.0,50.0",
        ]
    )
    records, drops, _ = clean_sensor([src])
    assert len(records) == 1
    assert drops["duplicate"] == 1


def test_clean_sensor_collapses_rows_within_one_millisecond():
    # The clean table stores milliseconds, so sub-millisecond neighbours
    # are one (subj, drive, time) key and must not both reach the output.
    src = sensor_csv(
        [
            "A,1,2019-05-01T12:00:22.5004Z,41.0,-96.0,90.0,50.0",
            "A,1,2019-05-01T12:00:22.5001Z,41.0,-96.0,90.0,50.0",
            "A,1,2019-05-01T12:00:22.5010Z,41.0,-96.0,90.0,50.0",
        ]
    )
    records, drops, _ = clean_sensor([src])
    assert drops["duplicate"] == 1
    out = io.StringIO()
    write_sensor_csv(records, out)
    times = [line.split(",")[2] for line in out.getvalue().splitlines()[1:]]
    assert times == ["2019-05-01T12:00:22.500Z", "2019-05-01T12:00:22.501Z"]


def test_clean_sensor_header_mismatch():
    bad = io.StringIO("subj,drive,time_utc,lat\nA,1,2019-05-01T12:00:00.000Z,41.0\n")
    with pytest.raises(HeaderMismatchError) as err:
        clean_sensor([bad])
    assert "lon" in str(err.value)


def test_clean_sensor_unreadable_file(tmp_path):
    with pytest.raises(StorageNotFoundError):
        clean_sensor([tmp_path / "nope.csv"])


def test_clean_sensor_trusts_supplied_cum_dist():
    src = sensor_csv(
        [
            "A,1,2019-05-01T12:00:00.000Z,41.0,-96.0,90.0,50.0,0.0",
            "A,1,2019-05-01T12:00:01.000Z,41.0,-96.0,90.0,50.0,50.0",
            "A,1,2019-05-01T12:00:02.000Z,41.0,-96.0,90.0,50.0,25.0",
            "A,1,2019-05-01T12:00:03.000Z,41.0,-96.0,90.0,50.0,100.0",
        ],
        header=SENSOR_HEADER + ",cum_dist_ft",
    )
    records, drops, _ = clean_sensor([src])
    assert records.cum.tolist() == [0.0, 50.0, 100.0]
    assert drops["cum_dist_regression"] == 1


def test_clean_sensor_output_invariant_to_file_order():
    rows = {
        "A": ["A,1,2019-05-01T12:00:00.000Z,41.0,-96.0,90.0,50.0"],
        "B": ["B,1,2019-05-01T12:00:00.000Z,41.1,-96.0,90.0,50.0"],
        "C": ["C,1,2019-05-01T12:00:00.000Z,41.2,-96.0,90.0,50.0"],
    }

    def run(order):
        records, _, _ = clean_sensor([sensor_csv(rows[k]) for k in order])
        out = io.StringIO()
        write_sensor_csv(records, out)
        return out.getvalue()

    baseline = run("ABC")
    for order in ("ACB", "BAC", "BCA", "CAB", "CBA"):
        assert run(order) == baseline


def _without_odometer(positions):
    """The odometer that clean_sensor recomputes for one drive at
    ``positions``, a second apart, from a file without the column."""
    t0 = datetime(2019, 5, 1, 12, 0, tzinfo=timezone.utc)
    rows = [
        f"A,1,{format_time_utc(t0 + timedelta(seconds=k))},{p.lat_deg!r},{p.lon_deg!r},0.0,0.0"
        for k, p in enumerate(positions)
    ]
    table, drops, _ = clean_sensor([sensor_csv(rows)])
    assert sum(drops.values()) == 0
    return table.cum.tolist()


def test_compute_cum_dist_single_record():
    assert _without_odometer([GeoPoint(41.0, -96.0)]) == [0.0]


def test_compute_cum_dist_two_records_100ft_apart():
    a = GeoPoint(41.0, -96.0)
    b = GeoPoint(41.0 + 100.0 / FT_PER_DEG, -96.0)
    cums = _without_odometer([a, b])
    assert cums[0] == 0.0
    assert cums[1] == pytest.approx(100.0, abs=1e-6)


def test_compute_cum_dist_stationary():
    assert _without_odometer([GeoPoint(41.0, -96.0)] * 5) == [0.0] * 5


def test_compute_cum_dist_nondecreasing_and_sums():
    rng = random.Random(5)
    raw = []
    lat, lon = 41.0, -96.0
    for i in range(100):
        lat += rng.uniform(-1e-4, 1e-4)
        lon += rng.uniform(-1e-4, 1e-4)
        raw.append(GeoPoint(lat, lon))
    cums = _without_odometer(raw)
    assert all(c1 <= c2 for c1, c2 in zip(cums, cums[1:]))
    total = sum(haversine_distance_ft(raw[i], raw[i + 1]) for i in range(len(raw) - 1))
    assert cums[-1] == pytest.approx(total, abs=1e-9)


def _sensor_for_join():
    src = sensor_csv(
        [
            "A,1,2019-05-01T12:00:10.000Z,41.0,-96.0,90.0,50.0",
            "A,1,2019-05-01T12:00:10.500Z,41.1,-96.0,90.0,50.0",
        ]
    )
    records, _, _ = clean_sensor([src])
    return records


def test_clean_cv_joins_nearest_in_time():
    detections, drops, _ = clean_cv(
        [cv_csv(["A,1,2019-05-01T12:00:10.200Z,stop_sign,0.9"])], _sensor_for_join()
    )
    assert len(detections) == 1
    assert detections.lat[0] == 41.0  # the 10.0s sample is nearer
    assert drops["no_sensor_match"] == 0


def test_clean_cv_drops_far_detection():
    detections, drops, _ = clean_cv(
        [cv_csv(["A,1,2019-05-01T12:00:14.000Z,stop_sign,0.9"])], _sensor_for_join()
    )
    assert not detections
    assert drops["no_sensor_match"] == 1


def test_clean_cv_tie_breaks_to_earlier_sample():
    detections, _, _ = clean_cv(
        [cv_csv(["A,1,2019-05-01T12:00:10.250Z,stop_sign,0.9"])], _sensor_for_join()
    )
    assert detections.lat[0] == 41.0


def test_clean_cv_drops_unknown_class_and_bad_confidence():
    detections, drops, _ = clean_cv(
        [
            cv_csv(
                [
                    "A,1,2019-05-01T12:00:10.000Z,pedestrian,0.9",
                    "A,1,2019-05-01T12:00:10.000Z,stop_sign,1.5",
                ]
            )
        ],
        _sensor_for_join(),
    )
    assert not detections
    assert drops["unknown_class"] == 1
    assert drops["out_of_range"] == 1


def test_clean_tables_bundles_both_passes():
    sensor, sensor_drops, _ = clean_sensor(
        [sensor_csv(["A,1,2019-05-01T12:00:10.000Z,41.0,-96.0,90.0,50.0"])]
    )
    detections, cv_drops, _ = clean_cv(
        [cv_csv(["A,1,2019-05-01T12:00:10.100Z,stop_sign,0.9"])], sensor
    )
    assert len(sensor) == 1
    assert len(detections) == 1
    assert sum(sensor_drops.values()) == sum(cv_drops.values()) == 0


def test_clean_cv_all_outputs_within_tolerance():
    rng = random.Random(21)
    sensor = _sensor_for_join()
    rows = [
        f"A,1,2019-05-01T12:00:{rng.uniform(5, 15):06.3f}Z,stop_sign,0.9" for _ in range(50)
    ]
    detections, _, _ = clean_cv([cv_csv(rows)], sensor)
    for t in detections.t_us.tolist():
        assert np.abs(sensor.t_us - t).min() <= 500_000


def test_clean_sensor_drops_row_whose_time_precedes_year_one_in_utc():
    records, drops, _ = clean_sensor(
        [
            sensor_csv(
                [
                    "A,1,0001-01-01T00:30:00+01:00,41.0,-96.0,90.0,50.0",
                    "A,1,2019-05-01T12:00:00.000Z,41.0,-96.0,90.0,50.0",
                ]
            )
        ]
    )
    assert len(records) == 1
    assert drops["unparseable"] == 1


def test_clean_sensor_drops_row_without_time():
    # A short row leaves time_utc as None, which must count as unparseable.
    records, drops, _ = clean_sensor(
        [sensor_csv(["A,1", "A,1,2019-05-01T12:00:00.000Z,41.0,-96.0,90.0,50.0"])]
    )
    assert len(records) == 1
    assert drops["unparseable"] == 1


def test_clean_sensor_drops_time_with_junk_after_a_nul():
    # Python 3.11's fromisoformat reads "...Z\0junk" as "...Z".
    records, drops, _ = clean_sensor(
        [
            sensor_csv(
                [
                    "A,1,2019-05-01T12:00:10.000Z\0junk,41.0,-96.0,90.0,50.0",
                    "A,1,2019-05-01T12:00:11.000Z,41.0,-96.0,90.0,50.0",
                ]
            )
        ]
    )
    assert len(records) == 1
    assert drops["unparseable"] == 1
    with pytest.raises(ValueError):
        parse_time_utc("2019-05-01T12:00:10.000Z\0junk")


def test_clean_cv_drops_row_without_time():
    detections, drops, _ = clean_cv(
        [cv_csv(["A,1", "A,1,2019-05-01T12:00:10.000Z,stop_sign,0.9"])], _sensor_for_join()
    )
    assert len(detections) == 1
    assert drops["unparseable"] == 1


@pytest.mark.parametrize(
    "speed, cum",
    [("nan", "0.0"), ("inf", "0.0"), ("50.0", "nan"), ("50.0", "inf"), ("50.0", "-inf")],
)
def test_clean_sensor_drops_non_finite_speed_and_odometer(speed, cum):
    src = sensor_csv(
        [
            "A,1,2019-05-01T12:00:00.000Z,41.0,-96.0,90.0,50.0,0.0",
            f"A,1,2019-05-01T12:00:01.000Z,41.0,-96.0,90.0,{speed},{cum}",
        ],
        header=SENSOR_HEADER + ",cum_dist_ft",
    )
    records, drops, _ = clean_sensor([src])
    assert len(records) == 1
    assert drops == {"unparseable": 0, "out_of_range": 1, "duplicate": 0, "cum_dist_regression": 0}


# --- Detection readers ---------------------------------------------------------

GOOD_CV = "A,1,2019-05-01T12:00:10.000Z,stop_sign,0.9"


@pytest.mark.parametrize(
    "row, reason",
    [
        ("A,1,2019-05-01T12:00:10.000Z", "unparseable"),  # short row
        ("A,x,2019-05-01T12:00:10.000Z,stop_sign,0.9", "unparseable"),
        ("A,1,2019-05-01T12:00:10.000Q,stop_sign,0.9", "unparseable"),
        ("A,1,2019-05-01T12:00:10.000Z,stop_sign,x", "unparseable"),
        ("A,1,0001-01-01T00:30:00+01:00,stop_sign,0.9", "unparseable"),  # before year 1 in UTC
        (" ,1,2019-05-01T12:00:10.000Z,stop_sign,0.9", "unparseable"),
        ("A,1,2019-05-01T12:00:10.000Z,pedestrian,0.9", "unknown_class"),
        ("A,1,2019-05-01T12:00:10.000Z,stop_sign,1.5", "out_of_range"),
        # A row failing several checks counts under the first.
        (" ,1,2019-05-01T12:00:10.000Z,pedestrian,1.5", "unparseable"),
        ("A,1,2019-05-01T12:00:10.000Z,pedestrian,1.5", "unknown_class"),
        ("B,1,2019-05-01T12:00:10.000Z,stop_sign,0.9", "no_sensor_match"),
    ],
)
def test_clean_cv_counts_each_bad_row(row, reason):
    detections, drops, _ = clean_cv([cv_csv(["", GOOD_CV, "", row])], _sensor_for_join())
    assert len(detections) == 1
    assert drops == {k: int(k == reason) for k in drops}


def test_clean_cv_missing_column_raises_header_mismatch():
    bad = io.StringIO("subj,drive,time_utc,confidence\nA,1,2019-05-01T12:00:10.000Z,0.9\n")
    with pytest.raises(HeaderMismatchError, match="object_class"):
        clean_cv([bad], _sensor_for_join())


def test_clean_cv_finds_columns_by_name():
    src = io.StringIO("confidence,object_class,time_utc,drive,subj\n0.9,stop_sign,2019-05-01T12:00:10.000Z,1,A\n")
    assert clean_cv([src], _sensor_for_join()) == clean_cv([cv_csv([GOOD_CV])], _sensor_for_join())


def test_clean_detections_are_in_the_order_their_file_reads_back():
    # One millisecond of the file holds both rows, so confidence orders them.
    rows = [
        "A,1,2019-05-01T12:00:10.200002Z,stop_sign,0.9",
        "A,1,2019-05-01T12:00:10.200003Z,stop_sign,0.5",
    ]
    table, _, _ = clean_cv([cv_csv(rows)], _sensor_for_join())
    out = io.StringIO(newline="")
    write_detections_csv(table, out)
    loaded = read_clean_detections(io.StringIO(out.getvalue(), newline=""))
    assert loaded == table
    again = io.StringIO(newline="")
    write_detections_csv(loaded, again)
    assert again.getvalue() == out.getvalue()


def test_inputs_with_a_byte_order_mark_clean_alike(tmp_path):
    sensor_rows = ["A,1,2019-05-01T12:00:10.000Z,41.0,-96.0,90.0,50.0"]
    cleaned = []
    for bom in ("", "\ufeff"):
        sensor, cv = tmp_path / f"sensor{len(bom)}.csv", tmp_path / f"cv{len(bom)}.csv"
        sensor.write_text(bom + sensor_csv(sensor_rows).getvalue(), encoding="utf-8")
        cv.write_text(bom + cv_csv([GOOD_CV]).getvalue(), encoding="utf-8")
        table, sensor_drops, _ = clean_sensor([sensor])
        detections, cv_drops, _ = clean_cv([cv], table)
        out = io.StringIO(newline="")
        write_sensor_csv(table, out)
        write_detections_csv(detections, out)
        cleaned.append((out.getvalue(), sensor_drops, cv_drops))
    assert cleaned[0] == cleaned[1]
    assert len(cleaned[0][0].splitlines()) == 4  # two headers, two rows


CLEAN_CV_HEADER = "subj,drive,time_utc,lat,lon,object_class,confidence"
CLEAN_CV_ROW = "A,1,2019-05-01T12:00:10.000Z,41.0,-96.0,stop_sign,0.9"


@pytest.mark.parametrize(
    "row",
    [
        "A,1,2019-05-01T12:00:10.000Z,41.0,-96.0,stop_sign",
        "A,x,2019-05-01T12:00:10.000Z,41.0,-96.0,stop_sign,0.9",
        "A,1,2019-05-01T12:00:10.000Q,41.0,-96.0,stop_sign,0.9",
        "A,1,2019-05-01T12:00:10.000Z,91.0,-96.0,stop_sign,0.9",
        "A,1,2019-05-01T12:00:10.000Z,41.0,nan,stop_sign,0.9",
        "A,1,2019-05-01T12:00:10.000Z,41.0,-96.0,stop_sign,x",
        "A,1,2019-05-01T12:00:10.000Z,41.0,-96.0,bogus,0.9",
        "A,1,2019-05-01T12:00:10.000Z,41.0,-96.0,stop_sign,1.5",
        "A,1,2019-05-01T12:00:10.000Z,41.0,-96.0,stop_sign,nan",
        ",1,2019-05-01T12:00:10.000Z,41.0,-96.0,stop_sign,0.9",
    ],
    ids=[
        "short-row",
        "drive-x",
        "bad-time",
        "lat-91",
        "lon-nan",
        "confidence-x",
        "unknown-class",
        "confidence-1.5",
        "confidence-nan",
        "empty-subj",
    ],
)
def test_read_clean_detections_bad_row_names_its_line(row):
    src = io.StringIO(f"{CLEAN_CV_HEADER}\n{CLEAN_CV_ROW}\n{row}\n")
    with pytest.raises(DataError, match="line 3") as info:
        read_clean_detections(src)
    assert repr(row.split(",")) in str(info.value)


@pytest.mark.parametrize("text", ["", "subj,drive,time_utc,lat,lon,confidence\n"])
def test_read_clean_detections_missing_columns_raise_header_mismatch(text):
    with pytest.raises(HeaderMismatchError):
        read_clean_detections(io.StringIO(text))


def test_read_clean_detections_skips_blank_lines_and_finds_columns_by_name():
    det = read_clean_detections(io.StringIO(f"{CLEAN_CV_HEADER}\n\n{CLEAN_CV_ROW}\n\n"))
    t = to_us(datetime(2019, 5, 1, 12, 0, 10, tzinfo=timezone.utc))
    assert row_tuples(det) == [("A", 1, t, 41.0, -96.0, CLASS_NAMES.index("stop_sign"), 0.9)]
    shuffled = "confidence,object_class,lon,lat,time_utc,drive,subj,extra\n0.9,stop_sign,-96.0,41.0,2019-05-01T12:00:10.000Z,1,A,x\n"
    assert read_clean_detections(io.StringIO(shuffled)) == det


# Fields for the reader property tests: valid values of every column, edge
# values, and arbitrary text (quotes, commas, newlines and NULs included).
ANY_FIELD = st.one_of(
    st.sampled_from(
        ["A", " A ", "1", "x", "2019-05-01T12:00:10.000Z", "2019-05-01T14:00:10.2+02:00",
         "0001-01-01T00:30:00+01:00", "41.0", "-96.0", "91", "nan", "inf", "-0.0",
         "stop_sign", "signal_state", " stop_sign ", "0.9", "1.5", "",
         "2019-05-01T12:00:10.000Z\0junk"]
    ),
    st.text(max_size=6),
)


def _csv_text(header, rows):
    out = io.StringIO(newline="")
    w = csv.writer(out, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return out.getvalue()


def _data_rows(text):
    """(line, row) of each non-blank data row, as the readers see them."""
    reader = csv.reader(io.StringIO(text, newline=""))
    next(reader)
    return [(reader.line_num, row) for row in reader if row]


@st.composite
def case_and_rows(draw, cases, spare, max_rows):
    """One of ``cases`` (header, good row, ...) and rows for it, each the
    good row with at most one field replaced, or arbitrary fields, up to
    ``spare`` more than the good row has."""
    case = draw(st.sampled_from(cases))
    good = case[1].split(",")
    rows = []
    for _ in range(draw(st.integers(0, max_rows))):
        row = list(good)
        if draw(st.booleans()):
            row = draw(st.lists(ANY_FIELD, max_size=len(good) + spare))
        elif draw(st.booleans()):
            row[draw(st.integers(0, len(row) - 1))] = draw(ANY_FIELD)
        rows.append(row)
    return case, rows


GOOD_SENSOR = "A,1,2019-05-01T12:00:10.000Z,41.0,-96.0,90.0,50.0"
CUM_HEADER = SENSOR_HEADER + ",cum_dist_ft"

# (header, good row, cleaner) of raw detection files and of raw sensor
# files without and with the odometer.
RAW_CASES = [
    (CV_HEADER, GOOD_CV, lambda src: clean_cv([src], _sensor_for_join())),
    (SENSOR_HEADER, GOOD_SENSOR, lambda src: clean_sensor([src])),
    (CUM_HEADER, GOOD_SENSOR + ",0.0", lambda src: clean_sensor([src])),
]


@settings(max_examples=900, deadline=None)
@given(case_and_rows(RAW_CASES, spare=2, max_rows=8))
def test_arbitrary_raw_detection_rows_are_kept_or_counted(case_rows):
    (header, _, clean), rows = case_rows
    text = _csv_text(header.split(","), rows)
    table, drops, read = clean(io.StringIO(text, newline=""))
    assert read == len(_data_rows(text)) == len(table) + sum(drops.values())


# (header, good row, reader) of the clean detection and sensor tables.
CLEAN_CASES = [
    (CLEAN_CV_HEADER, CLEAN_CV_ROW, read_clean_detections),
    (CUM_HEADER, GOOD_SENSOR + ",0.0", read_clean_sensor),
]


@settings(max_examples=600, deadline=None)
@given(case_and_rows(CLEAN_CASES, spare=1, max_rows=6))
def test_arbitrary_clean_detection_rows_load_or_name_their_line(case_rows):
    (header, _, read_clean), rows = case_rows
    text = _csv_text(header.split(","), rows)
    data = _data_rows(text)
    try:
        table = read_clean(io.StringIO(text, newline=""))
    except DataError as exc:
        line = int(re.search(r"at line (\d+): ", str(exc)).group(1))
        assert str(exc).endswith(repr(dict(data)[line]))
    else:
        assert len(table) == len(data)


# Field texts of the chunk-path differential test, per column: valid values
# in several spellings, and then anomalies of any column.
VALID_FIELDS = {
    "subj": st.sampled_from(["A", "B", "S01", " A ", '"A,1"', '"A""B"', '"A\nB"', '"A\r\nB"']),
    "drive": st.sampled_from(["1", "2", "12", " 3"]),
    "time_utc": st.datetimes(
        min_value=datetime(1, 1, 2),
        max_value=datetime(9999, 12, 30),
        timezones=st.just(timezone.utc),
    ).map(format_time_utc)
    | st.sampled_from(
        ["2019-05-01T12:00:10Z", "2019-05-01T14:00:10.2+02:00", " 2019-05-01T12:00:10.000Z"]
    ),
    "lat": st.floats(-90, 90).map(repr),
    "lon": st.floats(-180, 180).map(repr),
    "heading_deg": st.floats(0, 359.9).map(repr),
    "speed_fps": st.floats(0, 100).map(repr) | st.sampled_from(["5", " 5.5 ", "+1e1", "5."]),
    "cum_dist_ft": st.floats(0, 1e6).map(repr),
    "object_class": st.sampled_from([*ingest.OBJECT_CLASSES, " stop_sign "]),
    "confidence": st.floats(0, 1).map(repr),
    "extra": st.sampled_from(["x", ""]),
}
ODD_FIELDS = st.sampled_from(
    ["", " ", "x", "nan", "-nan", "inf", "-0.0", "91", "-181", "1.5", "360", "-1", "1_0", "0x10",
     "\uff11", "1e999", 'A"B', "2019-05-01T12:00:10.000Z\0", "2019-05-01T12:00:10.000Z0",
     "2019-02-29T12:00:10.000Z", "0000-05-01T12:00:10.000Z", "pedestrian", "A\0",
     "2019-05-01T12:00:10.000Z\0junk"]
) | st.text(max_size=4)
# Whole lines other than rows: blank, whitespace-only and short.
ODD_LINES = st.sampled_from(["", " ", "\t", "A,1", "A"])

# (table, raw, header) of each file the differential test draws.
CHUNK_CASES = [
    (ingest.SensorTable, True, SENSOR_HEADER),
    (ingest.SensorTable, True, CUM_HEADER),
    (ingest.SensorTable, False, CUM_HEADER),
    (ingest.DetectionTable, True, CV_HEADER),
    (ingest.DetectionTable, False, CLEAN_CV_HEADER),
    (ingest.DetectionTable, False, "confidence,object_class,lon,lat,time_utc,drive,subj,extra"),
]


@st.composite
def chunked_files(draw):
    """A case of CHUNK_CASES and its file's text: mostly valid rows, some
    with an odd field, odd lines among them, each line ending in \\n, \\r\\n
    or \\r."""
    cls, raw, header = draw(st.sampled_from(CHUNK_CASES))
    columns = header.split(",")
    lines = [header]
    for _ in range(draw(st.integers(0, 16))):
        kind = draw(st.sampled_from(["row"] * 6 + ["odd field", "odd line"]))
        if kind == "odd line":
            lines.append(draw(ODD_LINES))
            continue
        row = [draw(VALID_FIELDS[c]) for c in columns]
        if kind == "odd field":
            row[draw(st.integers(0, len(row) - 1))] = draw(ODD_FIELDS)
        lines.append(",".join(row))
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    return cls, raw, "".join(map(str.__add__, lines, ends))


def _parsed(cls, raw, text):
    """What _parse_csv gives for a file: its columns, as bytes so that a
    float's sign and NaN bits count, its row count and its bad rows."""
    calls = []
    columns, read = ingest._parse_csv(
        io.StringIO(text, newline=""), cls, raw, lambda *call: calls.append(call)
    )
    return {
        name: list(c) if isinstance(c, list) else (c.dtype, c.tobytes())
        for name, c in columns.items()
    }, read, calls


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("chunk_rows", [1, 2, 7])
@settings(max_examples=300, deadline=None)
@given(chunked_files())
# A NUL after a canonical time, which a str field would drop.
@example(case=(ingest.SensorTable, True, SENSOR_HEADER + "\n" + GOOD_SENSOR.replace("Z", "Z\0")))
# A subject quoted over two lines, then a bad row: its line number counts both.
@example(
    case=(ingest.DetectionTable, False, f'{CLEAN_CV_HEADER}\n"A\nB"{CLEAN_CV_ROW[1:]}\n,{CLEAN_CV_ROW}')
)
def test_chunk_path_parses_as_the_row_path(chunk_rows, case):
    cls, raw, text = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_parse_chunk", lambda *args: None)
        rows = _parsed(cls, raw, text)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_CHUNK_ROWS", chunk_rows)
        assert _parsed(cls, raw, text) == rows


# Every float64 bit pattern, mostly through st.floats(), and NaNs of other
# signs and payloads, infinities and subnormals by their bits.
def _bits(*values):
    return [int(np.float64(x).view(np.int64)) for x in values]


FLOAT_BITS = st.floats().map(lambda x: _bits(x)[0]) | st.integers(-(2**63), 2**63 - 1)


@settings(max_examples=500, deadline=None)
@given(st.lists(FLOAT_BITS, max_size=30), st.integers(0, 30))
@example(_bits(0.0, -0.0, 0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324), 9)
@example([0x7FF8000000000000, 0x7FF0000000000001, -1, -(2**63), 0], 5)
def test_float_render_is_repr_of_each_value(bits, repeats):
    # Repeats of the leading values share one rendering each.
    column = np.array(bits + bits[:repeats], dtype=np.int64).view(np.float64)
    assert ingest._per_value(repr, column) == list(map(repr, column.tolist()))


def _tuple_drive_codes(subj, drive):
    """Keys and codes as a sorted set of (subj, drive) tuples gives them."""
    pairs = list(zip(subj, drive))
    keys = sorted(set(pairs))
    return keys, [keys.index(pair) for pair in pairs]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["", "A", " A", "A ", "B", "a"]),
            st.integers(-3, 12) | st.sampled_from([2**63, 2**70, -(2**64)]),
        ),
        max_size=30,
    )
)
def test_drive_codes_are_the_sorted_distinct_keys(pairs):
    subj, drive = [p[0] for p in pairs], [p[1] for p in pairs]
    keys, codes = ingest._drive_codes(subj, drive)
    assert (keys, codes.tolist()) == _tuple_drive_codes(subj, drive)


T0 = datetime(2019, 5, 1, 12, tzinfo=timezone.utc)
# Drive and subject texts, several of which give one key, and some that do
# not parse.
KEY_SUBJ = st.sampled_from(["A", " A", "A ", "B", "", " "])
KEY_DRIVE = st.sampled_from(["1", "01", " 1", "1 ", "+1", "1_0", "10", "x", "", "99999999999999999999"])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(KEY_SUBJ, KEY_DRIVE, st.booleans()), max_size=40))
@example([("A", "1", False), ("A", "01", False), ("A", " 1", False), ("A", "1_0", False)])
@example([(" A", "x", False), ("A", "x", True), ("A ", "1", False), ("A", "1", False)])
def test_drive_keys_parse_as_each_rows_texts_would(rows):
    # Reference: each row's subj stripped and its drive through int(); a
    # text that does not parse, or an empty subj, drops every row holding it.
    # A quoted subject sends the file's chunk down the csv.reader path.
    lines, kept = [], []
    for k, (subj, drive, quoted) in enumerate(rows):
        time = format_time_utc(T0 + timedelta(seconds=k))
        text = f'"{subj}"' if quoted else subj
        lines.append(f"{text},{drive},{time},41.0,-96.0,90.0,50.0")
        try:
            key = (subj.strip(), int(drive))
        except ValueError:
            continue
        if key[0]:
            kept.append(key)
    table, drops, read = clean_sensor([sensor_csv(lines)])
    keys = sorted(set(kept))
    assert table.keys == keys
    assert np.diff(table.offsets).tolist() == [kept.count(key) for key in keys]
    assert drops["unparseable"] == len(rows) - len(kept) and read == len(rows)
    out = io.StringIO(newline="")
    write_sensor_csv(table, out)
    assert read_clean_sensor(io.StringIO(out.getvalue(), newline="")).keys == keys


def test_loadtxt_reads_no_integer_field(monkeypatch):
    # numpy's loadtxt can crash on repeated integer conversion errors; see
    # the column kinds in ingest.
    dtypes, real = [], np.loadtxt

    def loadtxt(*args, dtype, **kwargs):
        dtypes.extend(dtype[name] for name in dtype.names)
        return real(*args, dtype=dtype, **kwargs)

    monkeypatch.setattr(np, "loadtxt", loadtxt)
    rows = ["A,1,2019-05-01T12:00:10.000Z,41.0,-96.0,90.0,50.0,0.0"]
    sensor, _, _ = clean_sensor([sensor_csv(rows, header=CUM_HEADER)])
    detections, _, _ = clean_cv([cv_csv([GOOD_CV])], _sensor_for_join())
    out = io.StringIO(newline="")
    write_sensor_csv(sensor, out)
    read_clean_sensor(io.StringIO(out.getvalue(), newline=""))
    out = io.StringIO(newline="")
    write_detections_csv(detections, out)
    read_clean_detections(io.StringIO(out.getvalue(), newline=""))
    assert {d.kind for d in dtypes} == {"f", "U", "O"}


def _ingest_functions_naming(*names) -> set[str]:
    """The top-level functions and methods of ingest that name any of
    ``names``, such as "csv.reader", or ".write" for any write method."""
    found = set()
    for node in ast.parse(Path(ingest.__file__).read_text(encoding="utf-8")).body:
        for fn in node.body if isinstance(node, ast.ClassDef) else [node]:
            for sub in ast.walk(fn) if isinstance(fn, ast.FunctionDef) else ():
                if isinstance(sub, ast.Attribute) and "." + sub.attr in names:
                    found.add(fn.name)
                if isinstance(sub, (ast.Name, ast.Attribute)) and ast.unparse(sub) in names:
                    found.add(fn.name)
    return found


def test_one_function_parses_and_one_renders_the_table_csvs():
    # Both tables' CSVs go through one parser and one writer; a per-table
    # copy of either is a regression.
    assert len(_ingest_functions_naming("csv.reader")) == 1
    assert len(_ingest_functions_naming("np.loadtxt")) == 1
    renders = _ingest_functions_naming("csv.writer", ".write", "write_csv", "repr", "_time_texts")
    assert len(renders) == 1, renders
