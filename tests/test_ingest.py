import csv
import io
import random
import re
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intxn_pipeline.errors import DataError, HeaderMismatchError, StorageNotFoundError
from intxn_pipeline.geo import FT_PER_DEG, GeoPoint, haversine_distance_ft
from intxn_pipeline.ingest import (
    SensorRecord,
    SensorTable,
    clean_cv,
    clean_sensor,
    compute_cum_dist,
    format_time_utc,
    parse_time_utc,
    read_clean_detections,
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
    assert records[0].cum_dist_ft == 0.0
    assert records[1].cum_dist_ft > 0.0


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
    assert [(r.subj, r.drive) for r in records] == [("A", 2), ("B", 1)]


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
    assert [r.cum_dist_ft for r in records] == [0.0, 50.0, 100.0]
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


def _meridian_records(n, spacing_ft=50.0, subj="A", drive=1):
    t0 = datetime(2019, 5, 1, 12, 0, tzinfo=timezone.utc)
    return [
        SensorRecord(
            subj,
            drive,
            t0 + timedelta(seconds=i),
            GeoPoint(41.0 + i * spacing_ft / FT_PER_DEG, -96.0),
            0.0,
            spacing_ft,
            0.0,
        )
        for i in range(n)
    ]


def test_compute_cum_dist_single_record():
    recs = compute_cum_dist(SensorTable.from_records(_meridian_records(1)))
    assert [r.cum_dist_ft for r in recs] == [0.0]


def test_compute_cum_dist_two_records_100ft_apart():
    t0 = datetime(2019, 5, 1, 12, 0, tzinfo=timezone.utc)
    a = GeoPoint(41.0, -96.0)
    b = GeoPoint(41.0 + 100.0 / FT_PER_DEG, -96.0)
    recs = compute_cum_dist(
        SensorTable.from_records(
            [
                SensorRecord("A", 1, t0, a, 0.0, 50.0, 0.0),
                SensorRecord("A", 1, t0 + timedelta(seconds=2), b, 0.0, 50.0, 0.0),
            ]
        )
    )
    assert recs[0].cum_dist_ft == 0.0
    assert recs[1].cum_dist_ft == pytest.approx(100.0, abs=1e-6)


def test_compute_cum_dist_stationary():
    t0 = datetime(2019, 5, 1, 12, 0, tzinfo=timezone.utc)
    p = GeoPoint(41.0, -96.0)
    recs = compute_cum_dist(
        SensorTable.from_records(
            [SensorRecord("A", 1, t0 + timedelta(seconds=i), p, 0.0, 0.0, 0.0) for i in range(5)]
        )
    )
    assert [r.cum_dist_ft for r in recs] == [0.0] * 5


def test_compute_cum_dist_nondecreasing_and_sums():
    rng = random.Random(5)
    t0 = datetime(2019, 5, 1, 12, 0, tzinfo=timezone.utc)
    raw = []
    lat, lon = 41.0, -96.0
    for i in range(100):
        lat += rng.uniform(-1e-4, 1e-4)
        lon += rng.uniform(-1e-4, 1e-4)
        raw.append(SensorRecord("A", 1, t0 + timedelta(seconds=i), GeoPoint(lat, lon), 0.0, 1.0, 0.0))
    recs = compute_cum_dist(SensorTable.from_records(raw))
    cums = [r.cum_dist_ft for r in recs]
    assert all(c1 <= c2 for c1, c2 in zip(cums, cums[1:]))
    total = sum(
        haversine_distance_ft(raw[i].pos, raw[i + 1].pos) for i in range(len(raw) - 1)
    )
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
    assert detections[0].pos.lat_deg == 41.0  # the 10.0s sample is nearer
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
    assert detections[0].pos.lat_deg == 41.0


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
    from intxn_pipeline.ingest import clean_tables

    tables = clean_tables(
        [sensor_csv(["A,1,2019-05-01T12:00:10.000Z,41.0,-96.0,90.0,50.0"])],
        [cv_csv(["A,1,2019-05-01T12:00:10.100Z,stop_sign,0.9"])],
    )
    assert len(tables.sensor) == 1
    assert len(tables.detections) == 1
    assert set(tables.drop_report) == {"sensor", "detections"}


def test_clean_cv_all_outputs_within_tolerance():
    rng = random.Random(21)
    sensor = _sensor_for_join()
    rows = [
        f"A,1,2019-05-01T12:00:{rng.uniform(5, 15):06.3f}Z,stop_sign,0.9" for _ in range(50)
    ]
    detections, _, _ = clean_cv([cv_csv(rows)], sensor)
    times = [r.t_utc for r in sensor]
    for det in detections:
        assert min(abs((det.t_utc - t).total_seconds()) for t in times) <= 0.5


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
    (det,) = read_clean_detections(io.StringIO(f"{CLEAN_CV_HEADER}\n\n{CLEAN_CV_ROW}\n\n"))
    assert (det.subj, det.drive, det.pos, det.object_class, det.confidence) == (
        "A", 1, GeoPoint(41.0, -96.0), "stop_sign", 0.9
    )
    shuffled = "confidence,object_class,lon,lat,time_utc,drive,subj,extra\n0.9,stop_sign,-96.0,41.0,2019-05-01T12:00:10.000Z,1,A,x\n"
    assert list(read_clean_detections(io.StringIO(shuffled))) == [det]


# Fields for the reader property tests: valid values of every column, edge
# values, and arbitrary text (quotes, commas, newlines and NULs included).
ANY_FIELD = st.one_of(
    st.sampled_from(
        ["A", " A ", "1", "x", "2019-05-01T12:00:10.000Z", "2019-05-01T14:00:10.2+02:00",
         "0001-01-01T00:30:00+01:00", "41.0", "-96.0", "91", "nan", "inf", "-0.0",
         "stop_sign", "signal_state", " stop_sign ", "0.9", "1.5", ""]
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
def raw_detection_row(draw):
    """A good raw row with at most one field replaced, or arbitrary fields."""
    row = GOOD_CV.split(",")
    if draw(st.booleans()):
        return draw(st.lists(ANY_FIELD, max_size=7))
    if draw(st.booleans()):
        row[draw(st.integers(0, len(row) - 1))] = draw(ANY_FIELD)
    return row


@settings(max_examples=300, deadline=None)
@given(st.lists(raw_detection_row(), max_size=8))
def test_arbitrary_raw_detection_rows_are_kept_or_counted(rows):
    text = _csv_text(CV_HEADER.split(","), rows)
    table, drops, read = clean_cv([io.StringIO(text, newline="")], _sensor_for_join())
    assert read == len(_data_rows(text)) == len(table) + sum(drops.values())


@st.composite
def clean_detection_row(draw):
    """A good clean row with at most one field replaced, or arbitrary fields."""
    row = CLEAN_CV_ROW.split(",")
    if draw(st.booleans()):
        return draw(st.lists(ANY_FIELD, max_size=8))
    if draw(st.booleans()):
        row[draw(st.integers(0, len(row) - 1))] = draw(ANY_FIELD)
    return row


@settings(max_examples=300, deadline=None)
@given(st.lists(clean_detection_row(), max_size=6))
def test_arbitrary_clean_detection_rows_load_or_name_their_line(rows):
    text = _csv_text(CLEAN_CV_HEADER.split(","), rows)
    data = _data_rows(text)
    try:
        table = read_clean_detections(io.StringIO(text, newline=""))
    except DataError as exc:
        line = int(re.search(r"at line (\d+): ", str(exc)).group(1))
        assert str(exc).endswith(repr(dict(data)[line]))
    else:
        assert len(table) == len(data)
