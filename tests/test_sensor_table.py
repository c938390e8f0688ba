"""The clean sensor table: its reader's contract and its reuse across stages.

``read_clean_sensor`` must raise on every malformed row, skip blank lines,
parse every timestamp form the old ``DictReader`` path parsed, and round-trip
``write_sensor_csv``. The CLI's store parses the table once per content
within one process and hands it to traj, clips and template. The columnar
``SensorTable`` holds the sorted list of its row tuples, computes the
odometer bit for bit as the scalar haversine sum, and parses a time column
as ``parse_time_utc`` parses each time.
"""

import io
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import row_tuples, table_of

from intxn_pipeline import cli, ingest, storage
from intxn_pipeline.errors import DataError, HeaderMismatchError
from intxn_pipeline.geo import GeoPoint, haversine_distance_ft
from intxn_pipeline.ingest import (
    SensorTable,
    format_time_utc,
    parse_time_utc,
    read_clean_sensor,
    to_us,
    write_sensor_csv,
)

HEADER = "subj,drive,time_utc,lat,lon,heading_deg,speed_fps,cum_dist_ft"
GOOD = "A,1,2019-05-01T12:00:00.000Z,41.0,-96.0,90.0,50.0,0.0"


def table(*rows, header=HEADER):
    return io.StringIO(header + "\n" + "".join(row + "\n" for row in rows))


def old_parse_time_utc(text: str) -> datetime:
    """The timestamp parser before its fromisoformat fast path."""
    raw = text.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    dt = datetime.fromisoformat(raw)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc)


def outcome(parse, text):
    try:
        dt = parse(text)
    except Exception as exc:  # the two parsers must fail alike
        return type(exc)
    return dt, dt.tzinfo, format_time_utc(dt)


def test_good_table_reads():
    t = to_us(datetime(2019, 5, 1, 12, tzinfo=timezone.utc))
    assert row_tuples(read_clean_sensor(table(GOOD))) == [("A", 1, t, 41.0, -96.0, 90.0, 50.0, 0.0)]


@pytest.mark.parametrize(
    "row",
    [
        "A,1,2019-05-01T12:00:00.000Z,41.0,-96.0,90.0,50.0",
        "A,x,2019-05-01T12:00:00.000Z,41.0,-96.0,90.0,50.0,0.0",
        "A,1,2019-05-01T12:00:00.000Q,41.0,-96.0,90.0,50.0,0.0",
        "A,1,2019-05-01T12:00:00.000Z,91.0,-96.0,90.0,50.0,0.0",
        "A,1,2019-05-01T12:00:00.000Z,41.0,nan,90.0,50.0,0.0",
        "A,1,2019-05-01T12:00:00.000Z,41.0,-96.0,90.0,50.0,x",
    ],
    ids=["short-row", "drive-x", "bad-time", "lat-91", "lon-nan", "cum-x"],
)
def test_bad_row_raises_data_error_naming_the_row(row):
    with pytest.raises(DataError, match="line 3") as info:
        read_clean_sensor(table(GOOD, row))
    assert repr(row.split(",")) in str(info.value)


@pytest.mark.parametrize("chunk_rows", [1, 2, ingest._CHUNK_ROWS])
def test_first_bad_row_is_named_in_any_chunk(monkeypatch, chunk_rows):
    monkeypatch.setattr(ingest, "_CHUNK_ROWS", chunk_rows)
    short = "A,1,2019-05-01T12:00:01.000Z,41.0"
    lat_91 = "A,1,2019-05-01T12:00:02.000Z,91.0,-96.0,90.0,50.0,0.0"
    bad_time = "A,1,2019-05-01T12:00:03.000Q,41.0,-96.0,90.0,50.0,0.0"
    with pytest.raises(DataError, match="line 4"):
        read_clean_sensor(table(GOOD, "", lat_91, short, bad_time))


def test_missing_column_raises_header_mismatch():
    header = HEADER.replace(",speed_fps", "")
    with pytest.raises(HeaderMismatchError, match="speed_fps"):
        read_clean_sensor(table("A,1,2019-05-01T12:00:00.000Z,41.0,-96.0,90.0,0.0", header=header))


def test_empty_file_raises_header_mismatch():
    with pytest.raises(HeaderMismatchError):
        read_clean_sensor(io.StringIO(""))


def test_blank_lines_are_skipped():
    second = GOOD.replace("12:00:00.000Z", "12:00:01.000Z")
    sensor = read_clean_sensor(table("", GOOD, "", "", second, ""))
    assert (sensor.t_us // 10**6 % 60).tolist() == [0, 1]


def test_columns_are_found_by_name():
    header = "cum_dist_ft,speed_fps,heading_deg,lon,lat,time_utc,drive,subj,extra"
    row = "0.0,50.0,90.0,-96.0,41.0,2019-05-01T12:00:00.000Z,1,A,ignored"
    assert read_clean_sensor(table(row, header=header)) == read_clean_sensor(table(GOOD))


@pytest.mark.parametrize(
    "text",
    [
        "2019-05-01T14:03:22.500Z",
        "2019-05-01T14:03:22.500+00:00",
        "2019-05-01T14:03:22.500-00:00",
        "2019-05-01T16:03:22.500+02:00",
        "2019-05-01T14:03:22.500",
        "2019-05-01T14:03:22.500z",
        "  2019-05-01T14:03:22.500Z \t",
        "2019-05-01 14:03:22Z",
        "0001-01-01T00:30:00+01:00",
        "2019-05-01T14:03:22.500Zulu",
        "",
    ],
)
def test_time_forms_parse_as_before(text):
    assert outcome(parse_time_utc, text) == outcome(old_parse_time_utc, text)


def _time_text():
    zones = st.sampled_from(
        [None, timezone.utc, timezone(timedelta(hours=2)), timezone(timedelta(hours=-5, minutes=-30))]
    )
    stamps = st.builds(
        lambda dt, spec, sep: dt.isoformat(sep=sep, timespec=spec),
        st.datetimes(timezones=zones),
        st.sampled_from(["auto", "seconds", "milliseconds", "microseconds"]),
        st.sampled_from(["T", " "]),
    )
    zulu = stamps.map(lambda s: s.replace("+00:00", "Z")) | stamps.map(lambda s: s.replace("+00:00", "z"))
    padded = st.builds(lambda pre, s, post: pre + s + post, st.sampled_from(["", " ", "\t"]), stamps | zulu, st.sampled_from(["", " ", "\n"]))
    return stamps | zulu | padded | st.text(max_size=40)


@settings(max_examples=400, deadline=None)
@given(_time_text())
def test_time_parse_matches_old_parser(text):
    assert outcome(parse_time_utc, text) == outcome(old_parse_time_utc, text)


# Sensor rows as row_tuples gives them: subj, drive, t_us, lat, lon,
# heading, speed, cum.
_records = st.tuples(
    st.text(st.characters(blacklist_categories=("Cs", "Cc")), max_size=6),
    st.integers(-(10**12), 10**12),
    st.datetimes(timezones=st.just(timezone.utc)).map(lambda dt: to_us(dt) // 1000 * 1000),
    st.floats(-90.0, 90.0),
    st.floats(-180.0, 180.0),
    st.floats(allow_nan=False),
    st.floats(allow_nan=False),
    st.floats(allow_nan=False),
)


def _sorted(records):
    """Sensor row tuples in the table's order: by (subj, drive, time), ties kept."""
    return sorted(records, key=lambda r: r[:3])


@settings(max_examples=200, deadline=None)
@given(st.lists(_records, max_size=8))
def test_write_then_read_round_trips(records):
    table = table_of(SensorTable, records)
    assert row_tuples(table) == _sorted(records)
    buf = io.StringIO(newline="")
    write_sensor_csv(table, buf)
    buf.seek(0)
    assert read_clean_sensor(buf) == table


# --- One parse per content within a process --------------------------------


@pytest.fixture()
def reviewed_workspace(tmp_path, monkeypatch):
    """A synth study run through import-review, with nothing stored yet."""
    config = tmp_path / "pipeline.json"
    config.write_text("{}")
    for stage in ("synth", "clean", "lrs-intxns", "subj-intxns", "export-kml", "import-review"):
        assert cli.main([stage, "--config", str(config)]) == 0, stage
    monkeypatch.setattr(cli, "_store", storage.Store())
    return tmp_path, config


def test_post_review_stages_parse_the_table_once(reviewed_workspace, monkeypatch):
    ws, config = reviewed_workspace
    calls = []
    read = ingest.read_clean_sensor

    def counting(source):
        calls.append(source)
        return read(source)

    monkeypatch.setattr(ingest, "read_clean_sensor", counting)
    for stage in ("traj", "clips", "template"):
        assert cli.main([stage, "--config", str(config)]) == 0, stage
    # One parse, of the bytes read from the file, in a stream named for it.
    path = ws / "out" / "clean_sensor.csv"
    assert [(c.name, c.buffer.getvalue()) for c in calls] == [(str(path), path.read_bytes())]
    # The stored table is still what the file holds.
    assert cli._store["clean_sensor"][1] == read(ws / "out" / "clean_sensor.csv")


def test_rewritten_table_is_parsed_again(reviewed_workspace, capsys):
    ws, config = reviewed_workspace
    assert cli.main(["traj", "--config", str(config)]) == 0
    # Drop the drive of the first trajectory; path, size class and name stay.
    first = (ws / "out" / "trajectories.csv").read_text().splitlines()[1].split(",")
    sensor_path = ws / "out" / "clean_sensor.csv"
    records = row_tuples(read_clean_sensor(sensor_path))
    kept = [r for r in records if (r[0], str(r[1])) != (first[1], first[2])]
    assert 0 < len(kept) < len(records)
    write_sensor_csv(table_of(SensorTable, kept), sensor_path)
    capsys.readouterr()
    assert cli.main(["clips", "--config", str(config)]) == 2
    assert "no sensor data for trajectory" in capsys.readouterr().err
    assert row_tuples(cli._store["clean_sensor"][1]) == kept


# --- The columnar table ------------------------------------------------------

_drive_records = st.tuples(
    st.sampled_from(["A", "B", "B\x00", 'q"']),
    st.sampled_from([1, 2, 2**70, -5]),
    st.datetimes(timezones=st.just(timezone.utc)).map(to_us),
    st.floats(-90.0, 90.0),
    st.floats(-180.0, 180.0),
    st.floats(0.0, 359.0),
    st.floats(0.0, 100.0),
    st.floats(0.0, 1e6),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_drive_records, max_size=10), st.integers(-12, 12), st.integers(-12, 12))
def test_table_rows_slices_and_keys_behave_like_the_sorted_list(records, i, j):
    table = table_of(SensorTable, records)
    rows = _sorted(records)
    assert row_tuples(table) == rows and len(table) == len(rows)
    assert table.keys == sorted({r[:2] for r in rows})
    part = table[i:j]
    assert row_tuples(part) == rows[i:j]
    assert part.keys == list(dict.fromkeys(r[:2] for r in rows[i:j]))
    assert part == table_of(SensorTable, rows[i:j])
    with pytest.raises(TypeError):
        table[i]


def test_table_columns_are_read_only_and_compare_by_value():
    sensor = read_clean_sensor(table(GOOD))
    with pytest.raises(ValueError):
        sensor.cum[0] = 1.0
    assert sensor == read_clean_sensor(table(GOOD))
    assert sensor != row_tuples(sensor)
    with pytest.raises(TypeError):
        list(sensor)


_positions = st.tuples(st.floats(-90.0, 90.0), st.floats(-180.0, 180.0)) | st.tuples(
    st.floats(41.0, 41.001), st.floats(-96.001, -96.0)
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_positions, min_size=1, max_size=30))
# numpy's x**2 multiplies; Python's calls pow, which differs here in the last bit.
@example([(41.00026136551726, 2.0), (-54.013463532373166, 0.0)])
def test_odometer_is_bitwise_the_scalar_haversine_sum(track):
    t0 = datetime(2019, 5, 1, 12, tzinfo=timezone.utc)
    positions = [GeoPoint(lat, lon) for lat, lon in track]
    expected, cum = [0.0], 0.0
    for a, b in zip(positions, positions[1:]):
        cum += haversine_distance_ft(a, b)
        expected.append(cum)
    # A raw file without the odometer column has it recomputed.
    raw = "subj,drive,time_utc,lat,lon,heading_deg,speed_fps\n" + "".join(
        f"A,1,{format_time_utc(t0 + timedelta(seconds=k))},{lat!r},{lon!r},0.0,0.0\n"
        for k, (lat, lon) in enumerate(track)
    )
    sensor, drops, _ = ingest.clean_sensor([io.StringIO(raw)])
    assert sum(drops.values()) == 0
    assert sensor.cum.tolist() == expected


_time_columns = st.lists(
    st.datetimes(timezones=st.just(timezone.utc)).map(format_time_utc)
    | st.builds(
        lambda text, k, c: text[:k] + c + text[k + 1 :],
        st.datetimes(timezones=st.just(timezone.utc)).map(format_time_utc),
        st.integers(0, 23),
        st.sampled_from("0123456789:-.TZz +9"),
    ),
    max_size=5,
)


def _us_or_bad(text):
    try:
        return (parse_time_utc(text) - ingest.EPOCH) // timedelta(microseconds=1)
    except ingest._BAD_VALUE:  # the column path must reject it too
        return "bad"


@settings(max_examples=400, deadline=None)
@given(_time_columns)
def test_time_column_parses_as_parse_time_utc_does(texts):
    bad = np.zeros(len(texts), dtype=bool)
    us = ingest._times_us(tuple(texts), bad).tolist()
    got = ["bad" if b else u for u, b in zip(us, bad.tolist())]
    assert got == [_us_or_bad(text) for text in texts]


# Texts of the clean tables' time form with every field drawn over all its
# digits: mostly impossible dates and times, some edge cases, some valid.
_canonical_shaped = st.builds(
    "{:04d}-{:02d}-{:02d}T{:02d}:{:02d}:{:02d}.{:03d}Z".format,
    st.integers(0, 9999) | st.sampled_from([0, 1, 1900, 2000, 2019, 2020, 2100, 9999]),
    st.integers(0, 99) | st.integers(0, 13),
    st.integers(0, 99) | st.integers(0, 32),
    st.integers(0, 99) | st.integers(0, 24),
    st.integers(0, 99) | st.integers(0, 60),
    st.integers(0, 99) | st.integers(0, 60),
    st.integers(0, 999),
)


@settings(max_examples=1000, deadline=None)
@given(_canonical_shaped)
@example("2000-02-29T23:59:59.999Z")
@example("2020-02-29T00:00:00.000Z")
@example("2019-03-01T00:00:00.000Z")
@example("0001-01-01T00:00:00.000Z")
@example("9999-12-31T23:59:59.999Z")
@example("1969-12-31T23:59:59.999Z")
def test_canonical_times_parse_from_their_digits_as_parse_time_utc_does(text):
    us = ingest._canonical_us(np.array([text]))
    assert (["bad"] if us is None else us.tolist()) == [_us_or_bad(text)]


@pytest.mark.parametrize(
    "text",
    [
        "2019-02-29T00:00:00.000Z", "1900-02-29T00:00:00.000Z", "2100-02-29T00:00:00.000Z",
        "2019-04-31T00:00:00.000Z", "2019-00-10T00:00:00.000Z", "2019-13-10T00:00:00.000Z",
        "2019-05-00T00:00:00.000Z", "0000-01-01T00:00:00.000Z", "2019-05-01T24:00:00.000Z",
        "2019-05-01T12:60:00.000Z", "2019-05-01T12:00:60.000Z",
    ],
)
def test_impossible_canonical_times_are_rejected(text):
    good = "2019-05-01T12:00:00.000Z"
    bad = np.zeros(2, dtype=bool)
    ingest._times_us((good, text), bad)
    assert bad.tolist() == [False, True]
    with pytest.raises(ValueError):
        parse_time_utc(text)


def test_clean_sensor_opens_the_table_once_per_call(tmp_path, monkeypatch):
    path = tmp_path / "clean_sensor.csv"
    path.write_text(HEADER + "\n" + GOOD + "\n")
    store = storage.Store()
    opened = []
    for module in (storage, ingest):
        def counting(source, mode="rb", _open=module.resolve_uri):
            opened.append(source)
            return _open(source, mode)

        monkeypatch.setattr(module, "resolve_uri", counting)
    first = store.load("clean_sensor", path, ingest.read_clean_sensor)  # parsed
    held = store["clean_sensor"]
    assert [s for s in opened if s == path] == [path]
    assert store.load("clean_sensor", path, ingest.read_clean_sensor) == first
    assert store["clean_sensor"] is held  # not parsed again
    assert [s for s in opened if s == path] == [path, path]


def test_cached_clean_sensor_table_skips_a_byte_order_mark(tmp_path):
    path = tmp_path / "clean_sensor.csv"
    path.write_text("\ufeff" + HEADER + "\n" + GOOD + "\n", encoding="utf-8")
    loaded = storage.Store().load("clean_sensor", path, ingest.read_clean_sensor)
    assert loaded == read_clean_sensor(table(GOOD))


# Microsecond counts from year 1 to 9999 relative to the epoch, beyond
# 2**53 too, where int64 to float64 rounds.
EPOCH_US = st.integers(-62_135_596_800_000_000, 253_402_300_799_999_999)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.one_of(EPOCH_US, st.integers(-10**7, 10**7)), max_size=20))
@example([250_000, 1_556_712_000_500_001, 2**53 + 1])
def test_seconds_are_total_seconds(us):
    expected = [timedelta(microseconds=n).total_seconds() for n in us]
    assert ingest.to_seconds(np.array(us, dtype=np.int64)).tolist() == expected


@settings(max_examples=500, deadline=None)
@given(st.lists(st.one_of(EPOCH_US, st.integers(-10**7, 10**7)), max_size=20))
# Years 1 and 9999, sub-millisecond times either side of the epoch, and
# leap days of a 400-year and of a 100-year cycle.
@example([-62_135_596_800_000_000, 253_402_300_799_999_999, -1, -999, 999, 1_000])
@example([951_782_400_000_000, 4_107_542_399_999_999, 4_107_542_400_000_000])
def test_time_texts_are_format_time_utc(us):
    expected = [ingest.format_time_utc(ingest.EPOCH + timedelta(microseconds=n)) for n in us]
    assert ingest._time_texts(np.array(us, dtype=np.int64)) == expected
