"""The clean sensor table: its reader's contract and its reuse across stages.

``read_clean_sensor`` must raise on every malformed row, skip blank lines,
parse every timestamp form the old ``DictReader`` path parsed, and round-trip
``write_sensor_csv``. The CLI parses the table once per content within one
process and hands the same list to traj, clips and template.
"""

import io
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intxn_pipeline import cli, ingest
from intxn_pipeline.errors import DataError, HeaderMismatchError
from intxn_pipeline.geo import GeoPoint
from intxn_pipeline.ingest import (
    SensorRecord,
    format_time_utc,
    parse_time_utc,
    read_clean_sensor,
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
    (rec,) = read_clean_sensor(table(GOOD))
    assert rec == SensorRecord(
        "A", 1, datetime(2019, 5, 1, 12, tzinfo=timezone.utc), GeoPoint(41.0, -96.0), 90.0, 50.0, 0.0
    )


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


def test_missing_column_raises_header_mismatch():
    header = HEADER.replace(",speed_fps", "")
    with pytest.raises(HeaderMismatchError, match="speed_fps"):
        read_clean_sensor(table("A,1,2019-05-01T12:00:00.000Z,41.0,-96.0,90.0,0.0", header=header))


def test_empty_file_raises_header_mismatch():
    with pytest.raises(HeaderMismatchError):
        read_clean_sensor(io.StringIO(""))


def test_blank_lines_are_skipped():
    second = GOOD.replace("12:00:00.000Z", "12:00:01.000Z")
    records = read_clean_sensor(table("", GOOD, "", "", second, ""))
    assert [r.t_utc.second for r in records] == [0, 1]


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


_records = st.builds(
    SensorRecord,
    subj=st.text(st.characters(blacklist_categories=("Cs", "Cc")), max_size=6),
    drive=st.integers(-(10**12), 10**12),
    t_utc=st.datetimes(timezones=st.just(timezone.utc)).map(
        lambda dt: dt.replace(microsecond=dt.microsecond // 1000 * 1000)
    ),
    pos=st.builds(
        GeoPoint,
        st.floats(-90.0, 90.0),
        st.floats(-180.0, 180.0),
    ),
    heading_deg=st.floats(allow_nan=False),
    speed_fps=st.floats(allow_nan=False),
    cum_dist_ft=st.floats(allow_nan=False),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_records, max_size=8))
def test_write_then_read_round_trips(records):
    buf = io.StringIO(newline="")
    write_sensor_csv(records, buf)
    buf.seek(0)
    assert read_clean_sensor(buf) == records


# --- One parse per content within a process --------------------------------


@pytest.fixture()
def reviewed_workspace(tmp_path, monkeypatch):
    """A synth study run through import-review, with no table cached yet."""
    monkeypatch.setattr(cli, "_sensor_table", None)
    config = tmp_path / "pipeline.json"
    config.write_text("{}")
    for stage in ("synth", "clean", "lrs-intxns", "subj-intxns", "export-kml", "import-review"):
        assert cli.main([stage, "--config", str(config)]) == 0, stage
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
    assert calls == [ws / "out" / "clean_sensor.csv"]
    # The shared table is still what the file holds.
    assert cli._sensor_table[1] == read(ws / "out" / "clean_sensor.csv")


def test_rewritten_table_is_parsed_again(reviewed_workspace, capsys):
    ws, config = reviewed_workspace
    assert cli.main(["traj", "--config", str(config)]) == 0
    # Drop the drive of the first trajectory; path, size class and name stay.
    first = (ws / "out" / "trajectories.csv").read_text().splitlines()[1].split(",")
    sensor_path = ws / "out" / "clean_sensor.csv"
    records = read_clean_sensor(sensor_path)
    kept = [r for r in records if (r.subj, str(r.drive)) != (first[1], first[2])]
    assert 0 < len(kept) < len(records)
    write_sensor_csv(kept, sensor_path)
    capsys.readouterr()
    assert cli.main(["clips", "--config", str(config)]) == 2
    assert "no sensor data for trajectory" in capsys.readouterr().err
    assert cli._sensor_table[1] == kept
