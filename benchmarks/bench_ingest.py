"""Micro-benchmarks of the ingest layer: timestamps and the clean sensor table.

Run with ``python -m pytest benchmarks/bench_ingest.py``. The file name
keeps it out of the default test collection.

The canonical timestamp (``...Z``) is what the clean tables hold and takes
the ``fromisoformat`` fast path; the offset form takes the general path.
The table benches read and write a synth study's clean sensor table of
9,608 rows held in memory, so no disk time is measured.
"""

import io
from datetime import datetime, timezone

import pytest

from intxn_pipeline.ingest import (
    clean_sensor,
    format_time_utc,
    parse_time_utc,
    read_clean_sensor,
    write_sensor_csv,
)
from intxn_pipeline.synth import ScenarioSpec, generate

SPEC = ScenarioSpec(grid_rows=3, grid_cols=6, n_subjects=2, drives_per_subject=4, sample_hz=10.0)


@pytest.fixture(scope="module")
def sensor(tmp_path_factory):
    scenario = generate(SPEC, tmp_path_factory.mktemp("bench"))
    records, _ = clean_sensor([str(p) for p in scenario.paths["sensor_files"]])
    return records


@pytest.fixture(scope="module")
def sensor_text(sensor):
    buf = io.StringIO(newline="")
    write_sensor_csv(sensor, buf)
    return buf.getvalue()


@pytest.mark.parametrize(
    "text",
    ["2019-05-01T14:03:22.500Z", "2019-05-01T16:03:22.500+02:00"],
    ids=["canonical", "offset"],
)
def test_parse_time_utc(benchmark, text):
    benchmark(parse_time_utc, text)


def test_format_time_utc(benchmark):
    benchmark(format_time_utc, datetime(2019, 5, 1, 14, 3, 22, 500000, tzinfo=timezone.utc))


def test_read_clean_sensor(benchmark, sensor, sensor_text):
    records = benchmark(lambda: read_clean_sensor(io.StringIO(sensor_text, newline="")))
    assert records == sensor


def test_write_sensor_csv(benchmark, sensor, sensor_text):
    def write():
        buf = io.StringIO(newline="")
        write_sensor_csv(sensor, buf)
        return buf

    assert benchmark(write).getvalue() == sensor_text
