"""Micro-benchmarks of the ingest layer: timestamps and the clean sensor table.

Run with ``python -m pytest benchmarks/bench_ingest.py``. The file name
keeps it out of the default test collection.

The canonical timestamp (``...Z``) is what the clean tables hold and takes
the ``fromisoformat`` fast path; the offset form takes the general path.
The table benches clean, write, read, join and search a synth study of
9,608 sensor rows held in memory, so no disk time is measured; the dirty
clean bench gives the raw files one unparseable row in 100 or in 4,000.
"""

import io
from datetime import datetime, timezone

import pytest

from intxn_pipeline.ingest import (
    clean_cv,
    clean_sensor,
    format_time_utc,
    parse_time_utc,
    read_clean_sensor,
    write_sensor_csv,
)
from intxn_pipeline.review import import_reviewed_kml
from intxn_pipeline.synth import ScenarioSpec, generate
from intxn_pipeline.trajectory import assign_bearings, extract_trajectories

SPEC = ScenarioSpec(grid_rows=3, grid_cols=6, n_subjects=2, drives_per_subject=4, sample_hz=10.0)


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    return generate(SPEC, tmp_path_factory.mktemp("bench"))


@pytest.fixture(scope="module")
def raw_texts(scenario):
    """The raw sensor and detection files' text, by kind."""
    return {
        kind: [path.read_text(encoding="utf-8") for path in scenario.paths[kind]]
        for kind in ("sensor_files", "cv_files")
    }


def streams(texts):
    return [io.StringIO(text, newline="") for text in texts]


@pytest.fixture(scope="module")
def sensor(raw_texts):
    records, _ = clean_sensor(streams(raw_texts["sensor_files"]))
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


def test_clean_sensor(benchmark, raw_texts, sensor):
    records, drops = benchmark(lambda: clean_sensor(streams(raw_texts["sensor_files"])))
    assert records == sensor and not any(drops.values())


def spoil(text, every):
    """``text`` with every ``every``-th data row given an empty lat."""
    header, *rows = text.splitlines()
    for k in range(every - 1, len(rows), every):
        fields = rows[k].split(",")
        fields[3] = ""
        rows[k] = ",".join(fields)
    return "\n".join([header, *rows, ""])


@pytest.mark.parametrize("every", [100, 4000])
def test_clean_sensor_dirty(benchmark, raw_texts, every):
    """Raw files with one unparseable row in ``every``: the bad-row path."""
    texts = [spoil(text, every) for text in raw_texts["sensor_files"]]
    records, drops = benchmark(lambda: clean_sensor(streams(texts)))
    assert drops["unparseable"] == sum(len(text.splitlines()[1:]) // every for text in texts)


def test_clean_cv_join(benchmark, raw_texts, sensor):
    detections, drops = benchmark(lambda: clean_cv(streams(raw_texts["cv_files"]), sensor))
    assert detections and not any(drops.values())


def test_extract_trajectories(benchmark, scenario, sensor):
    reviewed, _ = import_reviewed_kml(scenario.paths["reviewed_kml"])
    reviewed = assign_bearings(reviewed)
    trajs, _ = benchmark(extract_trajectories, sensor, reviewed)
    assert len(trajs) == len(scenario.ground_truth.trajectories)


def test_read_clean_sensor(benchmark, sensor, sensor_text):
    records = benchmark(lambda: read_clean_sensor(io.StringIO(sensor_text, newline="")))
    assert records == sensor


def test_write_sensor_csv(benchmark, sensor, sensor_text):
    def write():
        buf = io.StringIO(newline="")
        write_sensor_csv(sensor, buf)
        return buf

    assert benchmark(write).getvalue() == sensor_text
