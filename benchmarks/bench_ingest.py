"""Micro-benchmarks of the ingest layer: timestamps and the clean sensor table.

Run with ``python -m pytest benchmarks/bench_ingest.py``. The file name
keeps it out of the default test collection.

The canonical timestamp (``...Z``) is what the clean tables hold and takes
the ``fromisoformat`` fast path; the offset form takes the general path.
The table benches clean, write, read, join and search a synth study of
9,608 sensor rows held in memory, so no disk time is measured, except by
the hashed write bench: it writes the table to a file through
``storage.Store.put``, hashing the bytes as it writes them, as the
pipeline writes the outputs its store holds, so against the in-memory
write it adds the sha256, the temp file and the rename. The synth study's
drives repeat each other's floats, so the writer renders each distinct
value once for the table. The distinct write bench draws every float of
that table at random, so that no value repeats and none is rendered for
more than one row: the writer's worst case. The quantized write bench
shapes the table as vehicle sensors log it: positions and odometer that
never repeat, headings rounded to 0.1 degree and speeds to 0.01 fps,
whose few thousand distinct values each render once. The dirty clean
benches give the raw files one unparseable row in 100 or in 4,000, or
only as their last row, and the quoted bench quotes every subject.
The detection benches run a study shaped like perfbench's
crowded-junctions, many short drives through few junctions: 500 drives and
3,000 detections, also in memory. The many-small-files benches clean
perfbench's crowded-junctions study itself, 50 sensor files of 1,025 rows
and 50 detection files of 150, where set-up per file would dominate.
"""

import hashlib
import io
from dataclasses import replace
from datetime import timedelta
from functools import partial

import numpy as np
import pytest

from intxn_pipeline import storage
from intxn_pipeline.discovery import last_in_runs
from intxn_pipeline.ingest import (
    SENSOR_COLUMNS,
    SENSOR_CUM_COLUMN,
    EPOCH,
    clean_cv,
    _time_texts,
    clean_sensor,
    parse_time_utc,
    read_clean_detections,
    read_clean_sensor,
    write_detections_csv,
    write_sensor_csv,
)
from intxn_pipeline.review import import_reviewed_kml
from intxn_pipeline.synth import ScenarioSpec, generate
from intxn_pipeline.trajectory import extract_trajectories

SPEC = ScenarioSpec(grid_rows=3, grid_cols=6, n_subjects=2, drives_per_subject=4, sample_hz=10.0)
CROWDED = ScenarioSpec(grid_rows=3, grid_cols=4, n_subjects=20, drives_per_subject=25, sample_hz=0.5)
# perfbench's crowded-junctions: one sensor and one detection file per subject.
MANY = ScenarioSpec(grid_rows=3, grid_cols=4, n_subjects=50, drives_per_subject=25, sample_hz=0.5)


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
    records, _, _ = clean_sensor(streams(raw_texts["sensor_files"]))
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


def test_time_texts(benchmark, sensor):
    texts = benchmark(_time_texts, sensor.t_us)
    assert texts[0] == (EPOCH + timedelta(microseconds=int(sensor.t_us[0]))).isoformat(
        timespec="milliseconds"
    )[:-6] + "Z"


def test_clean_sensor(benchmark, raw_texts, sensor):
    records, drops, _ = benchmark(lambda: clean_sensor(streams(raw_texts["sensor_files"])))
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
    records, drops, _ = benchmark(lambda: clean_sensor(streams(texts)))
    assert drops["unparseable"] == sum(len(text.splitlines()[1:]) // every for text in texts)


def test_clean_sensor_last_row_bad(benchmark, raw_texts):
    """Raw files whose one unparseable row is their last: a whole chunk of
    each file parses twice."""
    texts = [spoil(text, len(text.splitlines()) - 1) for text in raw_texts["sensor_files"]]
    records, drops, _ = benchmark(lambda: clean_sensor(streams(texts)))
    assert drops["unparseable"] == len(texts)


def quote_subjects(text):
    """``text`` with every data row's subject in quotes."""
    header, *rows = text.splitlines()
    return "\n".join([header, *('"' + row.replace(",", '",', 1) for row in rows), ""])


def test_clean_sensor_quoted(benchmark, raw_texts, sensor):
    """Raw files with quoted subjects, as some CSV writers quote every text."""
    texts = [quote_subjects(text) for text in raw_texts["sensor_files"]]
    records, drops, _ = benchmark(lambda: clean_sensor(streams(texts)))
    assert records == sensor and not any(drops.values())


def test_clean_cv_join(benchmark, raw_texts, sensor):
    detections, drops, _ = benchmark(lambda: clean_cv(streams(raw_texts["cv_files"]), sensor))
    assert detections and not any(drops.values())


def test_extract_trajectories(benchmark, scenario, sensor):
    reviewed, _ = import_reviewed_kml(scenario.paths["reviewed_kml"])
    trajs, _ = benchmark(extract_trajectories, sensor, reviewed)
    assert len(trajs) == len(scenario.ground_truth.trajectories)


def test_read_clean_sensor(benchmark, sensor, sensor_text):
    records = benchmark(lambda: read_clean_sensor(io.StringIO(sensor_text, newline="")))
    assert records == sensor


def test_write_sensor_csv(benchmark, sensor, sensor_text):
    assert written_text(benchmark, sensor) == sensor_text


@pytest.fixture(scope="module")
def distinct_sensor(sensor):
    """The study's table with every float drawn at random, so that no value
    repeats within a write: the worst case for rendering each value once."""
    rng = np.random.default_rng(0)
    n = len(sensor)
    return replace(
        sensor, lat=rng.uniform(-90, 90, n), lon=rng.uniform(-180, 180, n),
        heading=rng.uniform(0, 360, n), speed=rng.uniform(0, 100, n),
        cum=np.cumsum(rng.uniform(0, 10, n)),
    )


@pytest.fixture(scope="module")
def quantized_sensor(sensor):
    """The study's table as a vehicle logs it: positions and odometer that
    never repeat, headings to 0.1 degree and speeds to 0.01 fps."""
    rng = np.random.default_rng(0)
    n = len(sensor)
    return replace(
        sensor, lat=rng.uniform(41.0, 41.1, n), lon=rng.uniform(-96.1, -96.0, n),
        heading=np.round(rng.uniform(0, 359.9, n), 1), speed=np.round(rng.uniform(0, 100, n), 2),
        cum=np.cumsum(rng.uniform(0, 10, n)),
    )


def sensor_csv_text(t):
    """The text of table ``t``, each float its repr, as csv.writer writes it."""
    rows = zip(zip(*t.key_texts()), t.t_us.tolist(), *(c.tolist() for c in t.columns()[1:]))
    expected = [SENSOR_COLUMNS + (SENSOR_CUM_COLUMN,)] + [
        (*key, (EPOCH + timedelta(microseconds=us)).isoformat(timespec="milliseconds")[:-6] + "Z",
         *map(repr, floats))
        for key, us, *floats in rows
    ]
    return "".join(",".join(map(str, r)) + "\n" for r in expected)


def written_text(benchmark, table):
    """The text ``write_sensor_csv`` writes of ``table``, under the benchmark."""

    def write():
        buf = io.StringIO(newline="")
        write_sensor_csv(table, buf)
        return buf

    return benchmark(write).getvalue()


def test_write_sensor_csv_distinct(benchmark, distinct_sensor):
    assert written_text(benchmark, distinct_sensor) == sensor_csv_text(distinct_sensor)


def test_write_sensor_csv_quantized(benchmark, quantized_sensor):
    assert written_text(benchmark, quantized_sensor) == sensor_csv_text(quantized_sensor)


def test_write_sensor_csv_hashed(benchmark, sensor, sensor_text, tmp_path):
    path = tmp_path / "clean_sensor.csv"

    benchmark(storage.Store().put, "clean_sensor", path, partial(write_sensor_csv, sensor))
    data = sensor_text.encode("utf-8")
    assert path.read_bytes() == data
    assert storage.written[path] == hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def crowded(tmp_path_factory):
    """The raw detection files' text and the clean sensor table of the crowded study."""
    scenario = generate(CROWDED, tmp_path_factory.mktemp("crowded"))
    sensor = clean_sensor([str(p) for p in scenario.paths["sensor_files"]])[0]
    return [p.read_text(encoding="utf-8") for p in scenario.paths["cv_files"]], sensor


@pytest.fixture(scope="module")
def detections(crowded):
    texts, sensor = crowded
    return clean_cv(streams(texts), sensor)[0]


@pytest.fixture(scope="module")
def detection_text(detections):
    buf = io.StringIO(newline="")
    write_detections_csv(detections, buf)
    return buf.getvalue()


def test_clean_cv_crowded(benchmark, crowded, detections):
    """Parse and join: the raw detection files to the clean sensor table."""
    texts, sensor = crowded
    joined = benchmark(lambda: clean_cv(streams(texts), sensor))
    assert len(joined[0]) == len(detections) == 3000 and not any(joined[1].values())


def test_write_detections_csv(benchmark, detections, detection_text):
    def write():
        buf = io.StringIO(newline="")
        write_detections_csv(detections, buf)
        return buf

    assert benchmark(write).getvalue() == detection_text


def test_read_clean_detections(benchmark, detections, detection_text):
    loaded = benchmark(lambda: read_clean_detections(io.StringIO(detection_text, newline="")))
    assert len(loaded) == len(detections)


def test_last_in_runs(benchmark, detections):
    kept = benchmark(last_in_runs, detections)
    assert 0 < len(kept) < len(detections)


@pytest.fixture(scope="module")
def many_files(tmp_path_factory):
    """The raw sensor and detection files' text of the MANY study, by kind."""
    scenario = generate(MANY, tmp_path_factory.mktemp("many"))
    return {
        kind: [path.read_text(encoding="utf-8") for path in scenario.paths[kind]]
        for kind in ("sensor_files", "cv_files")
    }


def test_clean_sensor_many_small_files(benchmark, many_files):
    table, drops, _ = benchmark(lambda: clean_sensor(streams(many_files["sensor_files"])))
    assert len(many_files["sensor_files"]) == 50 and len(table) == 51_250
    assert not any(drops.values())


def test_clean_cv_many_small_files(benchmark, many_files):
    sensor = clean_sensor(streams(many_files["sensor_files"]))[0]
    joined, drops, _ = benchmark(lambda: clean_cv(streams(many_files["cv_files"]), sensor))
    assert len(many_files["cv_files"]) == 50 and len(joined) == 7_500
    assert not any(drops.values())
