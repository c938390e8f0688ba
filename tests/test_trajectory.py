import io
import math
from datetime import datetime, timedelta, timezone

import pytest
from oracles import (
    ApproachLeg,
    PolygonRing,
    ReviewedIntersection,
    haversine_distance_ft,
    reviewed_set,
    table_of,
)

from intxn_pipeline.errors import DataError
from intxn_pipeline.geo import FT_PER_DEG, GeoPoint
from intxn_pipeline.ingest import SensorTable, to_us
from intxn_pipeline.trajectory import (
    WindowParams,
    _entering_bearings,
    extract_trajectories,
    load_trajectories_csv,
    windows,
    write_trajectories_csv,
)

T0 = datetime(2019, 5, 1, 12, 0, tzinfo=timezone.utc)
LAT0, LON0 = 41.0, -96.0
COS0 = math.cos(math.radians(LAT0))


def pt(north_ft=0.0, east_ft=0.0):
    return GeoPoint(LAT0 + north_ft / FT_PER_DEG, LON0 + east_ft / (FT_PER_DEG * COS0))


def northbound_drive(n=21, spacing_ft=50.0, heading=0.0, subj="A", drive=1, t0=T0):
    """Constant 50 ft/s meridian drive sampled at 1 Hz; cum = 50k exactly.
    Sensor rows as ``oracles.row_tuples`` gives them."""
    rows = []
    for k in range(n):
        pos = pt(north_ft=k * spacing_ft)
        t = to_us(t0 + timedelta(seconds=k))
        rows.append((subj, drive, t, pos.lat_deg, pos.lon_deg, heading, spacing_ft, k * spacing_ft))
    return rows


def northbound_intersection(intxn_id=4, junction_north_ft=500.0, length_ft=300.0):
    """Junction with one approach polygon reaching length_ft south of it."""
    junction = pt(north_ft=junction_north_ft)
    half_w = 20.0 / (FT_PER_DEG * COS0)
    south = junction_north_ft - length_ft
    ring = PolygonRing(
        (
            GeoPoint(pt(north_ft=south).lat_deg, junction.lon_deg - half_w),
            GeoPoint(junction.lat_deg, junction.lon_deg - half_w),
            GeoPoint(junction.lat_deg, junction.lon_deg + half_w),
            GeoPoint(pt(north_ft=south).lat_deg, junction.lon_deg + half_w),
        )
    )
    line = [pt(north_ft=south), junction]
    return ReviewedIntersection(intxn_id, junction, "stop", [ApproachLeg(1, ring, line)])


def _bearing(intxn):
    return _entering_bearings(reviewed_set([intxn]))[0]


def test_entering_bearing_due_north():
    assert _bearing(northbound_intersection()) == pytest.approx(0.0, abs=1e-6)


def test_entering_bearing_due_east():
    leg = ApproachLeg(
        1,
        PolygonRing((GeoPoint(0, 0), GeoPoint(0, 0.001), GeoPoint(0.001, 0.001))),
        [GeoPoint(0, 0), GeoPoint(0, 0.001)],
    )
    intxn = ReviewedIntersection(1, GeoPoint(0, 0.001), "stop", [leg])
    assert _bearing(intxn) == pytest.approx(90.0, abs=1e-6)


def test_entering_bearing_dogleg_uses_endpoints():
    leg = ApproachLeg(
        1,
        PolygonRing((GeoPoint(0, 0), GeoPoint(0, 0.001), GeoPoint(0.001, 0.001))),
        [GeoPoint(0, 0), GeoPoint(0.0005, 0.0001), GeoPoint(0.001, 0.0)],
    )
    intxn = ReviewedIntersection(1, GeoPoint(0.001, 0), "stop", [leg])
    # first -> last is due north
    assert _bearing(intxn) == pytest.approx(0.0, abs=1e-6)


def test_degenerate_entering_line_rejected():
    leg = ApproachLeg(
        1,
        PolygonRing((GeoPoint(0, 0), GeoPoint(0, 0.001), GeoPoint(0.001, 0.001))),
        [GeoPoint(0, 0), GeoPoint(0, 0)],
    )
    with pytest.raises(DataError, match="degenerate entering line on intersection 1 leg 1"):
        _extract([], [ReviewedIntersection(1, GeoPoint(0, 0), "stop", [leg])])


def _extract(sensor, intxns, **kwargs):
    return extract_trajectories(table_of(SensorTable, sensor), reviewed_set(intxns), **kwargs)


def _windows(sensor, intxns):
    """The sensor table of ``sensor`` and the windows of its trajectories
    through ``intxns``: each one's reference, start and stop row."""
    table = table_of(SensorTable, sensor)
    return table, windows(_extract(sensor, intxns)[0], table)


@pytest.mark.filterwarnings("error")  # dividing by the zero length must not warn
def test_polygon_with_a_repeated_vertex_takes_the_scalar_test():
    # A ring may repeat a vertex only as a degenerate triangle: here the
    # drive's own centre line, whose points are all on an edge.
    intxn = northbound_intersection()
    south, junction = pt(north_ft=200.0), pt(north_ft=500.0)
    intxn.approaches[0].polygon = PolygonRing((south, south, junction))
    assert 0.0 in intxn.approaches[0].polygon.edge_lengths()
    trajs, _ = _extract(northbound_drive(), [intxn])
    assert trajs == _extract(northbound_drive(), [northbound_intersection()])[0]
    assert len(trajs) == 1


def test_an_id_beyond_int64_fails_only_on_a_leg_with_hits():
    far = northbound_intersection(intxn_id=2**63, junction_north_ft=50_000.0)
    trajs, _ = _extract(northbound_drive(), [northbound_intersection(), far])
    assert len(trajs) == 1
    with pytest.raises(DataError, match="int64 range"):
        _extract(northbound_drive(), [northbound_intersection(intxn_id=2**63)])


def test_constant_speed_window_oracle():
    # 50 ft/s straight through: the window must span [ref-300, ref+200],
    # which at 1 Hz is 11 samples and exactly 10 s.
    trajs, skips = _extract(northbound_drive(), [northbound_intersection()])
    assert len(trajs) == 1
    assert trajs.traj_ids() == ["A_1_4"]
    sensor, (ref, start, stop) = _windows(northbound_drive(), [northbound_intersection()])
    (start,), (stop,) = start.tolist(), stop.tolist()
    assert stop - start == 11
    t_us, cum = sensor.t_us, sensor.cum
    assert t_us[stop - 1] - t_us[start] == 10_000_000
    ref_cum = cum[ref[0]]
    assert ref_cum == 500.0
    assert ((ref_cum - 300.0 <= cum[start:stop]) & (cum[start:stop] <= ref_cum + 200.0)).all()
    assert skips == {"duplicate_pass": 0, "truncated": 0}


def test_window_completeness():
    sensor = northbound_drive()
    table, (ref, start, stop) = _windows(sensor, [northbound_intersection()])
    ref_cum = table.cum[ref[0]]
    in_range = [r for r in sensor if ref_cum - 300.0 <= r[7] <= ref_cum + 200.0]
    window = table.t_us[start[0] : stop[0]]
    assert window.tolist() == [r[2] for r in in_range]


def test_ref_point_minimizes_distance_in_polygon():
    sensor, (ref, _, _) = _windows(northbound_drive(), [northbound_intersection()])
    intxn_pos = pt(north_ft=500)
    ref = ref[0]
    best = min(
        haversine_distance_ft(GeoPoint(r[3], r[4]), intxn_pos)
        for r in northbound_drive()
        if 200.0 <= r[7] <= 500.0
    )
    ref_pos = GeoPoint(sensor.lat[ref], sensor.lon[ref])
    assert haversine_distance_ft(ref_pos, intxn_pos) == pytest.approx(best, abs=1e-9)


def test_exiting_traffic_filtered_out():
    sensor = northbound_drive(heading=180.0)
    trajs, _ = _extract(sensor, [northbound_intersection()])
    assert len(trajs) == 0


def test_heading_flip_property():
    sensor = northbound_drive()
    flipped = [(*r[:5], (r[5] + 180.0) % 360.0, *r[6:]) for r in sensor]
    trajs, _ = _extract(flipped, [northbound_intersection()])
    assert len(trajs) == 0


def test_drive_missing_polygon_yields_nothing():
    trajs, skips = _extract(
        northbound_drive(), [northbound_intersection(junction_north_ft=50000.0)]
    )
    assert len(trajs) == 0
    assert skips == {"duplicate_pass": 0, "truncated": 0}


def test_duplicate_approaches_keep_earliest_ref():
    intxn = northbound_intersection()
    second = northbound_intersection().approaches[0]
    second.leg_id = 2
    intxn.approaches.append(second)
    trajs, skips = _extract(northbound_drive(), [intxn])
    assert trajs.leg_id.tolist() == [1]
    assert skips["duplicate_pass"] == 1


def test_repeat_pass_in_one_drive_counted():
    first = northbound_drive(n=21)
    # Same street again a minute later in the same drive; cum keeps growing.
    second = [(*r[:2], r[2] + 120_000_000, *r[3:7], r[7] + 2000.0) for r in first]
    trajs, skips = _extract(first + second, [northbound_intersection()])
    assert len(trajs) == 1
    assert trajs.ref_us[0] == first[10][2]  # earliest pass wins
    assert skips["duplicate_pass"] == 1


def test_truncated_window_kept_and_flagged():
    intxns = [northbound_intersection(junction_north_ft=100.0, length_ft=100.0)]
    trajs, skips = _extract(northbound_drive(), intxns)
    assert len(trajs) == 1
    sensor, (_, start, _) = _windows(northbound_drive(), intxns)
    assert sensor.cum[start[0]] == 0.0  # clipped at drive start
    assert skips["truncated"] == 1


def test_output_sorted_and_unique():
    sensor = northbound_drive(n=41)  # 0..2000 ft
    intxns = [
        northbound_intersection(intxn_id=9, junction_north_ft=1500.0),
        northbound_intersection(intxn_id=2, junction_north_ft=500.0),
    ]
    trajs, _ = _extract(sensor, intxns)
    assert trajs.traj_ids() == ["A_1_2", "A_1_9"]
    assert len(set(trajs.traj_ids())) == len(trajs)


def test_window_params_validation():
    with pytest.raises(ValueError):
        WindowParams(upstream_ft=-1)
    with pytest.raises(ValueError):
        WindowParams(heading_tol_deg=95)


def test_trajectories_csv_roundtrip():
    # Epoch microseconds pass 2**53, beyond which float64 skips integers, in 2255.
    for year in (2019, 2300, 9999):
        sensor = northbound_drive(t0=T0.replace(year=year))
        trajs, _ = _extract(sensor, [northbound_intersection()])
        out = io.StringIO()
        write_trajectories_csv(trajs, table_of(SensorTable, sensor), out)
        out.seek(0)
        restored = load_trajectories_csv(out)
        assert len(restored) == 1
        assert restored == trajs


def _edited_csv(edits):
    """trajectories.csv of the northbound drive's trajectory, ``edits``
    mapping columns to the texts that replace theirs."""
    trajs, _ = _extract(northbound_drive(), [northbound_intersection()])
    out = io.StringIO()
    write_trajectories_csv(trajs, table_of(SensorTable, northbound_drive()), out)
    header, row = out.getvalue().splitlines()
    cells = {**dict(zip(header.split(","), row.split(","))), **edits}
    return io.StringIO(header + "\n" + ",".join(cells.values()) + "\n")


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("drive", "x", "bad trajectory row at line 2"),
        ("start_time_utc", "noon", "bad trajectory row at line 2"),
        ("traj_id", "A_1_5", "trajectory id 'A_1_5' is not 'A_1_4'"),
        ("drive", "7", "trajectory id 'A_1_4' is not 'A_7_4'"),
    ],
)
def test_trajectories_csv_bad_row_raises_data_error(field, value, message):
    with pytest.raises(DataError, match=message):
        load_trajectories_csv(_edited_csv({field: value}))


@pytest.mark.parametrize(
    "edits, message",
    [
        ({"drive": "7", "traj_id": "A_7_4"}, "no sensor data for trajectory A_7_4"),
        (
            {"ref_time_utc": "2019-05-01T12:00:10.500Z"},
            "reference time not in window for trajectory A_1_4",
        ),
        ({"end_time_utc": "2019-05-01T12:00:02.000Z"}, "empty window for trajectory A_1_4"),
    ],
    ids=["no-sensor-data", "ref-not-in-window", "empty-window"],
)
def test_a_window_the_sensor_lacks_is_a_data_error(edits, message):
    trajs = load_trajectories_csv(_edited_csv(edits))
    with pytest.raises(DataError, match=message):
        windows(trajs, table_of(SensorTable, northbound_drive()))


@pytest.mark.parametrize("column", ["traj_id", "n_points"])
def test_trajectories_csv_missing_column_raises_header_mismatch(column):
    from intxn_pipeline.errors import HeaderMismatchError

    sensor = northbound_drive()
    trajs, _ = _extract(sensor, [northbound_intersection()])
    out = io.StringIO()
    write_trajectories_csv(trajs, table_of(SensorTable, sensor), out)
    header, row = out.getvalue().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    del cells[column]
    text = ",".join(cells) + "\n" + ",".join(cells.values()) + "\n"
    with pytest.raises(HeaderMismatchError, match=column):
        load_trajectories_csv(io.StringIO(text))
