"""Entering-trajectory extraction through reviewed intersections.

For every (participant, drive, intersection, approach) the sensor points
inside the approach polygon are filtered to those heading with the entering
traffic, the surviving point closest to the intersection anchors the
window, and the window is cut from the whole drive by cumulative distance:
300 ft upstream to 200 ft downstream by default.

The reviewed intersections come as the columns of a ``review.ReviewedSet``
and are read as they are: its ``RingTable`` of approach polygons, each
leg's owning intersection, and the ends of each leg's entering line, whose
bearing gates the headings. ``_leg_hits`` gives each approach leg's
ascending sensor-table rows inside its polygon and heading the way of its
entering line, over the whole study at once: one cell, box and heading
gate of every (cell candidate, leg) pair, then one polygon test of every
gated (point, leg) pair against the ring table. Extraction finds each
row's drive in the table's offsets, and ranks each visit's hits by a numpy
distance estimate, computing the exact distance only for the hits that can
be nearest.

The trajectories are one ``TrajectoryTable``, keyed by (subj, drive) like
the sensor and detection tables. A row is one (drive, intersection) pass
as ``trajectories.csv`` states it: its intersection, its approach leg, and
the times of its reference point and of its window's first and last
points. So it is read from the file alone, and the review template takes
it as it is; ``windows`` cuts each pass's rows from a sensor table by
those times, for the file's odometer and point count and the clip times.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise
from pathlib import Path
from typing import IO

import numpy as np

from .errors import DataError
from .geo import (
    CellGrid, angular_difference_deg, in_box, initial_bearing_deg, nearest_distances_ft,
    points_in_polygon,
)
from .ingest import (
    _INT64, _KEY, _TEXT, _TIME, SensorTable, _float_renderer, _parse_csv, _sorted_keys, _Table,
    _time_texts, search_runs, to_seconds,
)
from .review import ReviewedSet
from .storage import write_csv


@dataclass
class WindowParams:
    """Window geometry and heading gate for entering-trajectory extraction.

    ``pass_gap_s`` splits repeat passes through the same approach: in-polygon
    points separated by more than this gap are treated as separate visits.
    """

    upstream_ft: float = 300.0
    downstream_ft: float = 200.0
    heading_tol_deg: float = 45.0
    pass_gap_s: float = 30.0

    def __post_init__(self) -> None:
        if self.upstream_ft <= 0 or self.downstream_ft <= 0 or self.pass_gap_s <= 0:
            raise ValueError("window parameters must be positive")
        if not 0 < self.heading_tol_deg < 90:
            raise ValueError("heading_tol_deg must be in (0, 90)")


TRAJECTORY_COLUMNS = (
    "traj_id",
    "subj",
    "drive",
    "intxn_id",
    "leg_id",
    "ref_time_utc",
    "start_time_utc",
    "end_time_utc",
    "ref_cum_dist_ft",
    "n_points",
)


@dataclass(eq=False)
class TrajectoryTable(_Table):
    """Entering passes sorted by (subj, drive, intxn_id), each named by its
    traj_id ``<subj>_<drive>_<intxn_id>``.

    ``ref_us`` is the time of its reference point, ``start_us`` and ``end_us``
    those of its window's first and last points, in epoch microseconds.
    """

    COLUMNS = {
        "intxn_id": _INT64, "leg_id": _INT64, "ref_us": _TIME, "start_us": _TIME, "end_us": _TIME
    }
    SORT = ("intxn_id",)
    HEADER = TRAJECTORY_COLUMNS
    CLEAN_CHECKED = ()

    intxn_id: np.ndarray
    leg_id: np.ndarray
    ref_us: np.ndarray
    start_us: np.ndarray
    end_us: np.ndarray

    @classmethod
    def kinds(cls) -> dict[str, tuple | None]:
        # The odometer and point count follow from the sensor table.
        return dict(zip(cls.HEADER, (_TEXT, _KEY, _KEY, *cls.COLUMNS.values(), None, None)))

    def traj_ids(self) -> list[str]:
        return [f"{s}_{d}_{i}" for s, d, i in zip(*self.key_texts(), self.intxn_id.tolist())]


def windows(trajs: TrajectoryTable, sensor: SensorTable) -> tuple[np.ndarray, ...]:
    """Each trajectory's reference row of ``sensor`` and its window's first
    and one-past-last rows: those of its drive from its start to its end
    time. One ``search_runs`` finds all three, the reference in the whole
    drive. Raises DataError for the first trajectory, in table order, whose
    drive is not in ``sensor``, whose window holds no row, or whose
    reference time is no row's time in its window."""
    drive = sensor.drive_index(trajs.keys)[trajs.codes()]
    found = drive >= 0
    bounds, t_us = np.array(sensor.offsets), sensor.t_us
    first, end = (np.where(found, bounds[drive + k], 0) for k in (0, 1))
    # Times are integers, so the first row after end_us is the first at end_us + 1 or later.
    times = np.concatenate([trajs.start_us, trajs.end_us + 1, trajs.ref_us])
    start, stop, ref = np.split(search_runs(t_us, np.tile(first, 3), np.tile(end, 3), times), 3)
    hit = (start <= ref) & (ref < stop)
    hit[hit] = t_us[ref[hit]] == trajs.ref_us[hit]
    problem = np.select([~found, start >= stop, ~hit], [1, 2, 3])
    if len(bad := np.flatnonzero(problem)):
        k = int(bad[0])
        reason = ("no sensor data", "empty window", "reference time not in window")[problem[k] - 1]
        raise DataError(f"{reason} for trajectory {trajs[k : k + 1].traj_ids()[0]}")
    return ref, start, stop


def _entering_bearings(reviewed: ReviewedSet) -> np.ndarray:
    """The forward azimuth of each leg's entering line from its first vertex
    to its last; intermediate vertices are ignored, as the endpoints define
    the reviewer's intent. Raises DataError for a line without two distinct
    ends."""
    lat, lon = reviewed.line_lat.tolist(), reviewed.line_lon.tolist()
    bearings = []
    for k, (a, b) in enumerate(pairwise(reviewed.line_first.tolist())):
        if a == b or (lat[a], lon[a]) == (lat[b - 1], lon[b - 1]):
            intxn_id = reviewed.intxn_id[reviewed.owner[k]]
            raise DataError(
                f"degenerate entering line on intersection {intxn_id} leg {reviewed.leg_id[k]}"
            )
        bearings.append(initial_bearing_deg(lat[a], lon[a], lat[b - 1], lon[b - 1]))
    return np.array(bearings, dtype=float)


# Cell size of the point index, about one approach leg long, so a leg's
# bounding box meets only a handful of cells.
LEG_CELL_FT = 300.0


def _leg_hits(
    sensor: SensorTable, reviewed: ReviewedSet, heading_tol_deg: float
) -> tuple[np.ndarray, np.ndarray]:
    """Each (leg, row) pair of a leg of ``reviewed`` and a row of ``sensor``
    inside the leg's polygon heading the entering way, as two arrays, by
    leg, then row.

    All points sit in one study-wide ``CellGrid``. The grid pairs every
    leg with the points in the cells its bounding box meets, a block of
    pairs at a time; the box and the heading gate, from the
    ``_entering_bearings`` of the legs' lines (so a degenerate line is a
    DataError), test all those pairs at once, and one ``points_in_polygon``
    then tests every (point, leg) pair that passed.
    """
    bearings = _entering_bearings(reviewed)
    rings = reviewed.rings
    lats, lons, headings = sensor.lat, sensor.lon, sensor.heading
    # Each gated pair as leg * len(lats) + row, so one sort orders them.
    gated = [np.empty(0, np.int64)]
    for leg, idx in CellGrid(lats, lons, LEG_CELL_FT).overlap_pairs(rings.bounds):
        keep = in_box(rings.bounds[:, leg], lats[idx], lons[idx]) & (
            angular_difference_deg(headings[idx], bearings[leg]) <= heading_tol_deg
        )
        gated.append(leg[keep] * len(lats) + idx[keep])
    leg, rows = np.divmod(np.sort(np.concatenate(gated)), max(len(lats), 1))
    inside = points_in_polygon(rings, leg, lats[rows], lons[rows])
    return leg[inside], rows[inside]


def extract_trajectories(
    sensor: SensorTable,
    reviewed: ReviewedSet,
    params: WindowParams | None = None,
) -> tuple[TrajectoryTable, dict[str, int]]:
    """Extract one entering trajectory per (subj, drive, intersection).

    Each approach leg's hits in one drive split into visits where more than
    ``pass_gap_s`` passes between two of them. A visit's reference is its
    point closest to the intersection by ``haversine_distances_ft``, the
    earliest of equals; ``nearest_distances_ft`` computes that exact
    distance only for the hits within its estimate's error bound of the
    visit's nearest, so the references are those of the exact distance
    everywhere. Repeat visits
    (multiple approaches, or repeat passes within one drive) keep the
    earliest reference time, then the lowest leg and row, and are tallied in
    the skip report as ``duplicate_pass``. Windows cut short by the start or
    end of the drive are kept and tallied as ``truncated``.
    """
    params = params or WindowParams()
    leg, row = _leg_hits(sensor, reviewed, params.heading_tol_deg)
    # Each hit's leg as its index among the legs with hits, the only legs
    # whose ids are taken, so an id beyond int64 fails only there.
    used, leg = np.unique(leg, return_inverse=True)
    at = reviewed.owner[used]
    try:
        ids = np.array([reviewed.intxn_id[i] for i in at.tolist()], np.int64)
        legs = np.array([reviewed.leg_id[k] for k in used.tolist()], np.int64)
    except OverflowError as exc:
        raise DataError("intersection and leg ids must lie in the int64 range") from exc
    bounds = np.array(sensor.offsets)
    drive = np.searchsorted(bounds, row, "right") - 1
    t = to_seconds(sensor.t_us[row])

    # Visits: runs of one leg's hits in one drive without a gap over pass_gap_s.
    split = np.ones(len(row), dtype=bool)
    split[1:] = (leg[1:] != leg[:-1]) | (drive[1:] != drive[:-1])
    split[1:] |= t[1:] - t[:-1] > params.pass_gap_s
    visit = np.cumsum(split) - 1
    starts = np.flatnonzero(split)
    # The exact distance only where it can pick the reference; +inf elsewhere.
    dist = nearest_distances_ft(
        sensor.lat[row], sensor.lon[row], reviewed.lat[at][leg], reviewed.lon[at][leg],
        np.append(starts, len(row)),
    )
    refs = np.lexsort((row, t, dist, visit))[starts]

    # Per (drive, intersection), the earliest visit.
    drive, t, ref, ids, legs = drive[refs], t[refs], row[refs], ids[leg[refs]], legs[leg[refs]]
    order = np.lexsort((ref, legs, t, ids, drive))
    drives, intxn_ids = drive[order], ids[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (drives[1:] != drives[:-1]) | (intxn_ids[1:] != intxn_ids[:-1])
    pick = order[first]
    drive, ref = drive[pick], ref[pick]

    cum, t_us, first, end = sensor.cum, sensor.t_us, bounds[drive], bounds[drive + 1]
    lo = cum[ref] - params.upstream_ft
    hi = cum[ref] + params.downstream_ft
    truncated = (cum[first] > lo) | (cum[end - 1] < hi)
    start, stop = search_runs(cum, first, end, lo), search_runs(cum, first, end, hi, "right")
    columns = ids[pick], legs[pick], t_us[ref], t_us[start], t_us[stop - 1]
    table = TrajectoryTable._grouped(*_sorted_keys(sensor.keys, drive), *columns)
    return table, {"duplicate_pass": len(refs) - len(pick), "truncated": int(truncated.sum())}


def write_trajectories_csv(trajs: TrajectoryTable, sensor: SensorTable, dest: str | Path | IO):
    """Write ``trajs``, each window's reference odometer and size from ``windows`` in ``sensor``."""
    ref, start, stop = windows(trajs, sensor)
    ref_cum, n_points = sensor.cum[ref], stop - start
    render_cum = _float_renderer(repr, ref_cum)
    done = 0  # the rows rendered before the part

    def render(part: TrajectoryTable) -> list:
        nonlocal done
        rows, done = slice(done, done + len(part)), done + len(part)
        return [
            part.traj_ids(),
            *part.key_texts(),
            *(list(map(str, ids.tolist())) for ids in (part.intxn_id, part.leg_id)),
            *(_time_texts(t) for t in (part.ref_us, part.start_us, part.end_us)),
            render_cum(ref_cum[rows]),
            list(map(str, n_points[rows].tolist())),
        ]

    write_csv(dest, TRAJECTORY_COLUMNS, trajs.chunks(render))


def load_trajectories_csv(source: str | Path | IO) -> TrajectoryTable:
    """The trajectory table of a summary CSV. Raises DataError for the first
    row, in file order, that does not parse, or whose traj_id is not
    ``<subj>_<drive>_<intxn_id>``.
    """

    def bad_row(reason, line, row):
        raise DataError(f"bad trajectory row at line {line}: {row!r}")

    named = _parse_csv([source], TrajectoryTable, False, bad_row)
    keys, key = _sorted_keys(named["keys"], named["key"])
    intxn_id = named["intxn_id"]
    expected = ["%s_%s_%s" % (*keys[k], i) for k, i in zip(key.tolist(), intxn_id.tolist())]
    for traj_id, name in zip(named["traj_id"], expected):
        if traj_id != name:
            raise DataError(f"trajectory id {traj_id!r} is not {name!r}")
    times = (named[n] for n in ("ref_time_utc", "start_time_utc", "end_time_utc"))
    return TrajectoryTable._sorted(keys, key, intxn_id, named["leg_id"], *times)
