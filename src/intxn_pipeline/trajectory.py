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
the sensor and detection tables. A row is one (drive, intersection) pass:
its intersection, its approach leg, and three rows of the study's sensor
table, the reference point and the first and one-past-last rows of the
window. Times, the reference odometer and the point count follow from the
sensor columns. Extraction picks all references with array operations,
``trajectories.csv`` is written from and read into columns, and the clip
and review-template stages take the table as it is.
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

# A row of the sensor table; held by the trajectory table, never in a file.
_ROW = (np.int64, None, None, None)


@dataclass(eq=False)
class TrajectoryTable(_Table):
    """Entering passes sorted by (subj, drive, intxn_id), each named by its
    traj_id ``<subj>_<drive>_<intxn_id>``.

    ``ref``, ``start`` and ``stop`` are rows of ``sensor`` in the pass's
    drive: its reference point, and its window ``start:stop``.
    """

    COLUMNS = {"intxn_id": _INT64, "leg_id": _INT64, "ref": _ROW, "start": _ROW, "stop": _ROW}
    SORT = ("intxn_id",)
    HEADER = TRAJECTORY_COLUMNS
    CLEAN_CHECKED = ()

    intxn_id: np.ndarray
    leg_id: np.ndarray
    ref: np.ndarray
    start: np.ndarray
    stop: np.ndarray
    sensor: SensorTable

    @classmethod
    def kinds(cls) -> dict[str, tuple | None]:
        # The reader cuts each window by its times, which fix the other two.
        times = dict.fromkeys(("ref_time_utc", "start_time_utc", "end_time_utc"), _TIME)
        return {
            "traj_id": _TEXT, "subj": _KEY, "drive": _KEY, "intxn_id": _INT64, "leg_id": _INT64,
            **times, "ref_cum_dist_ft": None, "n_points": None,
        }

    def traj_ids(self) -> list[str]:
        return [f"{s}_{d}_{i}" for s, d, i in zip(*self.key_texts(), self.intxn_id.tolist())]


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
    # Ids of the legs with hits only, so an id beyond int64 fails only there.
    used, entry = np.unique(leg, return_inverse=True)
    try:
        ids = np.array([reviewed.intxn_id[i] for i in reviewed.owner[used].tolist()], np.int64)
        legs = np.array([reviewed.leg_id[k] for k in used.tolist()], np.int64)
    except OverflowError as exc:
        raise DataError("intersection and leg ids must lie in the int64 range") from exc
    ids, legs, at = ids[entry], legs[entry], reviewed.owner[leg]
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
        sensor.lat[row], sensor.lon[row], reviewed.lat[at], reviewed.lon[at],
        np.append(starts, len(row)),
    )
    refs = np.lexsort((row, t, dist, visit))[starts]

    # Per (drive, intersection), the earliest visit.
    drive, ids, t, legs, ref = drive[refs], ids[refs], t[refs], legs[refs], row[refs]
    order = np.lexsort((ref, legs, t, ids, drive))
    drives, intxn_ids = drive[order], ids[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (drives[1:] != drives[:-1]) | (intxn_ids[1:] != intxn_ids[:-1])
    pick = order[first]
    drive, ref = drive[pick], ref[pick]

    cum, first, end = sensor.cum, bounds[drive], bounds[drive + 1]
    lo = cum[ref] - params.upstream_ft
    hi = cum[ref] + params.downstream_ft
    truncated = (cum[first] > lo) | (cum[end - 1] < hi)
    table = TrajectoryTable._grouped(
        *_sorted_keys(sensor.keys, drive), ids[pick], legs[pick], ref,
        search_runs(cum, first, end, lo), search_runs(cum, first, end, hi, "right"), sensor=sensor,
    )
    return table, {"duplicate_pass": len(refs) - len(pick), "truncated": int(truncated.sum())}


def write_trajectories_csv(trajs: TrajectoryTable, dest: str | Path | IO) -> None:
    t_us, cum = trajs.sensor.t_us, trajs.sensor.cum
    ref_cum = _float_renderer(repr, cum[trajs.ref])

    def render(part: TrajectoryTable) -> list:
        return [
            part.traj_ids(),
            *part.key_texts(),
            *(list(map(str, ids.tolist())) for ids in (part.intxn_id, part.leg_id)),
            *(_time_texts(t_us[rows]) for rows in (part.ref, part.start, part.stop - 1)),
            ref_cum(cum[part.ref]),
            list(map(str, (part.stop - part.start).tolist())),
        ]

    write_csv(dest, TRAJECTORY_COLUMNS, trajs.chunks(render))


def load_trajectories_csv(source: str | Path | IO, sensor: SensorTable) -> TrajectoryTable:
    """Rebuild trajectory windows from the summary CSV plus the sensor table.

    The window is the time span [start, end] of the drive, which delimits
    the same contiguous point run the extractor produced. Raises DataError
    for the first row, in file order, that does not parse, or whose drive
    is not in ``sensor``, whose window holds no row, whose reference time
    is not a time in its window, or whose traj_id is not
    ``<subj>_<drive>_<intxn_id>``.
    """

    def bad_row(reason, line, row):
        raise DataError(f"bad trajectory row at line {line}: {row!r}")

    named = _parse_csv([source], TrajectoryTable, False, bad_row)
    keys, key = _sorted_keys(named["keys"], named["key"])
    intxn_id = named["intxn_id"]
    codes = sensor.drive_index(keys)[key]
    problem = np.where(codes < 0, 1, 0)

    found = np.flatnonzero(codes >= 0)
    bounds, t_us = np.array(sensor.offsets), sensor.t_us
    first, end = bounds[codes[found]], bounds[codes[found] + 1]
    start_us, end_us, ref_us = (named[n][found] for n in ("start_time_utc", "end_time_utc", "ref_time_utc"))
    left, right = search_runs(t_us, first, end, start_us), search_runs(t_us, first, end, end_us, "right")
    at = search_runs(t_us, left, right, ref_us)
    problem[found] = np.select(
        [left >= right, (at == right) | (t_us[np.minimum(at, len(t_us) - 1)] != ref_us)], [2, 3]
    )
    ids = named["traj_id"]
    expected = ["%s_%s_%s" % (*keys[k], i) for k, i in zip(key.tolist(), intxn_id.tolist())]
    renamed = np.array([a != b for a, b in zip(ids, expected)], dtype=bool)
    problem[(problem == 0) & renamed] = 4
    bad = np.flatnonzero(problem)
    if len(bad):
        k = int(bad[0])
        raise DataError(
            (
                f"no sensor data for trajectory {ids[k]}",
                f"empty window for trajectory {ids[k]}",
                f"reference time not in window for trajectory {ids[k]}",
                f"trajectory id {ids[k]!r} is not {expected[k]!r}",
            )[problem[k] - 1]
        )
    return TrajectoryTable._sorted(keys, key, intxn_id, named["leg_id"], at, left, right, sensor=sensor)
