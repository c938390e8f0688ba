"""Entering-trajectory extraction through reviewed intersections.

For every (participant, drive, intersection, approach) the sensor points
inside the approach polygon are filtered to those heading with the entering
traffic, the surviving point closest to the intersection anchors the
window, and the window is cut from the whole drive by cumulative distance:
300 ft upstream to 200 ft downstream by default.

``_leg_hits`` gives each approach leg's ascending sensor-table rows inside
its polygon and heading the way of its entering line, over the whole study
at once: a per-leg cell, box and heading gate, then one polygon test of
every gated (point, leg) pair against a ``RingTable`` of all the legs.
Extraction finds each row's drive in the table's offsets.

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
from itertools import repeat
from pathlib import Path
from typing import IO

import numpy as np

from .errors import DataError
from .geo import (
    CellGrid,
    RingTable,
    angular_difference_deg,
    haversine_distances_ft,
    in_box,
    initial_bearing_deg,
    points_in_polygon,
)
from .ingest import (
    _INT,
    _INT64,
    _TEXT,
    _TIME,
    SensorTable,
    _parse_csv,
    _per_value,
    _Table,
    _time_texts,
)
from .review import ApproachLeg, ReviewedIntersection
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
            "traj_id": _TEXT, "subj": _TEXT, "drive": _INT, "intxn_id": _INT64, "leg_id": _INT64,
            **times, "ref_cum_dist_ft": None, "n_points": None,
        }

    def traj_ids(self) -> list[str]:
        return [f"{s}_{d}_{i}" for s, d, i in zip(*self.key_texts(), self.intxn_id.tolist())]


def _entering_bearing(intxn: ReviewedIntersection, leg: ApproachLeg) -> float:
    """The forward azimuth from the first vertex of the leg's entering line
    to its last; intermediate vertices are ignored since the endpoints define
    the reviewer's intent. Raises DataError for a line without two distinct
    ends."""
    line = leg.entering_line
    if not line or line[0] == line[-1]:
        raise DataError(
            f"degenerate entering line on intersection {intxn.intxn_id} leg {leg.leg_id}"
        )
    return initial_bearing_deg(line[0], line[-1])


# Cell size of the point index, about one approach leg long, so a leg's
# bounding box meets only a handful of cells.
LEG_CELL_FT = 300.0


def _leg_hits(
    sensor: SensorTable,
    reviewed: list[ReviewedIntersection],
    heading_tol_deg: float,
) -> list[tuple[ReviewedIntersection, ApproachLeg, np.ndarray]]:
    """Per approach leg with hits, in the order of ``reviewed`` and its
    approaches: its intersection, the leg, and the ascending rows of
    ``sensor`` inside the polygon heading the entering way.

    All points sit in one study-wide ``CellGrid``. Each leg gathers the
    points in the cells its bounding box meets and applies the box and the
    heading gate, from the ``_entering_bearing`` of its line (so a
    degenerate line is a DataError), as array operations; one
    ``points_in_polygon`` then tests every (point, leg) pair that passed.
    """
    legs = [(intxn, leg) for intxn in reviewed for leg in intxn.approaches]
    bearings = [_entering_bearing(intxn, leg) for intxn, leg in legs]
    rings = RingTable([leg.polygon for _, leg in legs])
    lats, lons, headings = sensor.lat, sensor.lon, sensor.heading
    grid = CellGrid(lats, lons, LEG_CELL_FT)

    gated = []
    for box, bearing in zip(rings.bounds, bearings):
        idx = grid.overlapping(box)
        keep = in_box(box, lats[idx], lons[idx]) & (
            angular_difference_deg(headings[idx], bearing) <= heading_tol_deg
        )
        gated.append(idx[keep])
    ring = np.repeat(np.arange(len(legs)), [len(rows) for rows in gated])
    rows = np.concatenate([np.empty(0, np.int64), *gated])
    inside = points_in_polygon(rings, ring, lats[rows], lons[rows])
    rows, cuts = rows[inside], np.searchsorted(ring[inside], range(len(legs) + 1)).tolist()
    return [(*legs[k], rows[lo:hi]) for k, (lo, hi) in enumerate(zip(cuts, cuts[1:])) if lo < hi]


def extract_trajectories(
    sensor: SensorTable,
    reviewed: list[ReviewedIntersection],
    params: WindowParams | None = None,
) -> tuple[TrajectoryTable, dict[str, int]]:
    """Extract one entering trajectory per (subj, drive, intersection).

    Each approach leg's hits in one drive split into visits where more than
    ``pass_gap_s`` passes between two of them. A visit's reference is its
    point closest to the intersection, the earliest of equals. Repeat visits
    (multiple approaches, or repeat passes within one drive) keep the
    earliest reference time, then the lowest leg and row, and are tallied in
    the skip report as ``duplicate_pass``. Windows cut short by the start or
    end of the drive are kept and tallied as ``truncated``.
    """
    params = params or WindowParams()
    hits = _leg_hits(sensor, reviewed, params.heading_tol_deg)
    entry = np.repeat(np.arange(len(hits)), [len(rows) for *_, rows in hits])

    def per_hit(values, dtype):
        return np.array(values, dtype=dtype)[entry]

    intxns = [intxn for intxn, _, _ in hits]
    try:
        ids = per_hit([intxn.intxn_id for intxn in intxns], np.int64)
        legs = per_hit([leg.leg_id for _, leg, _ in hits], np.int64)
    except OverflowError as exc:
        raise DataError("intersection and leg ids must lie in the int64 range") from exc
    row = np.concatenate([np.empty(0, np.int64), *(rows for *_, rows in hits)])
    bounds = np.array(sensor.offsets)
    drive = np.searchsorted(bounds, row, "right") - 1
    t = sensor.seconds()[row]

    # Visits: runs of one leg's hits in one drive without a gap over pass_gap_s.
    split = np.ones(len(row), dtype=bool)
    split[1:] = (entry[1:] != entry[:-1]) | (drive[1:] != drive[:-1])
    split[1:] |= t[1:] - t[:-1] > params.pass_gap_s
    visit = np.cumsum(split) - 1
    dist = haversine_distances_ft(
        sensor.lat[row], sensor.lon[row],
        per_hit([intxn.pos.lat_deg for intxn in intxns], float),
        per_hit([intxn.pos.lon_deg for intxn in intxns], float),
    )
    refs = np.lexsort((row, t, dist, visit))[np.flatnonzero(split)]

    # Per (drive, intersection), the earliest visit.
    drive, ids, t, legs, ref = drive[refs], ids[refs], t[refs], legs[refs], row[refs]
    order = np.lexsort((ref, legs, t, ids, drive))
    drives, intxn_ids = drive[order], ids[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (drives[1:] != drives[:-1]) | (intxn_ids[1:] != intxn_ids[:-1])
    pick = order[first]
    drive, ref = drive[pick], ref[pick]

    cum = sensor.cum
    lo = cum[ref] - params.upstream_ft
    hi = cum[ref] + params.downstream_ft
    truncated = (cum[bounds[drive]] > lo) | (cum[bounds[drive + 1] - 1] < hi)
    used, codes = np.unique(drive, return_inverse=True)
    table = TrajectoryTable._grouped(
        [sensor.keys[d] for d in used.tolist()], codes, ids[pick], legs[pick], ref,
        sensor.search(cum, drive, lo), sensor.search(cum, drive, hi, "right"), sensor=sensor,
    )
    return table, {"duplicate_pass": len(refs) - len(pick), "truncated": int(truncated.sum())}


def write_trajectories_csv(trajs: TrajectoryTable, dest: str | Path | IO) -> None:
    t_us, cum = trajs.sensor.t_us, trajs.sensor.cum

    def render(part: TrajectoryTable) -> list:
        return [
            part.traj_ids(),
            *part.key_texts(),
            *(list(map(str, ids.tolist())) for ids in (part.intxn_id, part.leg_id)),
            *(_time_texts(t_us[rows]) for rows in (part.ref, part.start, part.stop - 1)),
            _per_value(repr, cum[part.ref]),
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

    named = _parse_csv(source, TrajectoryTable, False, bad_row)[0]
    subj, drive, intxn_id = named["subj"], named["drive"], named["intxn_id"]
    where = {key: d for d, key in enumerate(sensor.keys)}
    codes = np.fromiter(map(where.get, zip(subj, drive), repeat(-1)), np.int64, len(subj))
    problem = np.where(codes < 0, 1, 0)

    # Times search as offsets from their drive's first time: a float holds
    # those exactly over any drive shorter than 285 years (2**53 us).
    found = np.flatnonzero(codes >= 0)
    d = codes[found]
    bounds = np.array(sensor.offsets)
    t_us = sensor.t_us
    since = t_us - np.repeat(t_us[bounds[:-1]], np.diff(bounds))
    first_us = t_us[bounds[d]]

    def search(name, side="left"):
        return sensor.search(since, d, named[name][found] - first_us, side)

    left, right = search("start_time_utc"), search("end_time_utc", "right")
    at = np.clip(search("ref_time_utc"), left, right)
    ref_us = named["ref_time_utc"][found]
    problem[found] = np.select(
        [left >= right, (at == right) | (t_us[np.minimum(at, len(t_us) - 1)] != ref_us)], [2, 3]
    )
    ids = named["traj_id"]
    expected = [f"{s}_{v}_{i}" for s, v, i in zip(subj, drive, intxn_id.tolist())]
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
    return TrajectoryTable.from_columns(
        subj, drive, intxn_id, named["leg_id"], at, left, right, sensor=sensor
    )
