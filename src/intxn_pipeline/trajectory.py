"""Entering-trajectory extraction through reviewed intersections.

For every (participant, drive, intersection, approach) the sensor points
inside the approach polygon are filtered to those heading with the entering
traffic, the surviving point closest to the intersection anchors the
window, and the window is cut from the whole drive by cumulative distance:
300 ft upstream to 200 ft downstream by default.
"""

from __future__ import annotations

import csv
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from datetime import datetime
from itertools import accumulate, groupby
from pathlib import Path
from typing import IO

import numpy as np

from .errors import DataError
from .geo import (
    ON_EDGE_TOL_DEG,
    CellGrid,
    angular_difference_deg,
    haversine_distance_ft,
    in_box,
    initial_bearing_deg,
    point_in_polygon,
)
from .ingest import SensorRecord, format_time_utc, parse_time_utc
from .review import ApproachLeg, ReviewedIntersection
from .storage import resolve_uri


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


@dataclass
class TrajectoryCandidate:
    """One (participant, drive, intersection) entering pass."""

    traj_id: str
    subj: str
    drive: int
    intxn_id: int
    leg_id: int
    points: list[SensorRecord]
    ref_index: int
    ref_time_utc: datetime
    start_time_utc: datetime
    end_time_utc: datetime

    @property
    def ref_cum_dist_ft(self) -> float:
        return self.points[self.ref_index].cum_dist_ft


def assign_bearings(reviewed: list[ReviewedIntersection]) -> list[ReviewedIntersection]:
    """Fill each approach's entering bearing from its direction line.

    The bearing is the forward azimuth from the line's first vertex to its
    last; intermediate vertices are ignored since the endpoints define the
    reviewer's intent. Raises ValueError for a degenerate line.
    """
    for intxn in reviewed:
        for leg in intxn.approaches:
            first, last = leg.entering_line[0], leg.entering_line[-1]
            if first == last:
                raise ValueError(
                    f"degenerate entering line on intersection {intxn.intxn_id} leg {leg.leg_id}"
                )
            leg.entering_bearing = initial_bearing_deg(first, last)
    return reviewed


def _split_episodes(indices: list[int], times: list[float], gap_s: float) -> list[list[int]]:
    episodes = [[indices[0]]]
    for prev, cur in zip(indices, indices[1:]):
        if times[cur] - times[prev] > gap_s:
            episodes.append([])
        episodes[-1].append(cur)
    return episodes


# Cell size of the point index, about one approach leg long, so a leg's
# bounding box meets only a handful of cells.
LEG_CELL_FT = 300.0

# Per approach leg: its intersection, the leg, and the ascending drive
# indices of the points inside the polygon heading the entering way.
LegHits = list[tuple[ReviewedIntersection, ApproachLeg, list[int]]]


def _drives(sensor: list[SensorRecord]) -> dict[tuple[str, int], list[SensorRecord]]:
    drives: dict[tuple[str, int], list[SensorRecord]] = {}
    for rec in sensor:
        drives.setdefault((rec.subj, rec.drive), []).append(rec)
    for recs in drives.values():
        recs.sort(key=SensorRecord.sort_key)
    return drives


def _leg_hits(
    drives: list[list[SensorRecord]],
    reviewed: list[ReviewedIntersection],
    heading_tol_deg: float,
) -> dict[int, LegHits]:
    """Points inside each approach polygon and heading the entering way, by drive.

    All points sit in one study-wide ``CellGrid``. Each leg gathers the
    points in the cells its bounding box meets, applies the box and the
    heading gate as array operations, and runs ``point_in_polygon`` only on
    the survivors. Keys are positions in ``drives``; hits follow the order
    of ``reviewed`` and its approaches.
    """
    recs = [r for drive in drives for r in drive]
    starts = [0, *accumulate(len(drive) for drive in drives)]
    lats = np.fromiter((r.pos.lat_deg for r in recs), dtype=float, count=len(recs))
    lons = np.fromiter((r.pos.lon_deg for r in recs), dtype=float, count=len(recs))
    headings = np.fromiter((r.heading_deg for r in recs), dtype=float, count=len(recs))
    grid = CellGrid(lats, lons, LEG_CELL_FT)

    hits: dict[int, LegHits] = {}
    for intxn in reviewed:
        for leg in intxn.approaches:
            if leg.entering_bearing is None:
                raise ValueError("entering bearings must be assigned before extraction")
            box = leg.polygon.bounds(ON_EDGE_TOL_DEG)
            idx = grid.overlapping(box)
            keep = in_box(box, lats[idx], lons[idx]) & (
                angular_difference_deg(headings[idx], leg.entering_bearing) <= heading_tol_deg
            )
            inside = [i for i in idx[keep].tolist() if point_in_polygon(recs[i].pos, leg.polygon)]
            for d, members in groupby(inside, key=lambda i: bisect_right(starts, i) - 1):
                hits.setdefault(d, []).append((intxn, leg, [i - starts[d] for i in members]))
    return hits


def _extract_for_drive(
    recs: list[SensorRecord], hits: LegHits, params: WindowParams
) -> tuple[list[TrajectoryCandidate], int, int]:
    times = [r.t_utc.timestamp() for r in recs]
    cums = [r.cum_dist_ft for r in recs]
    subj, drive = recs[0].subj, recs[0].drive

    # (intxn_id, ref_time, leg_id, ref_drive_index) per approach visit
    picks: list[tuple[int, float, int, int]] = []
    for intxn, leg, surviving in hits:
        for episode in _split_episodes(surviving, times, params.pass_gap_s):
            ref_i = min(
                episode,
                key=lambda i: (haversine_distance_ft(recs[i].pos, intxn.pos), times[i]),
            )
            picks.append((intxn.intxn_id, times[ref_i], leg.leg_id, ref_i))

    by_intxn: dict[int, list[tuple[int, float, int, int]]] = {}
    for pick in picks:
        by_intxn.setdefault(pick[0], []).append(pick)

    out: list[TrajectoryCandidate] = []
    duplicates = 0
    truncated = 0
    for intxn_id in sorted(by_intxn):
        visits = sorted(by_intxn[intxn_id], key=lambda p: (p[1], p[2], p[3]))
        duplicates += len(visits) - 1
        _, _, leg_id, ref_i = visits[0]
        lo = cums[ref_i] - params.upstream_ft
        hi = cums[ref_i] + params.downstream_ft
        left = bisect_left(cums, lo)
        right = bisect_right(cums, hi) - 1
        if cums[0] > lo or cums[-1] < hi:
            truncated += 1
        window = recs[left : right + 1]
        out.append(
            TrajectoryCandidate(
                traj_id=f"{subj}_{drive}_{intxn_id}",
                subj=subj,
                drive=drive,
                intxn_id=intxn_id,
                leg_id=leg_id,
                points=window,
                ref_index=ref_i - left,
                ref_time_utc=recs[ref_i].t_utc,
                start_time_utc=window[0].t_utc,
                end_time_utc=window[-1].t_utc,
            )
        )
    return out, duplicates, truncated


def extract_trajectories(
    sensor: list[SensorRecord],
    reviewed: list[ReviewedIntersection],
    params: WindowParams | None = None,
) -> tuple[list[TrajectoryCandidate], dict[str, int]]:
    """Extract one entering trajectory per (subj, drive, intersection).

    Repeat visits (multiple approaches, or repeat passes within one drive)
    keep the earliest reference time and are tallied in the skip report as
    ``duplicate_pass``. Windows cut short by the start or end of the drive
    are kept and tallied as ``truncated``.
    """
    params = params or WindowParams()
    by_key = _drives(sensor)
    drives = [by_key[key] for key in sorted(by_key)]
    hits = _leg_hits(drives, reviewed, params.heading_tol_deg)

    trajs: list[TrajectoryCandidate] = []
    skip_report = {"duplicate_pass": 0, "truncated": 0}
    for d in sorted(hits):
        drive_trajs, duplicates, truncated = _extract_for_drive(drives[d], hits[d], params)
        trajs.extend(drive_trajs)
        skip_report["duplicate_pass"] += duplicates
        skip_report["truncated"] += truncated
    trajs.sort(key=lambda t: (t.subj, t.drive, t.intxn_id))
    return trajs, skip_report


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


def write_trajectories_csv(trajs: list[TrajectoryCandidate], dest: str | Path | IO) -> None:
    with resolve_uri(dest, "w") as handle:
        w = csv.writer(handle, lineterminator="\n")
        w.writerow(TRAJECTORY_COLUMNS)
        for t in trajs:
            w.writerow(
                [
                    t.traj_id,
                    t.subj,
                    t.drive,
                    t.intxn_id,
                    t.leg_id,
                    format_time_utc(t.ref_time_utc),
                    format_time_utc(t.start_time_utc),
                    format_time_utc(t.end_time_utc),
                    repr(t.ref_cum_dist_ft),
                    len(t.points),
                ]
            )


def load_trajectories_csv(
    source: str | Path | IO, sensor: list[SensorRecord]
) -> list[TrajectoryCandidate]:
    """Rebuild trajectory windows from the summary CSV plus the sensor table.

    The window is the time span [start, end] of the drive, which delimits
    the same contiguous point run the extractor produced.
    """
    drives = _drives(sensor)
    drive_times = {key: [r.t_utc for r in recs] for key, recs in drives.items()}

    with resolve_uri(source, "r") as handle:
        reader = csv.DictReader(handle)
        have = set(reader.fieldnames or ())
        missing = [c for c in TRAJECTORY_COLUMNS if c not in have]
        if missing:
            raise DataError(f"trajectory table missing columns: {', '.join(missing)}")
        out = []
        for row in reader:
            subj = row["subj"]
            drive = int(row["drive"])
            recs = drives.get((subj, drive))
            if not recs:
                raise DataError(f"no sensor data for trajectory {row['traj_id']}")
            times = drive_times[(subj, drive)]
            start = parse_time_utc(row["start_time_utc"])
            end = parse_time_utc(row["end_time_utc"])
            ref_time = parse_time_utc(row["ref_time_utc"])
            left = bisect_left(times, start)
            right = bisect_right(times, end) - 1
            window = recs[left : right + 1]
            if not window:
                raise DataError(f"empty window for trajectory {row['traj_id']}")
            try:
                ref_index = times.index(ref_time, left, right + 1) - left
            except ValueError as exc:
                raise DataError(
                    f"reference time not in window for trajectory {row['traj_id']}"
                ) from exc
            out.append(
                TrajectoryCandidate(
                    traj_id=row["traj_id"],
                    subj=subj,
                    drive=drive,
                    intxn_id=int(row["intxn_id"]),
                    leg_id=int(row["leg_id"]),
                    points=window,
                    ref_index=ref_index,
                    ref_time_utc=ref_time,
                    start_time_utc=start,
                    end_time_utc=end,
                )
            )
        return sorted(out, key=lambda t: (t.subj, t.drive, t.intxn_id))
