"""Entering-trajectory extraction through reviewed intersections.

For every (participant, drive, intersection, approach) the sensor points
inside the approach polygon are filtered to those heading with the entering
traffic, the surviving point closest to the intersection anchors the
window, and the window is cut from the whole drive by cumulative distance:
300 ft upstream to 200 ft downstream by default.
"""

from __future__ import annotations

import csv
import types
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from datetime import datetime
from itertools import groupby
from pathlib import Path
from typing import IO

from .errors import DataError
from .geo import (
    ON_EDGE_TOL_DEG,
    CellGrid,
    GeoPoint,
    angular_difference_deg,
    haversine_distance_ft,
    in_box,
    initial_bearing_deg,
    point_in_polygon,
    points_in_polygon,
)
from .ingest import SensorTable, format_time_utc, from_us, header_indices, parse_time_utc, to_us
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


@dataclass(frozen=True)
class TrajectoryCandidate:
    """One (participant, drive, intersection) entering pass."""

    traj_id: str
    subj: str
    drive: int
    intxn_id: int
    leg_id: int
    points: SensorTable
    ref_index: int
    ref_time_utc: datetime
    start_time_utc: datetime
    end_time_utc: datetime

    @property
    def ref_cum_dist_ft(self) -> float:
        return float(self.points.cum[self.ref_index])


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


def _leg_hits(
    sensor: SensorTable,
    reviewed: list[ReviewedIntersection],
    heading_tol_deg: float,
) -> dict[int, LegHits]:
    """Points inside each approach polygon and heading the entering way, by drive.

    All points sit in one study-wide ``CellGrid``. Each leg gathers the
    points in the cells its bounding box meets, applies the box and the
    heading gate as array operations, and tests the survivors against the
    polygon with ``points_in_polygon``. Keys are drive positions in
    ``sensor.keys``; hits follow the order of ``reviewed`` and its approaches.
    """
    lats, lons, headings = sensor.lat, sensor.lon, sensor.heading
    starts = sensor.offsets
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
            gated = idx[keep]
            if all(leg.polygon.edge_lengths()):
                inside = gated[points_in_polygon(leg.polygon, lats[gated], lons[gated])].tolist()
            else:  # a zero-length edge takes the scalar test
                rows = zip(gated.tolist(), lats[gated].tolist(), lons[gated].tolist())
                inside = [i for i, y, x in rows if point_in_polygon(GeoPoint(y, x), leg.polygon)]
            for d, members in groupby(inside, key=lambda i: bisect_right(starts, i) - 1):
                hits.setdefault(d, []).append((intxn, leg, [i - starts[d] for i in members]))
    return hits


def _extract_for_drive(
    rows: SensorTable, hits: LegHits, params: WindowParams
) -> tuple[list[TrajectoryCandidate], int, int]:
    times = rows.seconds().tolist()
    cums = rows.cum.tolist()
    lats, lons = rows.lat.tolist(), rows.lon.tolist()
    ((subj, drive),) = rows.keys

    # (intxn_id, ref_time, leg_id, ref_drive_index) per approach visit
    picks: list[tuple[int, float, int, int]] = []
    for intxn, leg, surviving in hits:
        for episode in _split_episodes(surviving, times, params.pass_gap_s):
            ref_i = min(
                episode,
                key=lambda i: (
                    haversine_distance_ft(GeoPoint(lats[i], lons[i]), intxn.pos),
                    times[i],
                ),
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
        out.append(
            TrajectoryCandidate(
                traj_id=f"{subj}_{drive}_{intxn_id}",
                subj=subj,
                drive=drive,
                intxn_id=intxn_id,
                leg_id=leg_id,
                points=rows[left : right + 1],
                ref_index=ref_i - left,
                ref_time_utc=from_us(rows.t_us[ref_i]),
                start_time_utc=from_us(rows.t_us[left]),
                end_time_utc=from_us(rows.t_us[right]),
            )
        )
    return out, duplicates, truncated


def extract_trajectories(
    sensor: SensorTable,
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
    hits = _leg_hits(sensor, reviewed, params.heading_tol_deg)

    trajs: list[TrajectoryCandidate] = []
    skip_report = {"duplicate_pass": 0, "truncated": 0}
    for d in sorted(hits):
        rows = sensor[sensor.offsets[d] : sensor.offsets[d + 1]]
        drive_trajs, duplicates, truncated = _extract_for_drive(rows, hits[d], params)
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
        # csv quotes a field holding a character of the line terminator, so
        # a subject with a line break in it is quoted; lines end in "\n".
        lines = types.SimpleNamespace(write=lambda line: handle.write(line[:-2] + "\n"))
        w = csv.writer(lines, lineterminator="\r\n")
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
    source: str | Path | IO, sensor: SensorTable
) -> list[TrajectoryCandidate]:
    """Rebuild trajectory windows from the summary CSV plus the sensor table.

    The window is the time span [start, end] of the drive, which delimits
    the same contiguous point run the extractor produced.
    """
    spans = {key: (start, stop) for key, start, stop in sensor.spans()}
    t_us = sensor.t_us.tolist()
    with resolve_uri(source, "r") as handle:
        reader = csv.reader(handle)
        idx = header_indices(next(reader, None), TRAJECTORY_COLUMNS, source)
        i_id, i_subj, i_drive, i_intxn, i_leg, i_ref, i_start, i_end = idx[:8]
        out = []
        for row in reader:
            if not row:
                continue
            try:
                traj_id, key = row[i_id], (row[i_subj], int(row[i_drive]))
                intxn_id, leg_id = int(row[i_intxn]), int(row[i_leg])
                start, end, ref = (parse_time_utc(row[i]) for i in (i_start, i_end, i_ref))
            except (IndexError, OverflowError, ValueError) as exc:
                raise DataError(f"bad trajectory row at line {reader.line_num}: {row!r}") from exc
            if key not in spans:
                raise DataError(f"no sensor data for trajectory {traj_id}")
            # The window's rows are [left, right) of the drive's [first, stop).
            first, stop = spans[key]
            left = bisect_left(t_us, to_us(start), first, stop)
            right = bisect_right(t_us, to_us(end), first, stop)
            if left == right:
                raise DataError(f"empty window for trajectory {traj_id}")
            ref_us = to_us(ref)
            at = bisect_left(t_us, ref_us, left, right)
            if at == right or t_us[at] != ref_us:
                raise DataError(f"reference time not in window for trajectory {traj_id}")
            out.append(
                TrajectoryCandidate(
                    traj_id=traj_id,
                    subj=key[0],
                    drive=key[1],
                    intxn_id=intxn_id,
                    leg_id=leg_id,
                    points=sensor[left:right],
                    ref_index=at - left,
                    ref_time_utc=ref,
                    start_time_utc=start,
                    end_time_utc=end,
                )
            )
        return sorted(out, key=lambda t: (t.subj, t.drive, t.intxn_id))
