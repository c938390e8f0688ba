"""Geodesy and planar-geometry primitives shared by all pipeline stages.

Distances are in feet on a spherical earth (R = 6,371 km, converted at
exactly 0.3048 m/ft). Headings and bearings are degrees clockwise from
true north in [0, 360). All functions here are pure and thread-safe, and
``CellGrid`` is read-only after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Iterator

import numpy as np

METERS_PER_FOOT = 0.3048
EARTH_RADIUS_FT = 6_371_000.0 / METERS_PER_FOOT

# Feet per degree of latitude (and of longitude at the equator).
FT_PER_DEG = EARTH_RADIUS_FT * math.pi / 180.0

# Lateral tolerance for the on-edge test, in degrees (~0.0004 ft).
# Absorbs float noise without promoting genuinely interior/exterior points.
ON_EDGE_TOL_DEG = 1e-9


@dataclass(frozen=True)
class GeoPoint:
    """A WGS84 position in decimal degrees."""

    lat_deg: float
    lon_deg: float

    def __post_init__(self) -> None:
        # A bool compares as 0 or 1, so JSON's true would pass the ranges.
        if isinstance(self.lat_deg, bool) or isinstance(self.lon_deg, bool):
            raise ValueError(f"coordinate is a bool: {self.lat_deg!r}, {self.lon_deg!r}")
        if not -90.0 <= self.lat_deg <= 90.0:
            raise ValueError(f"latitude out of range: {self.lat_deg!r}")
        if not -180.0 <= self.lon_deg <= 180.0:
            raise ValueError(f"longitude out of range: {self.lon_deg!r}")


def in_box(box, lats, lons):
    """Vectorised closed-box test of point arrays against (min_lat, min_lon, max_lat, max_lon)."""
    min_lat, min_lon, max_lat, max_lon = box
    return (min_lat <= lats) & (lats <= max_lat) & (min_lon <= lons) & (lons <= max_lon)


class CellGrid:
    """Points binned into uniform lat/lon cells (Akman et al., "Geometric
    computing and uniform grid technique", Computer-Aided Design, 1989).

    Cells are ``cell_ft`` tall and at least ``cell_ft`` wide at every binned
    latitude and every latitude in ``cover_lats``, so any binned point within
    ``cell_ft`` of a point at one of those latitudes lies in the 3x3 cell
    block around it. With ``narrow`` they are instead at most ``cell_ft``
    wide at all those latitudes, so two points in one cell are less than
    ``cell_ft * sqrt(2)`` apart, up to a relative ~(cell_ft / R)^2. The
    width takes one cos, of the largest |lat| of them (the smallest with
    ``narrow``): cos falls as |lat| rises, so the bound holds at each, and
    a NaN latitude makes it NaN. Longitude is planar: the ±180° seam is not
    joined. The occupied cells' (row, col) ascend in ``keys``, as complex
    numbers, and cell k's points are ``order[starts[k]:starts[k + 1]]``,
    ascending.
    """

    def __init__(self, lats, lons, cell_ft: float, cover_lats=(), narrow: bool = False):
        if not cell_ft > 0:  # NaN too
            raise ValueError("cell_ft must be positive")
        lats = np.asarray(lats, dtype=float)
        lons = np.asarray(lons, dtype=float)
        pick = np.min if narrow else np.max  # of |lat|, so of cos(lat) the other way
        ends = [pick(np.abs(a)) for a in (lats, np.asarray(cover_lats, dtype=float)) if a.size]
        cos_ref = float(np.cos(np.radians(pick(ends)))) if ends else 1.0
        self.dlat = cell_ft / FT_PER_DEG
        self.dlon = cell_ft / (FT_PER_DEG * (cos_ref if narrow else max(1e-6, cos_ref)))
        rows, cols = self._cell_of(lats, lons)
        self.order = np.lexsort((cols, rows))  # stable, so indices ascend within a cell
        rows = rows[self.order]  # then cols: one column fewer held at once
        cols = cols[self.order]
        first = np.ones(len(rows), dtype=bool)
        first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        self.starts = np.append(np.flatnonzero(first), len(rows))
        self.keys = rows[first] + 1j * cols[first]

    def _cell_of(self, lats, lons) -> tuple[np.ndarray, np.ndarray]:
        """Each point's cell row and column, as whole floats (finite ones
        make exact complex keys)."""
        return np.floor(np.asarray(lats) / self.dlat), np.floor(np.asarray(lons) / self.dlon)

    def _pairs(self, r0, c0, r1, c1) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """(query, point) index pairs, each point in a cell of rows r0[q]..r1[q]
        and columns c0[q]..c1[q], in blocks of about ``PAIR_BLOCK`` pairs,
        queries ascending.

        Each (query, row) meets one run of cells: complex keys sort by (row,
        col), so two searches find it, and its points are one slice of
        ``order``.
        """
        if not len(self.keys):
            return
        rows = self.keys.real
        r0, r1 = np.maximum(r0, rows[0]), np.minimum(r1, rows[-1])
        count = np.maximum(r1 - r0 + 1, 0).astype(np.int64)
        query = np.repeat(np.arange(len(count)), count)
        row = np.arange(len(query)) - np.repeat(np.cumsum(count) - count, count) + r0[query]
        lo = self.starts[np.searchsorted(self.keys, row + 1j * c0[query])]
        hi = self.starts[np.searchsorted(self.keys, row + 1j * c1[query], "right")]
        for run, at in run_blocks(lo, hi):
            yield query[run], self.order[at]

    def block_pairs(self, lats, lons) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The pairs of each query point (lats[q], lons[q]) with the points in
        the 3x3 cell block around it, as ``_pairs`` gives them."""
        r, c = self._cell_of(lats, lons)
        return self._pairs(r - 1, c - 1, r + 1, c + 1)

    def overlap_pairs(self, boxes) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The pairs of each box (min_lats[q], min_lons[q], max_lats[q],
        max_lons[q]) with the points in the cells that meet it, as ``_pairs``
        gives them. A superset of the points inside each box: cell indices are
        monotone in lat and lon, so no float rounding can move an inside point
        out."""
        r0, c0 = self._cell_of(boxes[0], boxes[1])
        r1, c1 = self._cell_of(boxes[2], boxes[3])
        return self._pairs(r0, c0, r1, c1)


def joined(blocks) -> tuple[np.ndarray, np.ndarray]:
    """The pairs of the blocks of a ``CellGrid`` lookup or of ``run_blocks``, all at once."""
    empty = np.empty(0, np.int64)
    return tuple(map(np.concatenate, zip((empty, empty), *blocks)))


# Pairs that ``run_blocks`` hands over at once, so that the caller's
# per-pair temporaries stay near a megabyte.
PAIR_BLOCK = 16384


def run_blocks(lo, hi) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The (run, index) pairs of the runs ``lo[r] <= index < hi[r]``, runs
    and then indices ascending, in blocks of about ``PAIR_BLOCK`` pairs; a
    block holds whole runs."""
    ends = np.cumsum(hi - lo)
    cuts = np.searchsorted(ends, np.arange(PAIR_BLOCK, ends[-1:].sum(), PAIR_BLOCK)).tolist()
    for a, b in zip([0, *cuts], [*cuts, len(ends)]):
        if a == b:
            continue
        size = hi[a:b] - lo[a:b]
        at = np.arange(size.sum()) + np.repeat(lo[a:b] - np.cumsum(size) + size, size)
        yield np.repeat(np.arange(a, b), size), at


def haversine_distances_ft(lat1, lon1, lat2, lon2) -> np.ndarray:
    """The great-circle distance in feet between each pair of points
    a = (lat1, lon1) and b = (lat2, lon2), given as equal-length arrays:
    2R asin(min(1, sqrt(h))), where h = sin(dphi / 2) ** 2 + cos(phi1)
    cos(phi2) sin(dlam / 2) ** 2, phi is the latitude in radians, and dphi
    and dlam are radians(lat2 - lat1) and radians(lon2 - lon1). Total and
    symmetric; 0.0 for coincident points.

    Each distance is that formula evaluated in Python floats, bit for bit:
    the same IEEE operations in the same order, with math's own sin, cos and
    asin and pow(s, 2.0) for each square. numpy's SIMD asin can differ in
    the last bit, and numpy squares by multiplying.
    """

    def each(fn, x):
        return np.fromiter(map(fn, x.tolist()), float, len(x))

    def sin2(x):  # pow(s, 2.0) is what s ** 2 computes
        return np.fromiter(map(pow, map(math.sin, x.tolist()), repeat(2.0)), float, len(x))

    dphi = np.radians(lat2 - lat1)
    dlam = np.radians(lon2 - lon1)
    cos_cos = each(math.cos, np.radians(lat1)) * each(math.cos, np.radians(lat2))
    h = sin2(dphi / 2.0) + cos_cos * sin2(dlam / 2.0)
    return 2.0 * EARTH_RADIUS_FT * each(math.asin, np.minimum(1.0, np.sqrt(h)))


# ``haversine_estimates_ft`` is within this share of the exact distance plus
# HAVERSINE_ESTIMATE_ABS_FT, wherever it gives a number. 2**-40 is 4,096
# units in the last place: numpy's sin, cos, sqrt and arcsin and the C
# library's agree to a few units, and the terms of h are never negative, so
# h and its square root keep those relative errors; asin's slope amplifies
# them at most 1.84-fold for sqrt(h) <= 0.9. The absolute part covers
# underflow in h, whose effect is below 1e-140 ft.
HAVERSINE_ESTIMATE_REL = 2.0**-40
HAVERSINE_ESTIMATE_ABS_FT = 1e-9


def haversine_estimates_ft(lat1, lon1, lat2, lon2) -> np.ndarray:
    """``haversine_distances_ft`` computed in numpy alone, within the bound
    above, over numpy-broadcast coordinates: the one numpy haversine; NaN
    where sqrt(h) > 0.9 (central angles over ~128°), where asin's slope
    makes no bound short enough to be useful."""
    dphi = np.radians(lat2 - lat1)
    dlam = np.radians(lon2 - lon1)
    cos_cos = np.cos(np.radians(lat1)) * np.cos(np.radians(lat2))
    x = np.sqrt(np.sin(dphi / 2.0) ** 2 + cos_cos * np.sin(dlam / 2.0) ** 2)
    return np.where(x <= 0.9, 2.0 * EARTH_RADIUS_FT * np.arcsin(np.minimum(x, 0.9)), np.nan)


def nearest_distances_ft(lat1, lon1, lat2, lon2, first) -> np.ndarray:
    """``haversine_distances_ft`` of each pair that can be the nearest of its
    group, +inf for the others; the groups are the runs ``first[k]:first[k + 1]``.

    Filter and refine (Shewchuk, "Adaptive precision floating-point
    arithmetic and fast robust geometric predicates", 1997): a pair is
    refined unless its estimate exceeds, by more than the error bound, the
    smallest estimate of its group, so every pair whose exact distance
    equals the group's smallest is refined and ties keep their order.
    """
    est = haversine_estimates_ft(lat1, lon1, lat2, lon2)
    counts = np.diff(first)
    low = np.fmin.reduceat(est, first[:-1][counts > 0]) if len(est) else est
    # |est - d| <= rel * d + abs, so a pair whose estimate passes this cannot
    # be nearer than the group's nearest estimate; NaN refines.
    cutoff = (low + 2.0 * HAVERSINE_ESTIMATE_ABS_FT) * (1.0 + 4.0 * HAVERSINE_ESTIMATE_REL)
    refine = np.flatnonzero(~(est > np.repeat(cutoff, counts[counts > 0])))
    dist = np.full(len(est), np.inf)
    dist[refine] = haversine_distances_ft(lat1[refine], lon1[refine], lat2[refine], lon2[refine])
    return dist


def initial_bearing_deg(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Forward azimuth at (lat1, lon1) toward (lat2, lon2), degrees in [0, 360).

    Raises ValueError for coincident points, where the bearing is undefined.
    """
    if lat1 == lat2 and lon1 == lon2:
        raise ValueError("bearing undefined for coincident points")
    phi1 = math.radians(lat1)
    phi2 = math.radians(lat2)
    dlam = math.radians(lon2 - lon1)
    y = math.sin(dlam) * math.cos(phi2)
    x = math.cos(phi1) * math.sin(phi2) - math.sin(phi1) * math.cos(phi2) * math.cos(dlam)
    return math.degrees(math.atan2(y, x)) % 360.0


def angular_difference_deg(h1, h2):
    """Smallest absolute angular separation of two headings, in [0, 180].

    Takes floats or numpy arrays; arrays give the scalar result elementwise.
    """
    d = abs(h1 - h2) % 360.0
    return np.minimum(d, 360.0 - d)


# Padded values ``_run_sums`` adds at once: its temporaries stay near a megabyte.
RUN_SUM_BLOCK = 1 << 17


def _run_sums(values: np.ndarray, first: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each run ``values[first[k]:first[k + 1]]`` added left to right from
    0.0: the sum before each value, and each run's total.

    ``np.cumsum`` adds in sequence along rows of 0.0 and one run each,
    padded with zeros; runs go by length, in blocks of about
    ``RUN_SUM_BLOCK`` padded values, so a long run pads few short ones.
    """
    counts = np.diff(first)
    before, total = np.empty(len(values)), np.zeros(len(counts))
    runs, a = np.argsort(counts, kind="stable"), 0
    while a < len(runs):
        # A block's rows are as wide as its last, longest run and the 0.0.
        width = counts[runs[a : a + RUN_SUM_BLOCK]] + 1
        fits = np.count_nonzero(np.arange(1, len(width) + 1) * width <= RUN_SUM_BLOCK)
        block = runs[a : a + max(1, fits)]
        size, w = counts[block], int(counts[block[-1]]) + 1
        at = np.arange(size.sum()) + np.repeat(first[block] - np.cumsum(size) + size, size)
        # Row r of the block holds run block[r] from its column 1 on.
        cell = at + np.repeat(np.arange(len(block)) * w - first[block] + 1, size)
        padded = np.zeros(len(block) * w)
        padded[cell] = values[at]
        sums = np.cumsum(padded.reshape(-1, w), axis=1).ravel()
        before[at] = sums[cell - 1]
        total[block] = sums[np.arange(len(block)) * w + size]
        a += len(block)
    return before, total


def centroids(lats, lons, first) -> np.ndarray:
    """The mean latitude and longitude of each run of vertices
    ``first[k]:first[k + 1]``, none empty, as (lats, lons) rows: each sum
    added left to right from 0.0, then divided by the run's length. Valid at
    cluster scale (up to a few hundred feet)."""
    return np.array([_run_sums(lats, first)[1], _run_sums(lons, first)[1]]) / np.diff(first)


def polyline_midpoints(lats, lons, first) -> tuple[np.ndarray, np.ndarray]:
    """The point at half the length along each polyline of vertices
    ``first[k]:first[k + 1]``, two or more, as (lats, lons) arrays.

    The length is the sum of the segments' ``haversine_distances_ft``; the
    midpoint falls in the first segment whose far end reaches half of it,
    at the vertex when that segment has no length, or at the start when
    the whole line has none, or at the end when rounding reaches no end.
    """
    seg = np.delete(np.arange(len(lats)), first[1:] - 1)  # each segment's first vertex
    length = haversine_distances_ft(lats[seg], lons[seg], lats[seg + 1], lons[seg + 1])
    seg_first = first - np.arange(len(first))
    walked, total = _run_sums(length, seg_first)
    half = total / 2.0
    line = np.repeat(np.arange(len(half)), np.diff(seg_first))
    reach = np.flatnonzero(walked + length >= half[line])
    i = reach[np.diff(line[reach], prepend=-1) > 0]  # each line's first segment to reach half
    lines = line[i]
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.where(length[i] > 0.0, (half[lines] - walked[i]) / length[i], 0.0)
    v = seg[i]
    lat, lon = lats[first[1:] - 1], lons[first[1:] - 1]
    lat[lines] = lats[v] + f * (lats[v + 1] - lats[v])
    lon[lines] = lons[v] + f * (lons[v + 1] - lons[v])
    still = np.flatnonzero(half == 0.0)
    lat[still], lon[still] = lats[first[still]], lons[first[still]]
    return lat, lon


class RingTable:
    """Polygon rings stacked for ``points_in_polygon``: ring r's vertices are
    (``ay[v]``, ``ax[v]``) (lat, lon) for v in ``first[r]:first[r + 1]``,
    and edge k runs from vertex k (a) to the next vertex of its ring (b).
    Each edge's ``math.hypot`` length, and each ring's bounds padded by
    ``ON_EDGE_TOL_DEG`` as the rows (min lat, min lon, max lat, max lon) of
    ``bounds``, are computed once.
    """

    def __init__(self, lats: np.ndarray, lons: np.ndarray, first: np.ndarray):
        self.first = np.asarray(first, dtype=np.int64)
        self.ax, self.ay = np.asarray(lons, dtype=float), np.asarray(lats, dtype=float)
        succ = np.arange(1, len(self.ax) + 1)
        succ[self.first[1:] - 1] = self.first[:-1]
        self.bx, self.by = self.ax[succ], self.ay[succ]
        dx, dy = (self.bx - self.ax).tolist(), (self.by - self.ay).tolist()
        self.length = np.array(list(map(math.hypot, dx, dy)), dtype=float)
        heads, tol = self.first[:-1], ON_EDGE_TOL_DEG
        lows = [np.minimum.reduceat(c, heads) - tol for c in (self.ay, self.ax)]
        highs = [np.maximum.reduceat(c, heads) + tol for c in (self.ay, self.ax)]
        self.bounds = np.array(lows + highs, dtype=float)


# Points tested at once, so that the (point, edge) temporaries stay near a
# megabyte however many points ``points_in_polygon`` is given.
POLYGON_TEST_BLOCK = 2048


def points_in_polygon(rings: RingTable, ring, lats, lons) -> np.ndarray:
    """Whether each point at (lats[i], lons[i]) lies in ring ``ring[i]`` of
    ``rings``, boundary included, as array operations over every (point,
    edge) pair, in the lat/lon plane (valid for approach-leg polygons, which
    span well under 1,000 ft).

    A point is inside when it lies on an edge: within ``ON_EDGE_TOL_DEG`` of
    the edge's line (|cross| / length, or for a zero-length edge its
    ``math.hypot`` distance from the vertex) and within the edge's bounding
    box widened by the same tolerance. Otherwise it is inside when a ray
    cast toward +lon crosses an odd number of edges, an edge from vertex i
    to the previous vertex j crossing where (yi > y) != (yj > y) and
    x < (xj - xi) (y - yi) / (yj - yi) + xi. The on-edge test runs only for
    the points the crossing number puts outside.
    """
    size = POLYGON_TEST_BLOCK
    if len(ring) > size:
        parts = (slice(lo, lo + size) for lo in range(0, len(ring), size))
        return np.concatenate([points_in_polygon(rings, ring[p], lats[p], lons[p]) for p in parts])
    start = rings.first[ring]
    count = rings.first[ring + 1] - start
    heads = np.cumsum(count) - count  # each point's first (point, edge) row
    lats, lons = np.repeat(lats, count), np.repeat(lons, count)
    edge = np.arange(len(lats)) + np.repeat(start - heads, count)
    ax, ay, bx, by = (c[edge] for c in (rings.ax, rings.ay, rings.bx, rings.by))
    # The crossing number takes each edge from b (vertex i) to a (vertex j);
    # a level edge (yi == yj) never crosses, so its division by 0 is moot.
    with np.errstate(divide="ignore", invalid="ignore"):
        x_cross = (ax - bx) * (lats - by) / (ay - by) + bx
    crosses = ((by > lats) != (ay > lats)) & (lons < x_cross)
    inside = np.add.reduceat(crosses.view(np.uint8), heads) % 2 == 1
    out = ~inside
    rows = np.flatnonzero(np.repeat(out, count))
    lats, lons, ax, ay, bx, by = (c[rows] for c in (lats, lons, ax, ay, bx, by))
    seg_len, tol = rings.length[edge[rows]], ON_EDGE_TOL_DEG
    cross = (bx - ax) * (lats - ay) - (by - ay) * (lons - ax)
    # A zero-length edge's on-edge test is a distance, set below.
    with np.errstate(divide="ignore", invalid="ignore"):
        on_edge = (
            (np.abs(cross) / seg_len <= tol)
            & (np.minimum(ax, bx) - tol <= lons) & (lons <= np.maximum(ax, bx) + tol)
            & (np.minimum(ay, by) - tol <= lats) & (lats <= np.maximum(ay, by) + tol)
        )
    zero = np.flatnonzero(seg_len == 0.0)
    dist = map(math.hypot, (lons[zero] - ax[zero]).tolist(), (lats[zero] - ay[zero]).tolist())
    on_edge[zero] = np.fromiter(dist, float, len(zero)) <= tol
    inside[out] = np.logical_or.reduceat(on_edge, np.cumsum(count[out]) - count[out])
    return inside


def edge_distances_ft(rings: RingTable, ring, lats, lons) -> np.ndarray:
    """The distance in feet from each point (lats[i], lons[i]) to the nearest
    edge of ring ``ring[i]`` of ``rings``, in a plane of feet east and north
    of the point (dlon cos(lat) and dlat, times FT_PER_DEG): within a foot at
    sub-kilometer scales. Each cos and hypot is math's, so each distance is
    what Python floats give, bit for bit."""
    dist = np.empty(len(ring))
    cos = np.fromiter(map(math.cos, np.radians(lats).tolist()), float, len(ring))
    for pair, edge in run_blocks(rings.first[ring], rings.first[ring + 1]):
        lat, lon, cos0 = lats[pair], lons[pair], cos[pair]
        ax, ay = (rings.ax[edge] - lon) * cos0 * FT_PER_DEG, (rings.ay[edge] - lat) * FT_PER_DEG
        bx, by = (rings.bx[edge] - lon) * cos0 * FT_PER_DEG, (rings.by[edge] - lat) * FT_PER_DEG
        dx, dy = bx - ax, by - ay
        seg_sq = dx * dx + dy * dy
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.fmax(0.0, np.fmin(1.0, -(ax * dx + ay * dy) / seg_sq))
        t[seg_sq == 0.0] = 0.0  # a zero-length edge: the distance to its vertex
        x, y = (ax + t * dx).tolist(), (ay + t * dy).tolist()
        heads = np.flatnonzero(np.diff(pair, prepend=-1))
        dist[pair[heads]] = np.minimum.reduceat(np.array(list(map(math.hypot, x, y))), heads)
    return dist


# The faults of a polygon ring, in the order ``ring_faults`` tests them.
RING_FAULTS = (None, "polygon ring needs at least 3 vertices",
               "polygon ring must not repeat its first vertex", "polygon ring is self-intersecting")


def ring_faults(lats, lons, first) -> np.ndarray:
    """Each open ring of vertices (lats[v], lons[v]), v in ``first[r]:first[r
    + 1]``, as an index into ``RING_FAULTS``: 0 for a simple polygon, else
    its first fault. Each edge is tested against every later edge without a
    shared vertex, in ``run_blocks`` of pairs, in the lon/lat plane: two edges
    meet when each one's ends lie strictly on opposite sides of the other's
    line, or an end of one lies on the other's line within its bounding box."""
    def side(ax, ay, bx, by, cx, cy):  # c against a -> b, and whether it lies on a-b
        d = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        box = (np.minimum(ax, bx) <= cx) & (cx <= np.maximum(ax, bx))
        return d, (d == 0) & box & (np.minimum(ay, by) <= cy) & (cy <= np.maximum(ay, by))

    first = np.asarray(first, dtype=np.int64)
    x, y = np.asarray(lons, dtype=float), np.asarray(lats, dtype=float)
    n = np.diff(first)
    ok = np.flatnonzero(n >= 3)
    head, tail = first[ok], first[ok + 1] - 1
    fault = np.where(n < 3, 1, 0)
    fault[ok[(x[head] == x[tail]) & (y[head] == y[tail])]] = 2
    succ = np.arange(1, len(x) + 1)
    succ[tail] = head  # each vertex's next around its ring
    ring = np.repeat(np.arange(len(n)), n)
    edge = np.flatnonzero(fault[ring] == 0)
    # Edge i pairs with edges i + 2 on; edge 0 not with the last, which ends where it starts.
    lo, hi = edge + 2, first[ring[edge] + 1] - (edge == first[ring[edge]])
    for run, j in run_blocks(lo, np.maximum(lo, hi)):
        i = edge[run]
        p1, p2, p3, p4 = ((x[v], y[v]) for v in (i, succ[i], j, succ[j]))
        (d1, t1), (d2, t2) = side(*p3, *p4, *p1), side(*p3, *p4, *p2)
        (d3, t3), (d4, t4) = side(*p1, *p2, *p3), side(*p1, *p2, *p4)
        cross = ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0))
        cross &= (d1 != 0) & (d2 != 0) & (d3 != 0) & (d4 != 0)
        fault[ring[i[cross | t1 | t2 | t3 | t4]]] = 3
    return fault
