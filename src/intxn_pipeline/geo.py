"""Geodesy and planar-geometry primitives shared by all pipeline stages.

Distances are in feet on a spherical earth (R = 6,371 km, converted at
exactly 0.3048 m/ft). Headings and bearings are degrees clockwise from
true north in [0, 360). All functions here are pure and thread-safe, and
``CellGrid`` is read-only after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product, repeat

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
        if not -90.0 <= self.lat_deg <= 90.0:
            raise ValueError(f"latitude out of range: {self.lat_deg!r}")
        if not -180.0 <= self.lon_deg <= 180.0:
            raise ValueError(f"longitude out of range: {self.lon_deg!r}")


@dataclass(frozen=True)
class PolygonRing:
    """Simple polygon given as an open vertex ring (closure is implicit).

    Vertices must not repeat the first point at the end, there must be at
    least three of them, and the ring must not self-intersect.
    """

    vertices: tuple[GeoPoint, ...]

    def __post_init__(self) -> None:
        if len(self.vertices) < 3:
            raise ValueError("polygon ring needs at least 3 vertices")
        if self.vertices[0] == self.vertices[-1]:
            raise ValueError("polygon ring must not repeat its first vertex")
        if _ring_self_intersects(self.vertices):
            raise ValueError("polygon ring is self-intersecting")

    def edge_lengths(self) -> list[float]:
        """Planar length, in degrees, of each edge: vertex i to vertex i + 1."""
        v = self.vertices
        pairs = zip(v, v[1:] + v[:1])
        return [math.hypot(b.lon_deg - a.lon_deg, b.lat_deg - a.lat_deg) for a, b in pairs]

    def bounds(self, pad_deg: float = 0.0) -> tuple[float, float, float, float]:
        """(min_lat, min_lon, max_lat, max_lon) of the ring, widened by ``pad_deg``.

        Every point ``point_in_polygon`` accepts lies within
        ``bounds(ON_EDGE_TOL_DEG)``.
        """
        lats = [v.lat_deg for v in self.vertices]
        lons = [v.lon_deg for v in self.vertices]
        return min(lats) - pad_deg, min(lons) - pad_deg, max(lats) + pad_deg, max(lons) + pad_deg


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
    wide at all those latitudes (sized from the largest cos(lat)), so two
    points in one cell are less than ``cell_ft * sqrt(2)`` apart, up to a
    relative ~(cell_ft / R)^2. Longitude is planar: the ±180° seam is not
    joined. ``cells`` maps each occupied (row, col) to its ascending point
    indices, in (row, col) order.
    """

    def __init__(self, lats, lons, cell_ft: float, cover_lats=(), narrow: bool = False):
        if not cell_ft > 0:  # NaN too
            raise ValueError("cell_ft must be positive")
        lats = np.asarray(lats, dtype=float)
        lons = np.asarray(lons, dtype=float)
        cover = np.concatenate([lats, np.asarray(cover_lats, dtype=float)])
        # One expression, so the per-point cos array is freed before binning.
        pick = np.max if narrow else np.min
        cos_ref = float(pick(np.cos(np.radians(cover)))) if cover.size else 1.0
        self.dlat = cell_ft / FT_PER_DEG
        self.dlon = cell_ft / (FT_PER_DEG * (cos_ref if narrow else max(1e-6, cos_ref)))
        rows = np.floor(lats / self.dlat).astype(np.int64)
        cols = np.floor(lons / self.dlon).astype(np.int64)
        order = np.lexsort((cols, rows))  # stable, so indices ascend within a cell
        rows, cols = rows[order], cols[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        starts = np.flatnonzero(first).tolist()
        keys = zip(rows[starts].tolist(), cols[starts].tolist())
        self.cells = {
            key: order[s:e] for key, s, e in zip(keys, starts, starts[1:] + [len(order)])
        }

    def cell_of(self, lat: float, lon: float) -> tuple[int, int]:
        return math.floor(lat / self.dlat), math.floor(lon / self.dlon)

    def _members(self, cells) -> np.ndarray:
        parts = [m for m in map(self.cells.get, cells) if m is not None]
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.sort(np.concatenate(parts))

    def block(self, lat: float, lon: float) -> np.ndarray:
        """Ascending indices of the points in the 3x3 cell block around (lat, lon)."""
        r, c = self.cell_of(lat, lon)
        return self._members((r + dr, c + dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1))

    def overlapping(self, box: tuple[float, float, float, float]) -> np.ndarray:
        """Ascending indices of the points in cells that meet ``box``.

        A superset of the points inside the box: cell indices are monotone in
        lat and lon, so no float rounding can move an inside point out.
        """
        r0, c0 = self.cell_of(box[0], box[1])
        r1, c1 = self.cell_of(box[2], box[3])
        if (r1 - r0 + 1) * (c1 - c0 + 1) > len(self.cells):
            cells = [k for k in self.cells if r0 <= k[0] <= r1 and c0 <= k[1] <= c1]
        else:
            cells = product(range(r0, r1 + 1), range(c0, c1 + 1))
        return self._members(cells)


def haversine_distance_ft(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points, in feet.

    Total and symmetric; returns 0.0 for coincident points.
    """
    phi1 = math.radians(a.lat_deg)
    phi2 = math.radians(b.lat_deg)
    dphi = math.radians(b.lat_deg - a.lat_deg)
    dlam = math.radians(b.lon_deg - a.lon_deg)
    h = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_FT * math.asin(min(1.0, math.sqrt(h)))


def haversine_distances_ft(lat1, lon1, lat2, lon2) -> np.ndarray:
    """``haversine_distance_ft`` of each pair of points a = (lat1, lon1) and
    b = (lat2, lon2), given as equal-length arrays, bit for bit.

    The arithmetic is the same IEEE operations in the same order. sin, cos,
    asin and squaring are math's own: numpy's SIMD asin can differ in the
    last bit, and numpy squares by multiplying where Python's ``** 2`` calls
    the C library's pow.
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


def initial_bearing_deg(a: GeoPoint, b: GeoPoint) -> float:
    """Forward azimuth at ``a`` toward ``b``, degrees in [0, 360).

    Raises ValueError for coincident points, where the bearing is undefined.
    """
    if a.lat_deg == b.lat_deg and a.lon_deg == b.lon_deg:
        raise ValueError("bearing undefined for coincident points")
    phi1 = math.radians(a.lat_deg)
    phi2 = math.radians(b.lat_deg)
    dlam = math.radians(b.lon_deg - a.lon_deg)
    y = math.sin(dlam) * math.cos(phi2)
    x = math.cos(phi1) * math.sin(phi2) - math.sin(phi1) * math.cos(phi2) * math.cos(dlam)
    return math.degrees(math.atan2(y, x)) % 360.0


def angular_difference_deg(h1, h2):
    """Smallest absolute angular separation of two headings, in [0, 180].

    Takes floats or numpy arrays; arrays give the scalar result elementwise.
    """
    d = abs(h1 - h2) % 360.0
    return np.minimum(d, 360.0 - d)


def centroid(points: list[GeoPoint]) -> GeoPoint:
    """Arithmetic mean of latitudes and longitudes.

    Valid at cluster scale (up to a few hundred feet). Raises ValueError
    on empty input.
    """
    if not points:
        raise ValueError("centroid of empty point list")
    n = len(points)
    return GeoPoint(
        sum(p.lat_deg for p in points) / n,
        sum(p.lon_deg for p in points) / n,
    )


def _on_segment(pt: GeoPoint, a: GeoPoint, b: GeoPoint) -> bool:
    # Lateral distance from the segment's line, then a bbox check.
    ax, ay = a.lon_deg, a.lat_deg
    bx, by = b.lon_deg, b.lat_deg
    px, py = pt.lon_deg, pt.lat_deg
    seg_len = math.hypot(bx - ax, by - ay)
    if seg_len == 0.0:
        return math.hypot(px - ax, py - ay) <= ON_EDGE_TOL_DEG
    cross = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
    if abs(cross) / seg_len > ON_EDGE_TOL_DEG:
        return False
    tol = ON_EDGE_TOL_DEG
    return (
        min(ax, bx) - tol <= px <= max(ax, bx) + tol
        and min(ay, by) - tol <= py <= max(ay, by) + tol
    )


def point_in_polygon(pt: GeoPoint, ring: PolygonRing) -> bool:
    """Boundary-inclusive containment test, ray casting in the lat/lon plane.

    Treating lat/lon as planar coordinates is valid here because approach-leg
    polygons span well under 1,000 ft.
    """
    verts = ring.vertices
    n = len(verts)
    for i in range(n):
        if _on_segment(pt, verts[i], verts[(i + 1) % n]):
            return True
    x, y = pt.lon_deg, pt.lat_deg
    inside = False
    j = n - 1
    for i in range(n):
        xi, yi = verts[i].lon_deg, verts[i].lat_deg
        xj, yj = verts[j].lon_deg, verts[j].lat_deg
        if (yi > y) != (yj > y):
            x_cross = (xj - xi) * (y - yi) / (yj - yi) + xi
            if x < x_cross:
                inside = not inside
        j = i
    return inside


def points_in_polygon(ring: PolygonRing, lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
    """``point_in_polygon`` of each point at (lats, lons), as array operations.

    Each edge runs the scalar test's IEEE expressions over all the points,
    with its length and a zero-length edge's distances from ``math.hypot``,
    so the answers are the scalar ones, on edges and vertices too.
    """
    xs, ys = [v.lon_deg for v in ring.vertices], [v.lat_deg for v in ring.vertices]
    # Edge k runs from vertex k (a) to vertex k + 1 (b), one row per edge.
    ax, ay, bx, by = (np.array(c)[:, None] for c in (xs, ys, xs[1:] + xs[:1], ys[1:] + ys[:1]))
    seg_len = np.array(ring.edge_lengths())[:, None]
    tol = ON_EDGE_TOL_DEG
    cross = (bx - ax) * (lats - ay) - (by - ay) * (lons - ax)
    # Divisions by 0: a level edge (yi == yj) never crosses, and a
    # zero-length edge's on-edge test is a distance, set below.
    with np.errstate(divide="ignore", invalid="ignore"):
        on_edge = (
            (np.abs(cross) / seg_len <= tol)
            & (np.minimum(ax, bx) - tol <= lons) & (lons <= np.maximum(ax, bx) + tol)
            & (np.minimum(ay, by) - tol <= lats) & (lats <= np.maximum(ay, by) + tol)
        )
        # The crossing number takes each edge from b (vertex i) to a (vertex j).
        x_cross = (ax - bx) * (lats - by) / (ay - by) + bx
    for k in np.flatnonzero(seg_len[:, 0] == 0.0).tolist():
        dist = map(math.hypot, (lons - xs[k]).tolist(), (lats - ys[k]).tolist())
        on_edge[k] = np.fromiter(dist, float, len(lats)) <= tol
    crosses = ((by > lats) != (ay > lats)) & (lons < x_cross)
    return on_edge.any(axis=0) | np.logical_xor.reduce(crosses, axis=0)


def point_to_segment_ft(pt: GeoPoint, a: GeoPoint, b: GeoPoint) -> float:
    """Distance in feet from a point to a segment, local planar approximation.

    Accurate to well under a foot at the sub-kilometer scales the pipeline
    works with.
    """
    cos0 = math.cos(math.radians(pt.lat_deg))
    ax = (a.lon_deg - pt.lon_deg) * cos0 * FT_PER_DEG
    ay = (a.lat_deg - pt.lat_deg) * FT_PER_DEG
    bx = (b.lon_deg - pt.lon_deg) * cos0 * FT_PER_DEG
    by = (b.lat_deg - pt.lat_deg) * FT_PER_DEG
    dx, dy = bx - ax, by - ay
    seg_sq = dx * dx + dy * dy
    if seg_sq == 0.0:
        return math.hypot(ax, ay)
    t = max(0.0, min(1.0, -(ax * dx + ay * dy) / seg_sq))
    return math.hypot(ax + t * dx, ay + t * dy)


def polyline_midpoint(points: list[GeoPoint]) -> GeoPoint:
    """Point at half the cumulative length along a polyline."""
    if len(points) < 2:
        raise ValueError("polyline needs at least 2 vertices")
    seg_lengths = [
        haversine_distance_ft(points[i], points[i + 1]) for i in range(len(points) - 1)
    ]
    half = sum(seg_lengths) / 2.0
    if half == 0.0:
        return points[0]
    walked = 0.0
    for i, seg in enumerate(seg_lengths):
        if walked + seg >= half:
            f = (half - walked) / seg if seg > 0.0 else 0.0
            return GeoPoint(
                points[i].lat_deg + f * (points[i + 1].lat_deg - points[i].lat_deg),
                points[i].lon_deg + f * (points[i + 1].lon_deg - points[i].lon_deg),
            )
        walked += seg
    return points[-1]


def _orient(ax: float, ay: float, bx: float, by: float, cx: float, cy: float) -> float:
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _segments_intersect(p1: GeoPoint, p2: GeoPoint, p3: GeoPoint, p4: GeoPoint) -> bool:
    # Proper crossings and collinear overlap both count.
    x1, y1 = p1.lon_deg, p1.lat_deg
    x2, y2 = p2.lon_deg, p2.lat_deg
    x3, y3 = p3.lon_deg, p3.lat_deg
    x4, y4 = p4.lon_deg, p4.lat_deg
    d1 = _orient(x3, y3, x4, y4, x1, y1)
    d2 = _orient(x3, y3, x4, y4, x2, y2)
    d3 = _orient(x1, y1, x2, y2, x3, y3)
    d4 = _orient(x1, y1, x2, y2, x4, y4)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 != 0 and d2 != 0 and d3 != 0 and d4 != 0:
        return True

    def within(px, py, qx, qy, rx, ry):
        return min(px, qx) <= rx <= max(px, qx) and min(py, qy) <= ry <= max(py, qy)

    if d1 == 0 and within(x3, y3, x4, y4, x1, y1):
        return True
    if d2 == 0 and within(x3, y3, x4, y4, x2, y2):
        return True
    if d3 == 0 and within(x1, y1, x2, y2, x3, y3):
        return True
    if d4 == 0 and within(x1, y1, x2, y2, x4, y4):
        return True
    return False


def _ring_self_intersects(verts: tuple[GeoPoint, ...]) -> bool:
    n = len(verts)
    for i in range(n):
        a1, a2 = verts[i], verts[(i + 1) % n]
        for j in range(i + 1, n):
            # Skip the segment itself and segments sharing an endpoint.
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            b1, b2 = verts[j], verts[(j + 1) % n]
            if _segments_intersect(a1, a2, b1, b2):
                return True
    return False
