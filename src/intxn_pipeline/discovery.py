"""Intersection candidates from road networks and from detection clusters.

Road-network polylines yield intersection candidates where three or more
vertices coincide. Detection streams are reduced to last-in-run sightings,
clustered with DBSCAN under a haversine metric, and snapped to the nearest
network candidate to mark participant-visited intersections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO

import numpy as np

from .errors import DataError
from .geo import EARTH_RADIUS_FT, FT_PER_DEG, CellGrid, GeoPoint, centroid
from .ingest import CLASS_NAMES, DetectionTable, to_seconds
from .storage import read_json

DEFAULT_COINCIDENCE_TOL_FT = 1.0
DEFAULT_RUN_GAP_S = 2.0
DEFAULT_EPS_FT = 100.0
DEFAULT_MIN_PTS = 2
DEFAULT_MAX_MATCH_FT = 200.0


@dataclass
class RoadNetwork:
    """Polyline road geometry: (line_id, ordered vertex list) pairs."""

    polylines: list[tuple[str, list[GeoPoint]]]


@dataclass(frozen=True)
class IntersectionCandidate:
    intxn_id: int
    pos: GeoPoint
    degree: int


@dataclass
class DetectionCluster:
    """A DBSCAN cluster: its members are the ascending ``rows`` of the
    clustered detection table."""

    cluster_id: int
    rows: np.ndarray
    center: GeoPoint


@dataclass
class VisitedCandidate:
    intxn_id: int
    pos: GeoPoint
    supporting_cluster_ids: list[int]
    match_dist_ft: float


@dataclass
class UnmatchedCluster:
    cluster_id: int
    center: GeoPoint
    nearest_intxn_id: int
    dist_ft: float


def _haversine_ft(lat1, lon1, lat2, lon2) -> np.ndarray:
    """Haversine distance in feet between numpy-broadcast coordinates, degrees in.

    Symmetric in its two points (their differences enter only through squared
    sines), so a pair compares with eps the same way whichever is the query.
    """
    phi1 = np.radians(lat1)
    phi2 = np.radians(lat2)
    dphi = np.radians(lat2 - lat1)
    dlam = np.radians(lon2 - lon1)
    h = np.sin(dphi / 2.0) ** 2 + np.cos(phi1) * np.cos(phi2) * np.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_FT * np.arcsin(np.minimum(1.0, np.sqrt(h)))


def extract_lrs_candidates(
    network: RoadNetwork, tol_ft: float = DEFAULT_COINCIDENCE_TOL_FT
) -> list[IntersectionCandidate]:
    """Intersection candidates where three or more polyline vertices coincide.

    All vertices are pooled and grouped by transitive closure of the
    within-``tol_ft`` neighbor relation (DBSCAN with min_pts = 1); each
    group of size three or more becomes a candidate at the group centroid,
    with the group size as its degree. IDs are assigned in row order:
    latitudes that lie within ``tol_ft`` of the next lower one chain into
    one band, bands go south to north and each goes west to east, so
    centroids of one street that differ in their last bits keep the order
    of the street's junctions.
    """
    verts: list[GeoPoint] = []
    for _, points in network.polylines:
        verts.extend(points)
    if not verts:
        return []

    groups: dict[int, list[GeoPoint]] = {}
    lats, lons = np.array([(v.lat_deg, v.lon_deg) for v in verts], dtype=float).T
    for v, lab in zip(verts, dbscan_labels(lats, lons, tol_ft, 1).tolist()):
        groups.setdefault(lab, []).append(v)

    found = []
    for members in groups.values():
        if len(members) >= 3:
            members = sorted(members, key=lambda p: (p.lat_deg, p.lon_deg))
            found.append((centroid(members), len(members)))
    found.sort(key=lambda t: (t[0].lat_deg, t[0].lon_deg))
    # A band starts where the latitude rises by more than tol_ft.
    lat = np.array([pos.lat_deg for pos, _ in found])
    bands = np.cumsum(np.diff(lat, prepend=-np.inf) * FT_PER_DEG > tol_ft).tolist()
    ordered = sorted(zip(bands, found), key=lambda b: (b[0], b[1][0].lon_deg))
    return [IntersectionCandidate(i + 1, pos, deg) for i, (_, (pos, deg)) in enumerate(ordered)]


def last_in_runs(
    detections: DetectionTable, max_gap_s: float = DEFAULT_RUN_GAP_S
) -> DetectionTable:
    """Keep only the last detection of each consecutive-detection run.

    Traffic control devices start getting detected well before the vehicle
    reaches them; the last sighting of a run is the closest one. Runs are
    per (subj, drive, object_class), split where the inter-detection gap
    exceeds ``max_gap_s``.
    """
    d, codes = detections, detections.codes()
    # Each (subj, drive, class) stream in time order, ties as in the table.
    order = np.lexsort((d.confidence, d.t_us, d.class_code, codes))
    stream = (codes * len(CLASS_NAMES) + d.class_code)[order]
    last = np.ones(len(d), dtype=bool)
    last[:-1] = (stream[1:] != stream[:-1]) | (to_seconds(np.diff(d.t_us[order])) > max_gap_s)
    keep = np.empty(len(d), dtype=bool)
    keep[order] = last
    return d.take(keep)


def dbscan_labels(lats: np.ndarray, lons: np.ndarray, eps_ft: float, min_pts: int) -> np.ndarray:
    """Classic DBSCAN of the points at (lats, lons) over a haversine metric;
    -1 marks noise.

    A point is core when its eps-neighborhood (itself included) holds at
    least ``min_pts`` points. With min_pts = 2 the clusters are exactly the
    connected components of the eps-threshold graph. Labels are those of the
    scan-order queue expansion: cluster k is the component of core points
    whose smallest index ranks k-th, a border point takes the lowest-ranked
    cluster among its core neighbors, and the rest is noise.

    Grid DBSCAN (Gunawan, "A faster algorithm for DBSCAN", 2013): cells are
    at most eps/2 on a side, so the points of one cell are all neighbors. A
    cell of ``min_pts`` or more points is all core with no distance test; a
    point of a sparser cell counts its neighbors with one haversine against
    the cells within reach. Cells within reach join in a union-find over
    cells when some pair of their core points is within eps.
    """
    n = len(lats)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    grid = CellGrid(lats, lons, eps_ft / 2.0, narrow=True)
    bounds = grid.starts.tolist()
    cells = [grid.order[s:e] for s, e in zip(bounds, bounds[1:])]

    # A pair within eps is at most 2 cell heights apart, so at most 3 rows
    # (one for rounding in the cell index), and at most `reach` columns:
    # haversine bounds its longitude gap by cos(lat) * sin(dlam / 2) <=
    # sin(eps / 2R), taken at the smallest cos(lat), plus half a cell.
    x = math.sin(min(eps_ft / (2.0 * EARTH_RADIUS_FT), math.pi / 2.0))
    x /= float(np.min(np.cos(np.radians(lats))))
    reach = math.ceil(2.0 * math.degrees(math.asin(x)) / grid.dlon + 0.5) if x < 1.0 else math.inf
    # Complex numbers sort by (real, imag), so keys ascend as the cells do,
    # and each row within reach is one run [lo, hi) of cell indices.
    keys = grid.keys
    runs = [
        (np.searchsorted(keys, keys + dr - complex(0, reach)).tolist(),
         np.searchsorted(keys, keys + dr + complex(0, reach), side="right").tolist())
        for dr in range(-3, 4)
    ]

    core = np.zeros(n, dtype=bool)
    near: dict[int, np.ndarray] = {}  # non-core point -> its neighbors
    for a, own in enumerate(cells):
        if len(own) >= min_pts:
            core[own] = True
            continue
        cand = np.concatenate([cells[b] for lo, hi in runs for b in range(lo[a], hi[a])])
        step = max(1, _PAIR_BLOCK**2 // len(cand))
        for k in range(0, len(own), step):
            rows = own[k : k + step]
            within = (
                _haversine_ft(lats[rows, None], lons[rows, None], lats[cand], lons[cand]) <= eps_ft
            )
            is_core = within.sum(axis=1) >= min_pts
            core[rows[is_core]] = True
            near.update((i, cand[w]) for i, w in zip(rows[~is_core].tolist(), within[~is_core]))

    parent = list(range(len(cells)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    cores = [own[core[own]] for own in cells]
    for a, ca in enumerate(cores):
        if not ca.size:
            continue
        root = find(a)
        later = [
            b for lo, hi in runs for b in range(max(lo[a], a + 1), hi[a])
            if cores[b].size and find(b) != root
        ]
        if later:
            cb = np.concatenate([cores[b] for b in later])
            owner = np.repeat(later, [cores[b].size for b in later])
            for b in set(owner[_within_any(lats, lons, ca, cb, eps_ft)].tolist()):
                parent[find(b)] = find(a)

    # Number the components in the order of their smallest core point.
    rank: dict[int, int] = {}
    labels = np.full(n, -1, dtype=np.int64)
    for _, a in sorted((int(ca[0]), a) for a, ca in enumerate(cores) if ca.size):
        labels[cores[a]] = rank.setdefault(find(a), len(rank))
    for i, found in near.items():
        adopted = labels[found[core[found]]]
        if adopted.size:
            labels[i] = adopted.min()
    return labels


# Cross-cell distance tests run on blocks of at most this many points a
# side, so their temporaries stay small however crowded a cell is.
_PAIR_BLOCK = 256


def _within_any(lats, lons, a: np.ndarray, b: np.ndarray, eps_ft: float) -> np.ndarray:
    """For each point of ``b``, whether some point of ``a`` is within eps_ft."""
    hit = np.zeros(len(b), dtype=bool)
    for i in range(0, len(a), _PAIR_BLOCK):
        ai = a[i : i + _PAIR_BLOCK, None]
        for j in range(0, len(b), _PAIR_BLOCK):
            bj = b[None, j : j + _PAIR_BLOCK]
            d = _haversine_ft(lats[ai], lons[ai], lats[bj], lons[bj])
            hit[j : j + _PAIR_BLOCK] |= (d <= eps_ft).any(axis=0)
    return hit


def cluster_detections(
    detections: DetectionTable,
    eps_ft: float = DEFAULT_EPS_FT,
    min_pts: int = DEFAULT_MIN_PTS,
) -> list[DetectionCluster]:
    """DBSCAN the detection positions into clusters with centroid centers.

    Noise detections are excluded. Cluster IDs are assigned by the (lat,
    lon) of each cluster's minimal member so output is stable under input
    permutation.
    """
    lat, lon = detections.lat, detections.lon
    labels = dbscan_labels(lat, lon, eps_ft, min_pts)
    found = np.flatnonzero(labels >= 0)
    found = found[np.argsort(labels[found], kind="stable")]
    built = []
    for rows in np.split(found, np.flatnonzero(np.diff(labels[found])) + 1) if found.size else []:
        # The centroid adds up the members in (lat, lon) order, as
        # geo.centroid adds up the positions it is given.
        lats, lons = (c[rows[np.lexsort((lon[rows], lat[rows]))]].tolist() for c in (lat, lon))
        center = GeoPoint(sum(lats) / len(rows), sum(lons) / len(rows))
        # Rows ascend in sort-key order, so rows[0] is the minimal member.
        built.append(((lats[0], lons[0], int(rows[0])), rows, center))
    built.sort(key=lambda t: t[0])
    return [DetectionCluster(i + 1, rows, center) for i, (_, rows, center) in enumerate(built)]


def match_clusters(
    centers: list[tuple[int, GeoPoint]],
    candidates: list[IntersectionCandidate],
    max_match_ft: float = DEFAULT_MAX_MATCH_FT,
) -> tuple[list[VisitedCandidate], list[UnmatchedCluster]]:
    """Snap cluster centers to their nearest intersection candidates.

    Centers farther than ``max_match_ft`` from every candidate land in the
    unmatched report. Candidates matched by several centers are emitted
    once, carrying all supporting cluster IDs and the smallest match
    distance. Every input center appears in exactly one of the two outputs.
    """
    if not candidates:
        raise ValueError("candidate list is empty")
    cands = sorted(candidates, key=lambda c: c.intxn_id)
    lats = np.array([c.pos.lat_deg for c in cands], dtype=float)
    lons = np.array([c.pos.lon_deg for c in cands], dtype=float)

    matched: dict[int, list[tuple[int, float]]] = {}
    unmatched: list[UnmatchedCluster] = []
    for cluster_id, center in sorted(centers, key=lambda t: t[0]):
        dists = _haversine_ft(center.lat_deg, center.lon_deg, lats, lons)
        k = int(np.argmin(dists))  # ties resolve to the lowest intxn_id
        dist = float(dists[k])
        if dist > max_match_ft:
            unmatched.append(UnmatchedCluster(cluster_id, center, cands[k].intxn_id, dist))
        else:
            matched.setdefault(k, []).append((cluster_id, dist))

    visited = []
    for k in sorted(matched):
        support = matched[k]
        visited.append(
            VisitedCandidate(
                cands[k].intxn_id,
                cands[k].pos,
                sorted(cid for cid, _ in support),
                min(dist for _, dist in support),
            )
        )
    return visited, unmatched


# ---------------------------------------------------------------------------
# GeoJSON interchange

def load_network_geojson(source: str | Path | IO) -> RoadNetwork:
    """Read a WGS84 FeatureCollection of LineString/MultiLineString features;
    raises DataError on a document that is not one."""
    return read_json(source, _network_from_geojson, "road network GeoJSON")


def _network_from_geojson(doc: dict) -> RoadNetwork:
    if doc.get("type") != "FeatureCollection":
        raise DataError("road network must be a GeoJSON FeatureCollection")

    polylines: list[tuple[str, list[GeoPoint]]] = []

    def add_line(line_id: str, coords) -> None:
        if len(coords) < 2:
            raise DataError(f"polyline {line_id!r} has fewer than 2 vertices")
        polylines.append((line_id, [GeoPoint(lat, lon) for lon, lat, *_ in coords]))

    for i, feature in enumerate(doc.get("features", [])):
        geom = feature.get("geometry") or {}
        props = feature.get("properties") or {}
        line_id = str(feature.get("id", props.get("id", i)))
        gtype = geom.get("type")
        if gtype == "LineString":
            add_line(line_id, geom.get("coordinates", []))
        elif gtype == "MultiLineString":
            for k, part in enumerate(geom.get("coordinates", [])):
                add_line(f"{line_id}:{k}", part)
        else:
            raise DataError(f"unsupported geometry type {gtype!r} in feature {line_id!r}")
    return RoadNetwork(polylines)


def _point_feature(pos: GeoPoint, properties: dict) -> dict:
    return {
        "type": "Feature",
        "geometry": {"type": "Point", "coordinates": [pos.lon_deg, pos.lat_deg]},
        "properties": properties,
    }


def candidates_to_geojson(candidates: list[IntersectionCandidate]) -> dict:
    return {
        "type": "FeatureCollection",
        "features": [
            _point_feature(c.pos, {"intxn_id": c.intxn_id, "degree": c.degree})
            for c in sorted(candidates, key=lambda c: c.intxn_id)
        ],
    }


def _point_features(doc: dict):
    """(position, properties) of each feature ``_point_feature`` wrote."""
    for feature in doc.get("features", []):
        coords = feature["geometry"]["coordinates"]
        yield GeoPoint(coords[1], coords[0]), feature["properties"]


def _by_id(items: list) -> list:
    """``items`` sorted by intxn_id; raises ValueError on a repeated id."""
    out = sorted(items, key=lambda c: c.intxn_id)
    for a, b in zip(out, out[1:]):
        if a.intxn_id == b.intxn_id:
            raise ValueError(f"repeated intxn_id {a.intxn_id}")
    return out


def candidates_from_geojson(doc: dict) -> list[IntersectionCandidate]:
    out = [
        IntersectionCandidate(int(props["intxn_id"]), pos, int(props["degree"]))
        for pos, props in _point_features(doc)
    ]
    return _by_id(out)


def visited_to_geojson(visited: list[VisitedCandidate]) -> dict:
    return {
        "type": "FeatureCollection",
        "features": [
            _point_feature(
                v.pos,
                {
                    "intxn_id": v.intxn_id,
                    "supporting_cluster_ids": v.supporting_cluster_ids,
                    "match_dist_ft": v.match_dist_ft,
                },
            )
            for v in sorted(visited, key=lambda v: v.intxn_id)
        ],
    }


def visited_from_geojson(doc: dict) -> list[VisitedCandidate]:
    out = [
        VisitedCandidate(
            int(props["intxn_id"]),
            pos,
            [int(x) for x in props["supporting_cluster_ids"]],
            float(props["match_dist_ft"]),
        )
        for pos, props in _point_features(doc)
    ]
    return _by_id(out)
