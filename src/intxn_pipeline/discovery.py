"""Intersection candidates from road networks and from detection clusters.

Road-network polylines yield intersection candidates where three or more
vertices coincide. Detection streams are reduced to last-in-run sightings,
clustered with DBSCAN under a haversine metric, and snapped to the nearest
network candidate to mark participant-visited intersections. All of it
works on columns: the network's vertices, ``geo.centroids`` of all groups
or clusters at once, distance tests over blocks of the pairs that a
``geo.CellGrid`` finds near each point or cluster center, and one
``Candidates`` type that both candidate GeoJSON files read into.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import pairwise
from operator import itemgetter
from pathlib import Path
from typing import IO, Callable

import numpy as np

from .errors import DataError
from .geo import (
    EARTH_RADIUS_FT, FT_PER_DEG, PAIR_BLOCK, CellGrid, centroids, haversine_distances_ft,
    haversine_estimates_ft, run_blocks,
)
from .ingest import CLASS_NAMES, DetectionTable, to_seconds
from .storage import json_integer, json_points, read_json

DEFAULT_COINCIDENCE_TOL_FT = 1.0
DEFAULT_RUN_GAP_S = 2.0
DEFAULT_EPS_FT = 100.0
DEFAULT_MIN_PTS = 2
DEFAULT_MAX_MATCH_FT = 200.0


@dataclass(eq=False)
class RoadNetwork:
    """Polyline road geometry as columns: line k is ``line_id[k]``, through
    the vertices (``lat[v]``, ``lon[v]``) for v in ``first[k]:first[k + 1]``."""

    line_id: list[str]
    lat: np.ndarray
    lon: np.ndarray
    first: np.ndarray


@dataclass(eq=False)
class Candidates:
    """Intersection candidates as columns: candidate i, ids ascending, is
    ``intxn_id[i]`` at (``lat[i]``, ``lon[i]``) with the value
    ``props[name][i]`` of each further GeoJSON property, in written order:
    ``LRS_PROPS`` for the network's candidates, ``VISITED_PROPS`` for the
    visited ones. Ids and property values are Python objects."""

    intxn_id: list[int]
    lat: np.ndarray
    lon: np.ndarray
    props: dict[str, list]

    def __len__(self) -> int:
        return len(self.intxn_id)

    def __eq__(self, other):
        if type(other) is not Candidates:
            return NotImplemented
        return candidates_to_geojson(self) == candidates_to_geojson(other)


def extract_lrs_candidates(
    network: RoadNetwork, tol_ft: float = DEFAULT_COINCIDENCE_TOL_FT
) -> Candidates:
    """Intersection candidates where three or more polyline vertices coincide.

    All vertices are pooled and grouped by transitive closure of the
    within-``tol_ft`` neighbor relation (DBSCAN with min_pts = 1); each
    group of size three or more becomes a candidate at its ``_centers``,
    with the group size as its degree. IDs are assigned in row order:
    latitudes that lie within ``tol_ft`` of the next lower one chain into
    one band, bands go south to north and each goes west to east, so
    centroids of one street that differ in their last bits keep the order
    of the street's junctions. Equal centroids keep their groups' order.
    """
    lat, lon = network.lat, network.lon
    _, first, (c_lat, c_lon) = _centers(lat, lon, dbscan_labels(lat, lon, tol_ft, 1))
    size = np.diff(first)
    keep = np.flatnonzero(size >= 3)
    by_lat = keep[np.lexsort((c_lon[keep], c_lat[keep]))]
    # A band starts where the latitude rises by more than tol_ft.
    bands = np.cumsum(np.diff(c_lat[by_lat], prepend=-np.inf) * FT_PER_DEG > tol_ft)
    at = by_lat[np.lexsort((c_lon[by_lat], bands))]
    ids = list(range(1, len(at) + 1))
    return Candidates(ids, c_lat[at], c_lon[at], {"degree": size[at].tolist()})


def _centers(lat: np.ndarray, lon: np.ndarray, labels: np.ndarray):
    """The points of each label but -1, label by label, as ``rows`` of the
    arrays in (lat, lon) order, the offsets ``first`` of each label's run,
    and the ``centroids`` of the runs."""
    rows = np.flatnonzero(labels >= 0)
    rows = rows[np.lexsort((lon[rows], lat[rows], labels[rows]))]
    first = np.append(np.flatnonzero(np.diff(labels[rows], prepend=-1)), len(rows))
    return rows, first, centroids(lat[rows], lon[rows], first)


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
    point of a sparser cell counts its neighbors in the cells within reach.
    Two cells join when some pair of their core points is within eps: each
    cell's smallest core point is tested first, and all its core points
    only where that leaves it apart from a later cell. The joined cells'
    components come from min-label hooking and pointer jumping (Shiloach
    and Vishkin, "An O(log n) parallel connectivity algorithm", 1982).
    Every distance test runs over ``run_blocks`` of pairs, and distances
    are ``haversine_estimates_ft``, NaN and so never within eps past ~128°.
    """
    n = len(lats)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    grid = CellGrid(lats, lons, eps_ft / 2.0, narrow=True)
    size = np.diff(grid.starts)
    m = len(size)
    cell = np.empty(n, dtype=np.int64)
    cell[grid.order] = np.repeat(np.arange(m), size)

    # A pair within eps is at most 2 cell heights apart, so at most 3 rows
    # (one for rounding in the cell index), and at most `reach` columns:
    # haversine bounds its longitude gap by cos(lat) * sin(dlam / 2) <=
    # sin(eps / 2R), taken at the largest |lat|, plus half a cell.
    x = math.sin(min(eps_ft / (2.0 * EARTH_RADIUS_FT), math.pi / 2.0))
    x /= math.cos(math.radians(float(np.max(np.abs(lats)))))
    reach = math.ceil(2.0 * math.degrees(math.asin(x)) / grid.dlon + 0.5) if x < 1.0 else math.inf
    # Complex numbers sort by (real, imag), so keys ascend as the cells do,
    # and row dr - 3 around cell a is the run lo[dr, a]:hi[dr, a] of cells.
    rows = grid.keys + np.arange(-3, 4)[:, None]
    lo = np.searchsorted(grid.keys, rows - complex(0, reach))
    hi = np.searchsorted(grid.keys, rows + complex(0, reach), side="right")

    def near(query, lo, hi):
        """The pairs (i, j) within eps of each point i of ``query`` and each
        point j of the cells lo[:, a]:hi[:, a] around i's cell a, in blocks."""
        if not len(query):
            return
        a = cell[query]
        for run, at in run_blocks(grid.starts[lo[:, a].T.ravel()], grid.starts[hi[:, a].T.ravel()]):
            i, j = query[run // len(lo)], grid.order[at]
            within = haversine_estimates_ft(lats[i], lons[i], lats[j], lons[j]) <= eps_ft
            yield i[within], j[within]

    core = size[cell] >= min_pts
    sparse = np.flatnonzero(~core)
    count = np.zeros(n, dtype=np.int64)
    for i, _ in near(sparse, lo, hi):
        np.add.at(count, i, 1)
    core[sparse] = count[sparse] >= min_pts

    # Each pair of cells is tested from the lower one, against its own row
    # from the next cell on and the 3 rows above.
    after = np.vstack([np.arange(1, m + 1), lo[4:]])

    def hooked(root, query):
        """``root`` with the cells of ``query``'s points joined to the later cells
        with a core point within eps of one: each edge's larger root hooks onto
        its smaller one, then every cell points at its root, until none joins two."""
        edges = [np.unique(cell[i[core[j]]] * m + cell[j[core[j]]])
                 for i, j in near(query, after, hi[3:])]
        a, b = divmod(np.concatenate([np.empty(0, np.int64), *edges]), m)
        while len(a):
            ra, rb = root[a], root[b]
            cross = ra != rb
            a, b = a[cross], b[cross]
            np.minimum.at(root, np.maximum(ra, rb)[cross], np.minimum(ra, rb)[cross])
            while ((jumped := root[root]) != root).any():
                root = jumped
        return root

    # The pairs (a, b) of such cells that both hold a core point: each cell's
    # smallest core point is tested first, as in a crowded cell it joins most
    # of the cells near it, and then every core point of a cell still apart.
    first = np.where(size >= min_pts, grid.order[grid.starts[:-1]], n)
    np.minimum.at(first, cell[sparse[core[sparse]]], sparse[core[sparse]])
    width = (hi[3:] - after).ravel()
    a = np.repeat(np.tile(np.arange(m), 4), width)
    b = np.arange(len(a)) + np.repeat(after.ravel() - np.cumsum(width) + width, width)
    both = (first[a] < n) & (first[b] < n)
    a, b = a[both], b[both]
    root = hooked(np.arange(m), first[np.bincount(a, minlength=m) > 0])
    apart = np.bincount(a[root[a] != root[b]], minlength=m) > 0
    if apart.any():
        root = hooked(root, np.flatnonzero(core & apart[cell]))

    # Number the components in the order of their smallest core point.
    low = np.full(m, n)
    np.minimum.at(low, root, first)
    rank = np.empty(m, dtype=np.int64)
    rank[np.argsort(low)] = np.arange(m)
    labels = np.where(core, rank[root][cell], n)
    border = sparse[~core[sparse]]
    for i, j in near(border, lo, hi):
        np.minimum.at(labels, i[core[j]], labels[j[core[j]]])
    labels[border[labels[border] == n]] = -1
    return labels


def cluster_detections(
    detections: DetectionTable,
    eps_ft: float = DEFAULT_EPS_FT,
    min_pts: int = DEFAULT_MIN_PTS,
) -> tuple[np.ndarray, np.ndarray]:
    """DBSCAN the detection positions into clusters; the clusters'
    ``_centers`` as lat and lon columns, in cluster-id order.

    Noise detections are excluded. Cluster IDs, from 1, follow the (lat,
    lon) of each cluster's minimal member, so output is stable under input
    permutation: detections at one position have the same neighbors, so
    they are never in two clusters.
    """
    lat, lon = detections.lat, detections.lon
    rows, first, (c_lat, c_lon) = _centers(lat, lon, dbscan_labels(lat, lon, eps_ft, min_pts))
    minimal = rows[first[:-1]]
    ids = np.lexsort((lon[minimal], lat[minimal]))
    return c_lat[ids], c_lon[ids]


def match_clusters(
    lat: np.ndarray,
    lon: np.ndarray,
    candidates: Candidates,
    max_match_ft: float = DEFAULT_MAX_MATCH_FT,
) -> tuple[Candidates, list[dict]]:
    """Snap the cluster centers (lat[k], lon[k]), cluster IDs k + 1, to their
    nearest candidates by ``haversine_estimates_ft``, ties to the lowest
    intxn_id.

    One ``CellGrid`` lookup pairs each center with the candidates in a box
    that holds every candidate the estimate can put within
    ``max_match_ft``, and one lexsort picks the nearest inside the gate. A
    center with none, or whose box crosses the ±180° seam, is tested against
    every candidate in blocks of about ``PAIR_BLOCK`` pairs, with
    ``haversine_distances_ft`` where the estimate gives no number.

    Returns the visited candidates, each with all its supporting cluster IDs
    and the smallest match distance, and the unmatched report rows of the
    centers farther than ``max_match_ft`` from every candidate. Every center
    appears in exactly one of the two.
    """
    if not candidates:
        raise ValueError("candidate list is empty")
    # A candidate the estimate puts within the gate is within `reach` (a margin covers
    # its error and rounding): dphi in latitude and, as cos(phi1) cos(phi2) sin(dlam / 2)**2
    # <= sin(reach / 2R)**2, dlam in longitude, with cos taken dphi farther from the equator.
    reach = max(max_match_ft, 0.0) * (1.0 + 2.0**-30) + 1e-3
    dphi = math.degrees(reach / EARTH_RADIUS_FT)
    cos_far = np.cos(np.radians(np.minimum(np.abs(lat) + dphi, 90.0)))
    x = math.sin(min(reach / (2.0 * EARTH_RADIUS_FT), math.pi / 2.0)) / cos_far
    dlam = 2.0 * np.degrees(np.arcsin(np.minimum(x, 1.0)))
    boxes = lat - dphi, lon - dlam, lat + dphi, lon + dlam
    hits = [(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0))]
    for q, k in CellGrid(candidates.lat, candidates.lon, reach).overlap_pairs(boxes):
        d = haversine_estimates_ft(lat[q], lon[q], candidates.lat[k], candidates.lon[k])
        gate = d <= max_match_ft
        hits.append((q[gate], k[gate], d[gate]))
    q, k, d = map(np.concatenate, zip(*hits))
    by = np.lexsort((k, d, q))
    head = by[np.flatnonzero(np.diff(q[by], prepend=-1))]
    nearest = np.empty(len(lat), dtype=np.int64)
    dist = np.empty(len(lat))
    nearest[q[head]], dist[q[head]] = k[head], d[head]
    rest = np.isin(np.arange(len(lat)), q[head], invert=True)
    rest = np.flatnonzero(rest | (boxes[1] <= -180.0) | (boxes[3] >= 180.0))
    step = max(1, PAIR_BLOCK // len(candidates))
    for a in range(0, len(rest), step):
        c = rest[a : a + step]
        d = haversine_estimates_ft(lat[c, None], lon[c, None], candidates.lat, candidates.lon)
        i, j = np.nonzero(np.isnan(d))
        d[i, j] = haversine_distances_ft(lat[c[i]], lon[c[i]], candidates.lat[j], candidates.lon[j])
        nearest[c] = k = np.argmin(d, axis=1)
        dist[c] = d[np.arange(len(k)), k]

    far = dist > max_match_ft
    ids = np.arange(1, len(lat) + 1)
    unmatched = [
        {"cluster_id": c, "nearest_intxn_id": candidates.intxn_id[k], "dist_ft": d}
        for c, k, d in zip(ids[far].tolist(), nearest[far].tolist(), dist[far].tolist())
    ]
    hit = np.flatnonzero(~far)
    hit = hit[np.argsort(nearest[hit], kind="stable")]
    heads = np.flatnonzero(np.diff(nearest[hit], prepend=-1))
    k = nearest[hit[heads]]
    support = ids[hit].tolist()
    props = {
        "supporting_cluster_ids": [support[a:b] for a, b in pairwise([*heads.tolist(), len(hit)])],
        "match_dist_ft": np.minimum.reduceat(dist[hit], heads).tolist(),
    }
    intxn_id = [candidates.intxn_id[i] for i in k.tolist()]
    return Candidates(intxn_id, candidates.lat[k], candidates.lon[k], props), unmatched


# ---------------------------------------------------------------------------
# GeoJSON interchange

def load_network_geojson(source: str | Path | IO) -> RoadNetwork:
    """Read a WGS84 FeatureCollection of LineString/MultiLineString features;
    raises DataError on a document that is not one."""
    return read_json(source, _network_from_geojson, "road network GeoJSON")


def network_to_geojson(network: RoadNetwork) -> dict:
    """One LineString feature per line, its id the line's, in line order."""
    vertices = list(map(list, zip(network.lon.tolist(), network.lat.tolist())))
    return {
        "type": "FeatureCollection",
        "features": [
            {
                "type": "Feature",
                "id": line_id,
                "geometry": {"type": "LineString", "coordinates": vertices[a:b]},
                "properties": {},
            }
            for line_id, (a, b) in zip(network.line_id, pairwise(network.first.tolist()))
        ],
    }


def _network_from_geojson(doc: dict) -> RoadNetwork:
    if doc.get("type") != "FeatureCollection":
        raise DataError("road network must be a GeoJSON FeatureCollection")

    line_ids, runs = {}, []  # line_ids: a dict, in line order

    def add_line(line_id: str, coords) -> None:
        if len(coords) < 2:
            raise DataError(f"polyline {line_id!r} has fewer than 2 vertices")
        if line_id in line_ids:
            raise DataError(f"line id {line_id!r} is given twice")
        line_ids[line_id] = None
        runs.append([(lat, lon) for lon, lat, *_ in coords])

    for i, feature in enumerate(doc.get("features", [])):
        geom = feature.get("geometry") or {}
        props = feature.get("properties") or {}
        line_id = feature.get("id", props.get("id", i))
        if line_id is None:
            raise DataError(f"feature {i} has a null id")
        line_id = str(line_id)
        gtype = geom.get("type")
        if gtype == "LineString":
            add_line(line_id, geom.get("coordinates", []))
        elif gtype == "MultiLineString":
            for k, part in enumerate(geom.get("coordinates", [])):
                add_line(f"{line_id}:{k}", part)
        else:
            raise DataError(f"unsupported geometry type {gtype!r} in feature {line_id!r}")
    return RoadNetwork(list(line_ids), *json_points(runs))


def candidates_to_geojson(candidates: Candidates) -> dict:
    """One Point feature per candidate, with intxn_id and then ``props``."""
    names = ["intxn_id", *candidates.props]
    columns = candidates.lon.tolist(), candidates.lat.tolist(), candidates.intxn_id
    features = [
        {"type": "Feature", "geometry": {"type": "Point", "coordinates": [lon, lat]},
         "properties": dict(zip(names, values))}
        for lon, lat, *values in zip(*columns, *candidates.props.values())
    ]
    return {"type": "FeatureCollection", "features": features}


def _match_distance(value) -> float:
    if type(value) not in (int, float) or not 0.0 <= value < math.inf:
        raise ValueError(f"match distance {value!r} is not a number of feet")
    return float(value)


# The properties after intxn_id of each candidate file, each with its reader.
LRS_PROPS: dict[str, Callable] = {"degree": json_integer}
VISITED_PROPS: dict[str, Callable] = {
    "supporting_cluster_ids": lambda ids: list(map(json_integer, ids)),
    "match_dist_ft": _match_distance,
}


def candidates_from_geojson(doc: dict, props: dict[str, Callable]) -> Candidates:
    """The ``Candidates`` of a document ``candidates_to_geojson`` wrote, in any
    feature order, each property in ``props`` read by its function; raises
    ValueError (or the error of a value of the wrong type or shape) for an
    id that is not an integer or is repeated, or a bad coordinate."""
    features = sorted(
        ((json_integer(f["properties"]["intxn_id"]), f) for f in doc.get("features", [])),
        key=itemgetter(0),
    )
    for (a, _), (b, _) in pairwise(features):
        if a == b:
            raise ValueError(f"repeated intxn_id {a}")
    coords = [f["geometry"]["coordinates"] for _, f in features]
    lat, lon, _ = json_points([[(c[1], c[0]) for c in coords]])
    values = [f["properties"] for _, f in features]
    columns = {name: [read(v[name]) for v in values] for name, read in props.items()}
    return Candidates([i for i, _ in features], lat, lon, columns)
