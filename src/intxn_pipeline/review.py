"""File interchange with the human review loop.

Candidates go out as KML for inspection in an earth viewer; the reviewer
keeps true intersections (folder ``true``, or simply deletes false ones),
draws one polygon per controlled approach leg and one line per entering
direction, and the result comes back in here and goes on as JSON, read
back through ``storage.read_json``. Every KML the package writes, the
synthetic reviewed one included, goes through ``write_kml``, which renders
folders of placemarks as text. The reviewed KML is read into columns,
one per geometry (``Placemarks``), with every coordinate text read at
once, and the geometry is assembled with array passes over all placemarks
and cell-grid joins, the scalar tests running only where they decide.
The result is one columnar ``ReviewedSet``, from the import to ``traj``:
no per-intersection, per-leg or per-vertex objects are built.
``reviewed.json`` keeps it as nested intersections and legs, and its
reader rebuilds the same set, holding a hand-edited file to what the
import guarantees. The annotation side reads the demographics sidecar
with ``ingest``'s CSV parser and produces a review-template CSV plus a
JSON manifest of allowed values per custom column, standing in for a
spreadsheet with cell validation.
"""

from __future__ import annotations

import functools
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from itertools import chain, pairwise
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterable

import numpy as np

from .errors import DataError, KmlParseError
from .geo import (
    FT_PER_DEG, RING_FAULTS, CellGrid, RingTable, centroids, edge_distances_ft,
    haversine_distances_ft, joined, points_in_polygon, polyline_midpoints, ring_faults, run_blocks,
)
from .ingest import _TEXT, _parse_csv, _time_texts
from .storage import (
    WRITE_ROWS, json_integer, json_points, read_json, resolve_uri, write_csv, write_json,
)

if TYPE_CHECKING:
    from .clips import CutList
    from .discovery import Candidates
    from .trajectory import TrajectoryTable

# Spatial-join gates for assembling reviewed geometry. Approach legs sit
# within ~300 ft of their junction, so these bounds are generous.
POLYGON_MATCH_FT = 500.0
LINE_EDGE_MATCH_FT = 100.0

# Slack on the index cutoffs for both joins, far above float rounding, so
# the index never drops geometry the exact scalar test would accept.
INDEX_MARGIN_FT = 1.0

CONTROL_TYPES = ("stop", "signal")

TRUE_FOLDER = "true"
CANDIDATES_FOLDER = "candidates"


@dataclass(eq=False)
class ReviewedSet:
    """Reviewed intersections and their approach legs, as columns.

    Intersection i, ids ascending, is ``intxn_id[i]`` at (``lat[i]``,
    ``lon[i]``) under control ``control[i]``. Leg k is leg ``leg_id[k]`` of
    intersection ``owner[k]``, which ascends, so each intersection's legs
    are one run; its approach polygon is ring k of ``rings``, and its
    entering line runs through the vertices (``line_lat[v]``,
    ``line_lon[v]``) for v in ``line_first[k]:line_first[k + 1]``. Ids stay
    Python ints, so an id of any size is kept.
    """

    intxn_id: list[int]
    lat: np.ndarray
    lon: np.ndarray
    control: list[str]
    owner: np.ndarray
    leg_id: list[int]
    rings: RingTable
    line_lat: np.ndarray
    line_lon: np.ndarray
    line_first: np.ndarray

    def __len__(self) -> int:
        return len(self.intxn_id)

    def __eq__(self, other):
        if type(other) is not ReviewedSet:
            return NotImplemented
        return reviewed_to_json(self) == reviewed_to_json(other)


def export_candidates_kml(candidates: Candidates, dest: str | Path | IO) -> None:
    """Write one Placemark per candidate, in id order, into a Folder named
    ``candidates``. Placemark names are the intersection IDs; coordinates
    follow KML lon,lat,alt order.
    """
    if not candidates:
        raise ValueError("no candidates to export")
    columns = candidates.intxn_id, candidates.lat.tolist(), candidates.lon.tolist()
    marks = [(str(i), "Point", f"{lon:.10g},{lat:.10g},0", None) for i, lat, lon in zip(*columns)]
    write_kml([(CANDIDATES_FOLDER, marks)], dest)


def _escaped(text: str) -> str:
    """``text`` as ElementTree writes element text."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _nested(tags: list[str], depth: int = 4) -> str:
    """Elements ``tags``, each inside the one before, as ``ET.indent`` lays
    them out ``depth`` levels down, with a slot for the last one's text."""
    pad = "\n" + "  " * depth
    inner = _nested(tags[1:], depth + 1) + pad if tags[1:] else "{}"
    return f"{pad}<{tags[0]}>{inner}</{tags[0].split()[0]}>"


# A placemark's control and each of its geometries, as its children.
_CONTROL = _nested(["ExtendedData", 'Data name="control"', "value"])
_GEOMETRY = {
    tags[0]: _nested([*tags, "coordinates"])
    for tags in (["Point"], ["LineString"], ["Polygon", "outerBoundaryIs", "LinearRing"])
}


def write_kml(folders: Iterable[tuple[str, Iterable[tuple]]], dest: str | Path | IO) -> None:
    """Write a KML document of ``folders``, (name, placemarks) pairs, each
    placemark a (name, geometry, coordinate text, control or None) tuple:
    geometry is ``Point``, ``LineString`` or ``Polygon`` (the text its outer
    ring), and a control goes into ExtendedData. The text is what
    ``ET.indent`` and ``ET.tostring`` give for that tree, after an XML
    declaration, with ``&``, ``<`` and ``>`` escaped in every text; but an
    empty text, or a document without folders, is an open and a close tag
    where ElementTree writes an empty-element tag, which reads alike.
    """
    parts = ['<?xml version="1.0" encoding="UTF-8"?>\n'
             '<kml xmlns="http://www.opengis.net/kml/2.2">\n  <Document>']
    for folder, placemarks in folders:
        parts.append(f"\n    <Folder>\n      <name>{_escaped(folder)}</name>")
        for name, geometry, coordinates, control in placemarks:
            parts.append(f"\n      <Placemark>\n        <name>{_escaped(name)}</name>")
            if control is not None:
                parts.append(_CONTROL.format(_escaped(control)))
            parts.append(_GEOMETRY[geometry].format(_escaped(coordinates)) + "\n      </Placemark>")
        parts.append("\n    </Folder>")
    parts.append("\n  </Document>\n</kml>\n")
    with resolve_uri(dest, "w") as handle:
        handle.write("".join(parts))


@functools.lru_cache(maxsize=256)
def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _child_text(elem: ET.Element, name: str) -> str | None:
    for child in elem:
        if _local(child.tag) == name:
            return (child.text or "").strip()
    return None


@dataclass(eq=False)
class Placemarks:
    """The placemarks of one geometry, in document order, as columns:
    placemark k is named ``names[k]``, sits in the folders ``folders[k]``
    (outermost first), carries the ExtendedData ``extended[k]``, and has the
    vertices ``lat[first[k]:first[k + 1]]``, ``lon[...]`` (a polygon's ring
    open: KML closes rings explicitly, our rings are open)."""

    names: list[str]
    folders: list[tuple[str, ...]]
    extended: list[dict[str, str]]
    lat: np.ndarray
    lon: np.ndarray
    first: np.ndarray

    def __len__(self) -> int:
        return len(self.names)


_GEOMETRIES = ("Point", "LineString", "Polygon")


@dataclass(eq=False)
class KmlFeatures:
    points: Placemarks
    lines: Placemarks
    polygons: Placemarks
    folder_names: set[str] = field(default_factory=set)

    def true_points(self) -> np.ndarray:
        """Ascending indices of the points under a folder named ``true``, or
        of all points when no folder is."""
        folders = self.points.folders
        if TRUE_FOLDER in self.folder_names:
            return np.flatnonzero([TRUE_FOLDER in path for path in folders])
        return np.arange(len(folders))


def _floats(texts: list[str]) -> np.ndarray:
    """``float`` of each text, NaN where it raises."""
    try:
        return np.array(list(map(float, texts)), dtype=float)
    except ValueError:  # only a bad document gets here
        def read(text):
            try:
                return float(text)
            except ValueError:
                return math.nan

        return np.array(list(map(read, texts)), dtype=float)


def parse_kml_features(source: str | Path | IO) -> KmlFeatures:
    """Extract Point/LineString/Polygon placemarks with their folder context.

    The walk collects each placemark's coordinate text; then all the texts
    are read at once: every whitespace-separated tuple gives lon and lat,
    each as ``float`` reads it. A tuple without both, or with either out of
    range or NaN, is a KmlParseError naming the first bad placemark in
    document order, as is a Point without exactly one tuple.
    """
    with resolve_uri(source, "r") as handle:
        try:
            tree = ET.parse(handle)
        except ET.ParseError as exc:
            raise KmlParseError(f"malformed KML: {exc}") from exc

    folder_names: set[str] = set()
    marks: list[tuple] = []  # (geometry, name, folders, extended, coordinate text)

    def walk(elem: ET.Element, folders: tuple[str, ...]) -> None:
        for child in elem:
            tag = _local(child.tag)
            if tag == "Folder":
                name = _child_text(child, "name") or ""
                folder_names.add(name)
                walk(child, folders + (name,))
            elif tag in ("Document", "kml"):
                walk(child, folders)
            elif tag == "Placemark":
                read_placemark(child, folders)

    def read_placemark(elem: ET.Element, folders: tuple[str, ...]) -> None:
        name = _child_text(elem, "name") or ""
        # The placemark's descendants by local tag, in document order.
        found: dict[str, list[ET.Element]] = {}
        for e in elem.iter():
            found.setdefault(_local(e.tag), []).append(e)
        extended = {}
        for data in found.get("Data", ()):
            key = data.get("name")
            if key is not None:
                extended[key] = _child_text(data, "value") or ""
        context = f"placemark {name!r}"
        for kind, tag in enumerate(_GEOMETRIES):
            if tag in found:
                geom = found[tag][0]
                if tag == "Polygon":
                    rings = [e for e in geom.iter() if _local(e.tag) == "LinearRing"]
                    if not rings:
                        raise KmlParseError(f"{context}: Polygon without a LinearRing")
                    geom = rings[0]
                text = _child_text(geom, "coordinates")
                if text is None:
                    raise KmlParseError(f"{context}: geometry without coordinates")
                marks.append((kind, name, folders, extended, text))
                return
        # Placemarks without a recognized geometry are ignored.

    try:
        walk(tree.getroot(), ())
        halt = None
    except KmlParseError as exc:  # raised after any bad coordinates before it
        halt = exc
    kind, names, folders, extended, texts = (list(c) for c in zip(*marks)) if marks else ([],) * 5
    tuples = list(map(str.split, texts))
    counts = np.array(list(map(len, tuples)), dtype=np.int64)
    tokens = list(chain.from_iterable(tuples))
    lon = _floats([token.partition(",")[0] for token in tokens])
    lat = _floats([token.partition(",")[2].partition(",")[0] for token in tokens])
    bad = np.flatnonzero(~((-90.0 <= lat) & (lat <= 90.0) & (-180.0 <= lon) & (lon <= 180.0)))
    mark = np.repeat(np.arange(len(counts)), counts)
    kind = np.array(kind, dtype=np.int64)
    wrong = np.flatnonzero((kind == 0) & (counts != 1))
    if len(bad) and (not len(wrong) or mark[bad[0]] <= wrong[0]):
        context = f"placemark {names[mark[bad[0]]]!r}"
        raise KmlParseError(f"bad coordinate tuple {tokens[bad[0]]!r} in {context}")
    if len(wrong):
        raise KmlParseError(f"placemark {names[wrong[0]]!r}: Point must have exactly one coordinate")
    if halt is not None:
        raise halt

    # A ring that repeats its first vertex at the end drops the repeat.
    tails = np.cumsum(counts) - 1
    closed = np.flatnonzero((kind == 2) & (counts > 1))
    closed = closed[(lat[tails[closed] - counts[closed] + 1] == lat[tails[closed]]) & (
        lon[tails[closed] - counts[closed] + 1] == lon[tails[closed]])]
    keep = np.ones(len(tokens), dtype=bool)
    keep[tails[closed]] = False
    row_kind = np.repeat(kind, counts)
    counts[closed] -= 1

    def columns(k: int) -> Placemarks:
        pick = np.flatnonzero(kind == k).tolist()
        rows = keep & (row_kind == k)
        return Placemarks(
            [names[i] for i in pick], [folders[i] for i in pick], [extended[i] for i in pick],
            lat[rows], lon[rows], np.cumsum([0, *counts[pick]]),
        )

    return KmlFeatures(*map(columns, range(3)), folder_names)


def _runs(marks: Placemarks, picks: list[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The vertices of placemarks ``picks``, in that order, as lat, lon and
    the offsets of each placemark's run."""
    picks = np.asarray(picks, dtype=np.int64)
    lo, hi = marks.first[picks], marks.first[picks + 1]
    at = joined(run_blocks(lo, hi))[1]
    return marks.lat[at], marks.lon[at], np.cumsum([0, *(hi - lo)])


def import_reviewed_kml(
    source: str | Path | IO | KmlFeatures,
    polygon_match_ft: float = POLYGON_MATCH_FT,
    line_edge_match_ft: float = LINE_EDGE_MATCH_FT,
) -> tuple[ReviewedSet, list[dict[str, str]]]:
    """Assemble reviewed intersections from a human-edited KML or its ``KmlFeatures``.

    Point placemarks under a folder named ``true`` (or all point placemarks
    when no such folder exists) become true intersections. Each polygon is
    assigned to the nearest true intersection within ``polygon_match_ft``
    (by polygon centroid); each line to the polygon containing its
    midpoint, else the polygon with the nearest edge within
    ``line_edge_match_ft``. Geometry that cannot be assigned, approaches
    without a direction line, and intersections without approaches all land
    in the rejects report, as kind/name/reason rows, rather than raising.

    Centroids, midpoints, the intersections near each centroid and the
    polygons near each midpoint are array passes over all polygons and
    lines; the edge distances are taken only for a line whose midpoint lies
    in no polygon or in more than one. Each intersection's legs are
    numbered from 1 in the document order of their polygons.
    """
    feats = source if isinstance(source, KmlFeatures) else parse_kml_features(source)
    points, polygons, lines = feats.points, feats.polygons, feats.lines
    rejects: list[dict[str, str]] = []
    def reject(kind: str, name: str, reason: str) -> None:
        rejects.append({"kind": kind, "name": name, "reason": reason})
    intersections: dict[int, tuple[int, str]] = {}  # intxn_id -> (point, control)
    for k in feats.true_points().tolist():
        name = points.names[k]
        try:
            intxn_id = int(name)
        except ValueError:
            reject("intersection", name, "non_integer_name")
            continue
        if intxn_id in intersections:
            reject("intersection", name, "duplicate_id")
            continue
        control = points.extended[k].get("control", "stop")
        if control not in CONTROL_TYPES:
            reject("intersection", name, "invalid_control")
            continue
        intersections[intxn_id] = (k, control)

    # Polygon -> nearest intersection. Candidates come from the 3x3 cell
    # block around the centroid; cells a margin wider than the gate hold
    # every intersection the gate can accept, and the exact distance with
    # the (dist, id) tie-break decides among them.
    valid = ring_faults(polygons.lat, polygons.lon, polygons.first) == 0
    center_lat, center_lon = centroids(*_runs(polygons, np.flatnonzero(valid)))
    ids = sorted(intersections)
    at = np.array([intersections[i][0] for i in ids], dtype=np.int64)
    at_lat, at_lon = points.lat[at], points.lon[at]
    grid = CellGrid(at_lat, at_lon, max(polygon_match_ft, 0.0) + INDEX_MARGIN_FT, cover_lats=center_lat)
    center, near = joined(grid.block_pairs(center_lat, center_lon))  # near: index into ids
    dist = haversine_distances_ft(center_lat[center], center_lon[center], at_lat[near], at_lon[near])
    best = np.lexsort((near, dist, center))
    best = best[np.diff(center[best], prepend=-1) > 0]  # each polygon's first
    owner = np.full(len(center_lat), -1)
    owner[center[best]] = np.where(dist[best] > polygon_match_ft, -1, near[best])

    pending: list[list] = []  # [intxn_id, polygon, entering line or None]
    owners = iter(owner.tolist())
    for k, ok in enumerate(valid.tolist()):
        if not ok:
            reject("polygon", polygons.names[k], "invalid_polygon")
        elif (i := next(owners)) < 0:
            reject("polygon", polygons.names[k], "unassigned_polygon")
        else:
            pending.append([ids[i], k, None])

    # Line midpoint -> polygon. A polygon's bounding box gives a lower bound
    # on its edge distance, in the same local frame as edge_distances_ft,
    # so only polygons whose box lies within the edge gate (plus margin) can
    # contain the midpoint or be its nearest edge. A grid of the midpoints
    # pairs each polygon with the midpoints in cells that meet its box so
    # widened (a superset: any other polygon is beyond the gate), and one
    # points_in_polygon call tests every pair.
    table = RingTable(*_runs(polygons, [k for _, k, _ in pending]))
    counts = np.diff(lines.first)
    # A line whose ends coincide gives no entering bearing.
    valid = counts >= 2
    ends = lines.first[:-1][valid], lines.first[1:][valid] - 1
    valid[valid] = (lines.lat[ends[0]] != lines.lat[ends[1]]) | (lines.lon[ends[0]] != lines.lon[ends[1]])
    mid_lat, mid_lon = polyline_midpoints(*_runs(lines, np.flatnonzero(valid)))
    cut = max(line_edge_match_ft, 0.0) + INDEX_MARGIN_FT
    pad, cos_min = min(cut / FT_PER_DEG, 180.0), float(np.cos(np.radians(mid_lat)).min(initial=1.0))
    pad_lon = 360.0 if cos_min * 360.0 <= pad else pad / cos_min
    padded = table.bounds + np.array([[-pad], [-pad_lon], [pad], [pad_lon]])
    poly, line = joined(CellGrid(mid_lat, mid_lon, cut).overlap_pairs(padded))
    line, poly = np.divmod(np.sort(line * len(pending) + poly), max(len(pending), 1))
    inside = points_in_polygon(table, poly, mid_lat[line], mid_lon[line])
    # Each line's one polygon containing its midpoint; else the nearest edge
    # among the containing polygons, or among all nearby ones within the
    # gate, with the (distance, polygon) tie-break.
    edge = np.zeros(len(line))
    rows = np.flatnonzero(np.bincount(line[inside], minlength=len(mid_lat))[line] != 1)
    edge[rows] = edge_distances_ft(table, poly[rows], mid_lat[line[rows]], mid_lon[line[rows]])
    best = np.lexsort((poly, edge, ~inside, line))
    best = best[np.diff(line[best], prepend=-1) > 0]  # each line's first
    pick = np.full(len(mid_lat), -1)
    pick[line[best]] = np.where(~inside[best] & (edge[best] > line_edge_match_ft), -1, poly[best])

    picks = iter(pick.tolist())
    for k, ok in enumerate(valid.tolist()):
        if not ok:
            reject("line", lines.names[k], "invalid_line")
        elif (i := next(picks)) < 0:
            reject("line", lines.names[k], "unassigned_line")
        elif pending[i][2] is not None:
            reject("line", lines.names[k], "extra_line")
        else:
            pending[i][2] = k

    for _, k, line_k in pending:
        if line_k is None:
            reject("polygon", polygons.names[k], "no_entering_line")
    # Sorted stably, so each intersection's legs keep their document order.
    legs = sorted((leg for leg in pending if leg[2] is not None), key=lambda leg: leg[0])
    kept = sorted({intxn_id for intxn_id, _, _ in legs})
    row = {intxn_id: r for r, intxn_id in enumerate(kept)}
    for i in sorted(set(ids) - set(kept)):
        reject("intersection", str(i), "no_polygons")
    owner = np.array([row[intxn_id] for intxn_id, _, _ in legs], dtype=np.int64)
    spots = np.array([intersections[i][0] for i in kept], dtype=np.int64)
    reviewed = ReviewedSet(
        kept, points.lat[spots], points.lon[spots], [intersections[i][1] for i in kept], owner,
        (np.arange(len(owner)) - np.searchsorted(owner, owner) + 1).tolist(),
        RingTable(*_runs(polygons, [k for _, k, _ in legs])),
        *_runs(lines, [line_k for _, _, line_k in legs]),
    )
    return reviewed, rejects


# ---------------------------------------------------------------------------
# Reviewed-intersection JSON (stage interchange)

def reviewed_to_json(reviewed: ReviewedSet) -> dict:
    """The nested document of ``reviewed``: each intersection with its
    approach legs, each leg's polygon and entering line as [lat, lon] pairs."""
    rings = reviewed.rings

    def pairs(lats: np.ndarray, lons: np.ndarray, first: np.ndarray) -> list[list]:
        vertices = list(map(list, zip(lats.tolist(), lons.tolist())))
        return [vertices[a:b] for a, b in pairwise(first.tolist())]

    approaches = [
        {"leg_id": leg_id, "polygon": polygon, "entering_line": line}
        for leg_id, polygon, line in zip(
            reviewed.leg_id,
            pairs(rings.ay, rings.ax, rings.first),
            pairs(reviewed.line_lat, reviewed.line_lon, reviewed.line_first),
        )
    ]
    cuts = pairwise(np.searchsorted(reviewed.owner, np.arange(len(reviewed) + 1)).tolist())
    columns = reviewed.intxn_id, reviewed.lat.tolist(), reviewed.lon.tolist(), reviewed.control
    return {"intersections": [
        {"intxn_id": i, "lat": lat, "lon": lon, "control_type": c, "approaches": approaches[a:b]}
        for i, lat, lon, c, (a, b) in zip(*columns, cuts)
    ]}


def reviewed_from_json(doc: dict) -> ReviewedSet:
    """The ``ReviewedSet`` of a document in ``reviewed_to_json``'s layout,
    in any intersection order, keys other than its own ignored.

    Raises ValueError (or the error of a value of the wrong type or shape)
    for a document that breaks what ``import_reviewed_kml`` guarantees: an
    id that is not an integer, an intersection id given twice, a control type not in ``CONTROL_TYPES``,
    an intersection without approaches, a leg_id given twice within one
    intersection, a coordinate that is not a number or is out of range, or
    a polygon that is not a simple ring (``geo.ring_faults``).
    """
    entries = sorted(doc["intersections"], key=lambda entry: json_integer(entry["intxn_id"]))
    ids = [entry["intxn_id"] for entry in entries]
    for a, b in pairwise(ids):
        if a == b:
            raise ValueError(f"intersection {a} is given twice")
    control, owner, leg_id, spots, polygons, lines = [], [], [], [], [], []
    for row, (intxn_id, entry) in enumerate(zip(ids, entries)):
        if entry["control_type"] not in CONTROL_TYPES:
            raise ValueError(f"intersection {intxn_id}: control_type is not one of {CONTROL_TYPES}")
        control.append(entry["control_type"])
        spots.append((entry["lat"], entry["lon"]))
        numbers = [json_integer(leg["leg_id"]) for leg in entry["approaches"]]
        if not numbers:
            raise ValueError(f"intersection {intxn_id} has no approaches")
        if len(set(numbers)) < len(numbers):
            raise ValueError(f"intersection {intxn_id} gives a leg_id twice")
        owner += [row] * len(numbers)
        leg_id += numbers
        for leg in entry["approaches"]:
            polygons.append([(lat, lon) for lat, lon in leg["polygon"]])
            lines.append([(lat, lon) for lat, lon in leg["entering_line"]])

    lat, lon, _ = json_points([spots])
    rings = json_points(polygons)
    faults = ring_faults(*rings)
    if faults.any():
        raise ValueError(RING_FAULTS[faults[faults > 0][0]])
    return ReviewedSet(
        ids, lat, lon, control, np.array(owner, dtype=np.int64), leg_id, RingTable(*rings),
        *json_points(lines),
    )


def save_reviewed_json(reviewed: ReviewedSet, dest: str | Path | IO) -> None:
    write_json(reviewed_to_json(reviewed), dest)


def load_reviewed_json(source: str | Path | IO) -> ReviewedSet:
    return read_json(source, reviewed_from_json, "reviewed-intersection JSON")


# ---------------------------------------------------------------------------
# Review template

REVIEW_COLUMNS = (
    "stop_traj_id",
    "subj",
    "drive",
    "intxn_id",
    "ref_time_utc",
    "primary_sub_age",
    "primary_subj_gender",
    "jump_to_ref",
    "video_url",
)


DEMOGRAPHICS_COLUMNS = ("subj", "age", "gender")


class _Demographics:
    """The demographics CSV as ``ingest._parse_csv`` reads a raw file: three
    text columns, each stripped, and a non-empty subj."""

    RAW = DEMOGRAPHICS_COLUMNS
    OPTIONAL = ()

    @classmethod
    def kinds(cls) -> dict[str, tuple]:
        return dict.fromkeys(cls.RAW, _TEXT)


def read_demographics(source: str | Path | IO) -> dict[str, tuple[str, str]]:
    """Load the subj,age,gender table as a subj -> (age, gender) map; raises
    DataError naming the line of the first row without a subj or a column,
    or a subj given more than once."""

    def bad_row(reason, line, row):
        raise DataError(f"bad demographics row at line {line}: {row!r}")

    subj, age, gender = _parse_csv([source], _Demographics, True, bad_row).values()
    people = dict(zip(subj, zip(age, gender)))
    if len(people) < len(subj):
        names, counts = np.unique(subj, return_counts=True)
        raise DataError(f"demographics subj {names[counts > 1][0]!r} is given more than once")
    return people


def build_review_template(
    trajs: TrajectoryTable,
    clips: CutList,
    participants: dict[str, tuple[str, str]],
    custom_fields: dict[str, list[str]] | None = None,
    video_base_url: str = "",
) -> tuple[dict[str, list], dict[str, list[str]], dict[str, int]]:
    """One review row per row of the trajectory table, as columns, plus the
    data-validation manifest.

    Returns (columns, manifest, warnings). ``columns`` maps the standard
    columns, in their fixed order, then the custom columns, initially blank,
    to their values, row by row. The manifest maps each custom column to its
    allowed values so a data-entry front end can validate input. A
    trajectory without a clip is an error; a participant without
    demographics only costs a warning count.
    """
    custom_fields = custom_fields or {}
    ids = trajs.traj_ids()
    row = dict(zip(clips.traj_id, range(len(clips))))
    at = [row.get(traj_id, -1) for traj_id in ids]
    if -1 in at:
        raise DataError(f"no clip for trajectory {ids[at.index(-1)]}")
    subj, drive = trajs.key_texts()
    demographics = list(map(participants.get, subj))
    known = [demo or ("", "") for demo in demographics]
    columns = dict(zip(REVIEW_COLUMNS, (
        ids,
        subj,
        drive,
        trajs.intxn_id.tolist(),
        _time_texts(trajs.ref_us),
        [age for age, _ in known],
        [gender for _, gender in known],
        clips.overlay_on_s[at].tolist(),
        [video_base_url + clips.output_name[k] for k in at],
    )))
    columns.update((name, [""] * len(ids)) for name in custom_fields)
    manifest = {name: list(values) for name, values in custom_fields.items()}
    return columns, manifest, {"missing_demographics": demographics.count(None)}


def write_review_csv(
    columns: dict[str, list], custom_names: list[str], dest: str | Path | IO
) -> None:
    """Write the review columns in the fixed order, then the custom columns;
    a column missing from ``columns`` is blank."""
    header = list(REVIEW_COLUMNS) + list(custom_names)
    blank = [""] * len(next(iter(columns.values()), ()))
    cells = [columns.get(col, blank) for col in header]

    def render(start: int) -> list:
        rows = slice(start, start + WRITE_ROWS)
        return [
            [f"{float(v):.3f}" for v in c[rows]] if col == "jump_to_ref" else [*map(str, c[rows])]
            for col, c in zip(header, cells)
        ]

    write_csv(dest, header, map(render, range(0, len(blank), WRITE_ROWS)))
