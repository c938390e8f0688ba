"""File interchange with the human review loop.

Candidates go out as KML for inspection in an earth viewer; the reviewer
keeps true intersections (folder ``true``, or simply deletes false ones),
draws one polygon per controlled approach leg and one line per entering
direction, and the result comes back in here. The annotation side produces
a review-template CSV plus a JSON manifest of allowed values per custom
column, standing in for a spreadsheet with cell validation.
"""

from __future__ import annotations

import csv
import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, TYPE_CHECKING

import numpy as np

from .errors import DataError, KmlParseError
from .geo import (
    FT_PER_DEG,
    CellGrid,
    GeoPoint,
    PolygonRing,
    centroid,
    haversine_distance_ft,
    point_in_polygon,
    point_to_segment_ft,
    polyline_midpoint,
)
from .ingest import _time_texts
from .storage import csv_writer, resolve_uri, write_json

if TYPE_CHECKING:
    from .trajectory import TrajectoryTable

KML_NS = "http://www.opengis.net/kml/2.2"

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


@dataclass
class ApproachLeg:
    leg_id: int
    polygon: PolygonRing
    entering_line: list[GeoPoint]
    entering_bearing: float | None = None


@dataclass
class ReviewedIntersection:
    intxn_id: int
    pos: GeoPoint
    control_type: str = "stop"
    approaches: list[ApproachLeg] = field(default_factory=list)


@dataclass
class RejectEntry:
    kind: str  # intersection | polygon | line
    name: str
    reason: str


def _fmt_coord(value: float) -> str:
    return f"{value:.10g}"


def export_candidates_kml(candidates: list, dest: str | Path | IO) -> None:
    """Write one Placemark per candidate into a Folder named ``candidates``.

    Accepts any objects carrying ``intxn_id`` and ``pos``. Placemark names
    are the intersection IDs; coordinates follow KML lon,lat,alt order.
    """
    if not candidates:
        raise ValueError("no candidates to export")
    kml = ET.Element("kml", xmlns=KML_NS)
    doc = ET.SubElement(kml, "Document")
    folder = ET.SubElement(doc, "Folder")
    ET.SubElement(folder, "name").text = CANDIDATES_FOLDER
    for cand in sorted(candidates, key=lambda c: c.intxn_id):
        mark = ET.SubElement(folder, "Placemark")
        ET.SubElement(mark, "name").text = str(cand.intxn_id)
        point = ET.SubElement(mark, "Point")
        ET.SubElement(point, "coordinates").text = (
            f"{_fmt_coord(cand.pos.lon_deg)},{_fmt_coord(cand.pos.lat_deg)},0"
        )
    write_kml(kml, dest)


def write_kml(kml: ET.Element, dest: str | Path | IO) -> None:
    """Write the document rooted at ``kml`` indented, after an XML declaration."""
    ET.indent(kml)
    payload = ET.tostring(kml, encoding="unicode")
    with resolve_uri(dest, "w") as handle:
        handle.write('<?xml version="1.0" encoding="UTF-8"?>\n')
        handle.write(payload)
        handle.write("\n")


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _child_text(elem: ET.Element, name: str) -> str | None:
    for child in elem:
        if _local(child.tag) == name:
            return (child.text or "").strip()
    return None


def _find_descendants(elem: ET.Element, name: str) -> list[ET.Element]:
    return [e for e in elem.iter() if _local(e.tag) == name]


def _parse_coordinates(text: str, context: str) -> list[GeoPoint]:
    points = []
    for token in text.split():
        parts = token.split(",")
        if len(parts) < 2:
            raise KmlParseError(f"bad coordinate tuple {token!r} in {context}")
        try:
            lon, lat = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise KmlParseError(f"bad coordinate tuple {token!r} in {context}") from exc
        points.append(GeoPoint(lat, lon))
    return points


@dataclass
class KmlPlacemark:
    name: str
    folders: tuple[str, ...]
    geometry: str  # point | line | polygon
    coordinates: list[GeoPoint]
    extended: dict[str, str]


@dataclass
class KmlFeatures:
    points: list[KmlPlacemark] = field(default_factory=list)
    lines: list[KmlPlacemark] = field(default_factory=list)
    polygons: list[KmlPlacemark] = field(default_factory=list)
    folder_names: set[str] = field(default_factory=set)


def parse_kml_features(source: str | Path | IO) -> KmlFeatures:
    """Extract Point/LineString/Polygon placemarks with their folder context."""
    with resolve_uri(source, "r") as handle:
        try:
            tree = ET.parse(handle)
        except ET.ParseError as exc:
            raise KmlParseError(f"malformed KML: {exc}") from exc

    feats = KmlFeatures()

    def walk(elem: ET.Element, folders: tuple[str, ...]) -> None:
        for child in elem:
            tag = _local(child.tag)
            if tag == "Folder":
                name = _child_text(child, "name") or ""
                feats.folder_names.add(name)
                walk(child, folders + (name,))
            elif tag in ("Document", "kml"):
                walk(child, folders)
            elif tag == "Placemark":
                _read_placemark(child, folders)

    def _read_placemark(elem: ET.Element, folders: tuple[str, ...]) -> None:
        name = _child_text(elem, "name") or ""
        extended = {}
        for data in _find_descendants(elem, "Data"):
            key = data.get("name")
            if key is not None:
                extended[key] = _child_text(data, "value") or ""
        context = f"placemark {name!r}"
        points = _find_descendants(elem, "Point")
        lines = _find_descendants(elem, "LineString")
        polygons = _find_descendants(elem, "Polygon")
        if points:
            coords = _parse_coordinates(_coords_text(points[0], context), context)
            if len(coords) != 1:
                raise KmlParseError(f"{context}: Point must have exactly one coordinate")
            feats.points.append(KmlPlacemark(name, folders, "point", coords, extended))
        elif lines:
            coords = _parse_coordinates(_coords_text(lines[0], context), context)
            feats.lines.append(KmlPlacemark(name, folders, "line", coords, extended))
        elif polygons:
            rings = _find_descendants(polygons[0], "LinearRing")
            if not rings:
                raise KmlParseError(f"{context}: Polygon without a LinearRing")
            coords = _parse_coordinates(_coords_text(rings[0], context), context)
            # KML closes rings explicitly; our rings are open.
            if len(coords) > 1 and coords[0] == coords[-1]:
                coords = coords[:-1]
            feats.polygons.append(KmlPlacemark(name, folders, "polygon", coords, extended))
        # Placemarks without a recognized geometry are ignored.

    def _coords_text(geom: ET.Element, context: str) -> str:
        text = _child_text(geom, "coordinates")
        if text is None:
            raise KmlParseError(f"{context}: geometry without coordinates")
        return text

    walk(tree.getroot(), ())
    return feats


def _ring_edge_distance_ft(pt: GeoPoint, ring: PolygonRing) -> float:
    verts = ring.vertices
    return min(
        point_to_segment_ft(pt, verts[i], verts[(i + 1) % len(verts)])
        for i in range(len(verts))
    )


def import_reviewed_kml(
    source: str | Path | IO,
    polygon_match_ft: float = POLYGON_MATCH_FT,
    line_edge_match_ft: float = LINE_EDGE_MATCH_FT,
) -> tuple[list[ReviewedIntersection], list[RejectEntry]]:
    """Assemble reviewed intersections from a human-edited KML.

    Point placemarks under a folder named ``true`` (or all point placemarks
    when no such folder exists) become true intersections. Each polygon is
    assigned to the nearest true intersection within ``polygon_match_ft``
    (by polygon centroid); each line to the polygon containing its
    midpoint, else the polygon with the nearest edge within
    ``line_edge_match_ft``. Geometry that cannot be assigned, approaches
    without a direction line, and intersections without approaches all land
    in the rejects report rather than raising.
    """
    feats = parse_kml_features(source)
    rejects: list[RejectEntry] = []

    if TRUE_FOLDER in feats.folder_names:
        true_points = [p for p in feats.points if TRUE_FOLDER in p.folders]
    else:
        true_points = list(feats.points)

    intersections: dict[int, ReviewedIntersection] = {}
    for p in true_points:
        try:
            intxn_id = int(p.name)
        except ValueError:
            rejects.append(RejectEntry("intersection", p.name, "non_integer_name"))
            continue
        if intxn_id in intersections:
            rejects.append(RejectEntry("intersection", p.name, "duplicate_id"))
            continue
        control = p.extended.get("control", "stop")
        if control not in CONTROL_TYPES:
            rejects.append(RejectEntry("intersection", p.name, "invalid_control"))
            continue
        intersections[intxn_id] = ReviewedIntersection(intxn_id, p.coordinates[0], control)

    # Polygon -> nearest intersection. Candidates come from the 3x3 cell
    # block around the centroid; cells a margin wider than the gate hold
    # every intersection the gate can accept, and the scalar distance with
    # the (dist, id) tie-break decides among them.
    rings: list[PolygonRing | None] = []
    for poly in feats.polygons:
        try:
            rings.append(PolygonRing(tuple(poly.coordinates)))
        except ValueError:
            rings.append(None)
    centers = [None if ring is None else centroid(list(ring.vertices)) for ring in rings]
    ids = sorted(intersections)
    grid = CellGrid(
        [intersections[i].pos.lat_deg for i in ids],
        [intersections[i].pos.lon_deg for i in ids],
        max(polygon_match_ft, 0.0) + INDEX_MARGIN_FT,
        cover_lats=[c.lat_deg for c in centers if c is not None],
    )

    # (intxn_id, ring, polygon name, entering line or None)
    pending: list[dict] = []
    for poly, ring, center in zip(feats.polygons, rings, centers):
        if ring is None:
            rejects.append(RejectEntry("polygon", poly.name, "invalid_polygon"))
            continue
        best = min(
            (
                (haversine_distance_ft(center, intersections[ids[k]].pos), ids[k])
                for k in grid.block(center.lat_deg, center.lon_deg).tolist()
            ),
            default=None,
        )
        if best is None or best[0] > polygon_match_ft:
            rejects.append(RejectEntry("polygon", poly.name, "unassigned_polygon"))
            continue
        pending.append({"intxn_id": best[1], "ring": ring, "name": poly.name, "line": None})

    # Line midpoint -> polygon. A polygon's bounding box gives a lower bound
    # on its edge distance, in the same local frame as point_to_segment_ft,
    # so only polygons whose box lies within the edge gate (plus margin) can
    # contain the midpoint or be its nearest edge.
    boxes = np.array([leg["ring"].bounds() for leg in pending], dtype=float).reshape(-1, 4).T
    for line in feats.lines:
        if len(line.coordinates) < 2:
            rejects.append(RejectEntry("line", line.name, "invalid_line"))
            continue
        mid = polyline_midpoint(line.coordinates)
        lat_gap = np.maximum(np.maximum(boxes[0] - mid.lat_deg, mid.lat_deg - boxes[2]), 0.0)
        lon_gap = np.maximum(np.maximum(boxes[1] - mid.lon_deg, mid.lon_deg - boxes[3]), 0.0)
        lon_ft_per_deg = FT_PER_DEG * math.cos(math.radians(mid.lat_deg))
        gap_ft = np.maximum(lat_gap * FT_PER_DEG, lon_gap * lon_ft_per_deg)
        near = np.flatnonzero(gap_ft <= max(line_edge_match_ft, 0.0) + INDEX_MARGIN_FT).tolist()
        edge_ft = {i: _ring_edge_distance_ft(mid, pending[i]["ring"]) for i in near}
        containing = [i for i in near if point_in_polygon(mid, pending[i]["ring"])]
        if containing:
            idx = min(containing, key=lambda i: (edge_ft[i], i))
        else:
            nearest = min(((d, i) for i, d in edge_ft.items()), default=None)
            if nearest is None or nearest[0] > line_edge_match_ft:
                rejects.append(RejectEntry("line", line.name, "unassigned_line"))
                continue
            idx = nearest[1]
        if pending[idx]["line"] is not None:
            rejects.append(RejectEntry("line", line.name, "extra_line"))
            continue
        pending[idx]["line"] = line.coordinates

    for leg in pending:
        if leg["line"] is None:
            rejects.append(RejectEntry("polygon", leg["name"], "no_entering_line"))
            continue
        intxn = intersections[leg["intxn_id"]]
        intxn.approaches.append(
            ApproachLeg(len(intxn.approaches) + 1, leg["ring"], leg["line"])
        )

    reviewed = []
    for intxn_id in sorted(intersections):
        intxn = intersections[intxn_id]
        if not intxn.approaches:
            rejects.append(RejectEntry("intersection", str(intxn_id), "no_polygons"))
            continue
        reviewed.append(intxn)
    return reviewed, rejects


# ---------------------------------------------------------------------------
# Reviewed-intersection JSON (stage interchange)

def reviewed_to_json(reviewed: list[ReviewedIntersection]) -> dict:
    return {
        "intersections": [
            {
                "intxn_id": r.intxn_id,
                "lat": r.pos.lat_deg,
                "lon": r.pos.lon_deg,
                "control_type": r.control_type,
                "approaches": [
                    {
                        "leg_id": leg.leg_id,
                        "polygon": [[v.lat_deg, v.lon_deg] for v in leg.polygon.vertices],
                        "entering_line": [[v.lat_deg, v.lon_deg] for v in leg.entering_line],
                        "entering_bearing": leg.entering_bearing,
                    }
                    for leg in r.approaches
                ],
            }
            for r in sorted(reviewed, key=lambda r: r.intxn_id)
        ]
    }


def reviewed_from_json(doc: dict) -> list[ReviewedIntersection]:
    out = []
    for entry in doc["intersections"]:
        approaches = [
            ApproachLeg(
                int(leg["leg_id"]),
                PolygonRing(tuple(GeoPoint(lat, lon) for lat, lon in leg["polygon"])),
                [GeoPoint(lat, lon) for lat, lon in leg["entering_line"]],
                leg.get("entering_bearing"),
            )
            for leg in entry["approaches"]
        ]
        out.append(
            ReviewedIntersection(
                int(entry["intxn_id"]),
                GeoPoint(entry["lat"], entry["lon"]),
                entry["control_type"],
                approaches,
            )
        )
    return sorted(out, key=lambda r: r.intxn_id)


def save_reviewed_json(reviewed: list[ReviewedIntersection], dest: str | Path | IO) -> None:
    write_json(reviewed_to_json(reviewed), dest)


def load_reviewed_json(source: str | Path | IO) -> list[ReviewedIntersection]:
    with resolve_uri(source, "r") as handle:
        try:
            return reviewed_from_json(json.load(handle))
        except (json.JSONDecodeError, KeyError) as exc:
            raise DataError(f"invalid reviewed-intersection JSON: {exc}") from exc


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


def read_demographics(source: str | Path | IO) -> dict[str, tuple[str, str]]:
    """Load the subj,age,gender table as a subj -> (age, gender) map."""
    with resolve_uri(source, "r") as handle:
        reader = csv.DictReader(handle)
        have = set(reader.fieldnames or ())
        missing = [c for c in ("subj", "age", "gender") if c not in have]
        if missing:
            raise DataError(f"demographics table missing columns: {', '.join(missing)}")
        out = {}
        for row in reader:
            subj, age, gender = row["subj"], row["age"], row["gender"]
            if None in (subj, age, gender):  # DictReader's value for a field a row lacks
                raise DataError(f"short demographics row at line {reader.line_num}: {row!r}")
            out[subj.strip()] = (age.strip(), gender.strip())
        return out


def build_review_template(
    trajs: TrajectoryTable,
    clips: list,
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
    by_traj = {c.traj_id: c for c in clips}
    ids = trajs.traj_ids()
    matched = list(map(by_traj.get, ids))
    for traj_id, clip in zip(ids, matched):
        if clip is None:
            raise DataError(f"no clip for trajectory {traj_id}")
    keys = trajs.row_keys()
    demographics = [participants.get(subj) for subj, _ in keys]
    known = [demo or ("", "") for demo in demographics]
    columns = dict(zip(REVIEW_COLUMNS, (
        ids,
        [subj for subj, _ in keys],
        [drive for _, drive in keys],
        trajs.intxn_id.tolist(),
        _time_texts(trajs.sensor.t_us[trajs.ref]),
        [age for age, _ in known],
        [gender for _, gender in known],
        [clip.overlay_on_s for clip in matched],
        [video_base_url + clip.output_name for clip in matched],
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
    cells = [
        [f"{float(v):.3f}" for v in cell] if col == "jump_to_ref" else cell
        for col, cell in zip(header, cells)
    ]
    with resolve_uri(dest, "w") as handle:
        w = csv_writer(handle)
        w.writerow(header)
        w.writerows(zip(*cells))
