"""Row-at-a-time helpers that tests compare the column-wise code with.

``row_tuples`` and ``table_of`` turn a table into row tuples and back, for
oracles that work a row at a time. ``csv_writer`` is the csv.writer that
the CSV files went through before ``storage.write_csv``;
``old_emit_cutlist`` writes the cut-list and its script one f-string per
clip, as ``clips.emit_cutlist`` did before it rendered them a field at a
time. Tests compare the new writers' bytes with these.

``old_parse_kml_features`` reads a KML one placemark and one coordinate
tuple at a time, as ``review.parse_kml_features`` did before it read all
coordinate texts at once; ``placemark_rows`` turns the new reader's
columns into the rows it gives. ``polyline_midpoint`` is the scalar walk
that ``geo.polyline_midpoints`` does for all lines at once.
"""

import csv
import shlex
import types
import xml.etree.ElementTree as ET
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii

import numpy as np

from intxn_pipeline.clips import OVERLAY_BOX_EXPR
from intxn_pipeline.errors import KmlParseError
from intxn_pipeline.geo import GeoPoint, haversine_distance_ft
from intxn_pipeline.storage import resolve_uri


def row_tuples(table) -> list[tuple]:
    """Each row of a table as a tuple: its subj, its drive, then its value
    in each of ``table.COLUMNS``, in that order."""
    keys = chain.from_iterable(map(repeat, table.keys, np.diff(table.offsets).tolist()))
    values = zip(*(c.tolist() for c in table.columns()))
    return [(*key, *row) for key, row in zip(keys, values)]


def table_of(cls, rows, **extra):
    """The table of ``cls`` holding ``rows``, tuples as ``row_tuples`` gives them."""
    return cls.from_columns(*(list(zip(*rows)) or [()] * (2 + len(cls.COLUMNS))), **extra)


def csv_writer(handle):
    """A csv.writer to ``handle`` whose rows end in "\\n".

    csv quotes a field holding a character of the line terminator, so the
    writer ends rows in "\\r\\n", which quotes a field holding a lone
    "\\r" as well as one holding a line break, and each row is written with
    "\\n" in place of its "\\r\\n".
    """
    lines = types.SimpleNamespace(write=lambda line: handle.write(line[:-2] + "\n"))
    return csv.writer(lines, lineterminator="\r\n")


def clip_json_line(spec) -> str:
    # What json.dumps gives for a str with its default arguments, sans set-up.
    return (
        "  {"
        f'"traj_id": {encode_basestring_ascii(spec.traj_id)}, '
        f'"source_uri": {encode_basestring_ascii(spec.source_uri)}, '
        f'"in_offset_s": {spec.in_offset_s:.3f}, '
        f'"duration_s": {spec.duration_s:.3f}, '
        f'"overlay_on_s": {spec.overlay_on_s:.3f}, '
        f'"overlay_off_s": {spec.overlay_off_s:.3f}, '
        f'"output_name": {encode_basestring_ascii(spec.output_name)}'
        "}"
    )


def clip_command(spec, processor: str = "ffmpeg") -> str:
    """One external-processor invocation cutting and overlaying one clip."""
    on_off = f"{spec.overlay_on_s:.3f},{spec.overlay_off_s:.3f}"
    drawbox = f"drawbox={OVERLAY_BOX_EXPR}:enable='between(t,{on_off})'"
    return (
        f"{processor} -y -ss {spec.in_offset_s:.3f} -t {spec.duration_s:.3f} "
        f"-i {shlex.quote(spec.source_uri)} -vf {shlex.quote(drawbox)} "
        f"{shlex.quote(spec.output_name)}"
    )


def old_emit_cutlist(specs, processor: str = "ffmpeg") -> tuple[str, str]:
    """The cut-list's and the script's texts, one clip at a time."""
    ordered = sorted(specs, key=lambda s: s.traj_id)
    if ordered:
        body = "[\n" + ",\n".join(clip_json_line(s) for s in ordered) + "\n]\n"
    else:
        body = "[]\n"
    return body, "".join(clip_command(s, processor) + "\n" for s in ordered)


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


def placemark_rows(placemarks) -> list[tuple]:
    """Each placemark of a ``review.Placemarks`` as (name, folders,
    coordinates as GeoPoints, extended data)."""
    return [
        (name, folders, placemarks.coordinates(k), extended)
        for k, (name, folders, extended) in enumerate(
            zip(placemarks.names, placemarks.folders, placemarks.extended)
        )
    ]


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _child_text(elem, name: str):
    for child in elem:
        if _local(child.tag) == name:
            return (child.text or "").strip()
    return None


def _parse_coordinates(text: str, context: str) -> list[GeoPoint]:
    points = []
    for token in text.split():
        parts = token.split(",")
        if len(parts) < 2:
            raise KmlParseError(f"bad coordinate tuple {token!r} in {context}")
        try:  # GeoPoint rejects a latitude or longitude out of range, or NaN
            points.append(GeoPoint(float(parts[1]), float(parts[0])))
        except ValueError as exc:
            raise KmlParseError(f"bad coordinate tuple {token!r} in {context}") from exc
    return points


def old_parse_kml_features(source) -> tuple[dict[str, list[tuple]], set[str]]:
    """The point, line and polygon placemarks, as ``placemark_rows`` gives
    them, by geometry, and the folder names."""
    with resolve_uri(source, "r") as handle:
        try:
            tree = ET.parse(handle)
        except ET.ParseError as exc:
            raise KmlParseError(f"malformed KML: {exc}") from exc

    feats = {"point": [], "line": [], "polygon": []}
    folder_names = set()

    def walk(elem, folders):
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

    def read_placemark(elem, folders):
        name = _child_text(elem, "name") or ""
        found = {}
        for e in elem.iter():
            found.setdefault(_local(e.tag), []).append(e)
        extended = {}
        for data in found.get("Data", ()):
            key = data.get("name")
            if key is not None:
                extended[key] = _child_text(data, "value") or ""
        context = f"placemark {name!r}"
        points, lines, polygons = (found.get(tag) for tag in ("Point", "LineString", "Polygon"))
        if points:
            coords = _parse_coordinates(coords_text(points[0], context), context)
            if len(coords) != 1:
                raise KmlParseError(f"{context}: Point must have exactly one coordinate")
            feats["point"].append((name, folders, coords, extended))
        elif lines:
            coords = _parse_coordinates(coords_text(lines[0], context), context)
            feats["line"].append((name, folders, coords, extended))
        elif polygons:
            rings = [e for e in polygons[0].iter() if _local(e.tag) == "LinearRing"]
            if not rings:
                raise KmlParseError(f"{context}: Polygon without a LinearRing")
            coords = _parse_coordinates(coords_text(rings[0], context), context)
            # KML closes rings explicitly; our rings are open.
            if len(coords) > 1 and coords[0] == coords[-1]:
                coords = coords[:-1]
            feats["polygon"].append((name, folders, coords, extended))

    def coords_text(geom, context):
        text = _child_text(geom, "coordinates")
        if text is None:
            raise KmlParseError(f"{context}: geometry without coordinates")
        return text

    walk(tree.getroot(), ())
    return feats, folder_names
