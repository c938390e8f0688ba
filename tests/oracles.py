"""Row-at-a-time helpers that tests compare the column-wise code with.

``row_tuples`` and ``table_of`` turn a table into row tuples and back, for
oracles that work a row at a time. ``csv_writer`` is the csv.writer that
the CSV files went through before ``storage.write_csv``;
``old_emit_cutlist`` writes the cut-list and its script one f-string per
clip, as ``clips.emit_cutlist`` did before it rendered them a field at a
time. Tests compare the new writers' bytes with these.

``ClipSpec`` is one clip as an immutable tuple that checks its times, as
``clips`` held each clip before the columnar ``clips.CutList``;
``clip_specs`` and ``cutlist_of`` turn a cut-list into such tuples and
back. ``old_build_clip_specs`` matches videos and interpolates overlay
times one trajectory at a time with ``datetime`` arithmetic, from the
trajectories as ``trajectory_rows`` gives them and the videos as
``video_rows`` gives them, as ``clips.build_clip_specs`` did before it
worked on columns. ``trajectories_of`` builds a trajectory table from
windows given as sensor rows.

``old_parse_kml_features`` reads a KML one placemark and one coordinate
tuple at a time, as ``review.parse_kml_features`` did before it read all
coordinate texts at once; ``placemark_rows`` turns the new reader's
columns into the rows it gives. ``polyline_midpoint`` is the scalar walk
that ``geo.polyline_midpoints`` does for all lines at once.

``et_write_kml`` writes an ElementTree document indented by ``ET.indent``,
as the KML writers did before ``review.write_kml`` rendered text;
``et_kml`` builds the tree of ``review.write_kml``'s folders, and
``et_export_candidates_kml`` and ``et_write_reviewed_kml`` are the
candidates export and synth's reviewed KML as those ElementTree builds.

``scalar_import_reviewed_kml`` assembles reviewed geometry one object at a
time: every polygon against every intersection, every line against every
polygon, with ``PolygonRing``, ``ApproachLeg`` and ``ReviewedIntersection``
objects and the scalar ``point_in_polygon``, ``check_ring`` and
``point_to_segment_ft``, as the import did before it gave one columnar
``review.ReviewedSet`` and checked rings and took edge distances with
``geo.ring_faults`` and ``geo.edge_distances_ft``. ``reviewed_set`` turns such
objects into that set. ``haversine_distance_ft``, ``format_time_utc``,
``cell_block`` and ``cells_overlapping`` are the scalar forms of the distance, the
time text and the ``CellGrid`` lookups that the pipeline does in batches,
and ``centroid`` the per-point mean that ``geo.centroids`` takes of runs.

``object_extract_lrs_candidates``, ``object_cluster_centers`` and
``object_match_clusters`` find the network's candidates, the cluster
centers and the visited candidates with ``GeoPoint`` lists and one
``IntersectionCandidate``, ``VisitedCandidate`` or ``UnmatchedCluster``
per row, as ``discovery`` did before it worked on columns;
``candidates_of`` and ``network_of`` turn such rows into its columns.
``cell_loop_dbscan_labels`` is the grid DBSCAN with Python loops over
its cells, as ``discovery.dbscan_labels`` ran before it tested pairs in
blocks and joined the cells by pointer jumping; ``counting`` wraps a
function such as the distance estimate to count the pairs it is given.

``boundary_texts`` renders raw CSV files whose ends vary as they meet in
``ingest._parse_csv``'s chunker; ``parsed`` is that parser's result over
a list of files, and ``parsed_alone`` the same of each file by itself,
joined, to compare with one run over all of them.
"""

import csv
import functools
import io
import math
import operator
import shlex
import types
import xml.etree.ElementTree as ET
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

import numpy as np
from hypothesis import strategies as st

from intxn_pipeline.clips import OVERLAY_BOX_EXPR, CutList, _written
from intxn_pipeline.errors import KmlParseError
from intxn_pipeline.discovery import Candidates, RoadNetwork, dbscan_labels
from intxn_pipeline.geo import (
    EARTH_RADIUS_FT,
    FT_PER_DEG,
    ON_EDGE_TOL_DEG,
    CellGrid,
    GeoPoint,
    RingTable,
    haversine_estimates_ft,
    joined,
)
from intxn_pipeline.ingest import EPOCH
from intxn_pipeline.review import CONTROL_TYPES, TRUE_FOLDER, reviewed_from_json
from intxn_pipeline.storage import resolve_uri
from intxn_pipeline.trajectory import TrajectoryTable


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


class _ClipFields(NamedTuple):
    traj_id: str
    source_uri: str
    in_offset_s: float
    duration_s: float
    overlay_on_s: float
    overlay_off_s: float
    output_name: str


class ClipSpec(_ClipFields):
    """One clip to cut: an immutable tuple of its fields."""

    __slots__ = ()

    def __new__(
        cls, traj_id, source_uri, in_offset_s, duration_s, overlay_on_s, overlay_off_s, output_name
    ):
        if in_offset_s < 0 or duration_s <= 0:
            raise ValueError(f"clip {traj_id}: bad offset/duration")
        if not 0 <= overlay_on_s <= overlay_off_s <= duration_s + 1e-9:
            raise ValueError(f"clip {traj_id}: overlay interval outside clip")
        fields = traj_id, source_uri, in_offset_s, duration_s, overlay_on_s, overlay_off_s
        return tuple.__new__(cls, fields + (output_name,))


def clip_specs(cut: CutList) -> list[ClipSpec]:
    """Each row of a ``clips.CutList``, in its order, as a ``ClipSpec``."""
    columns = [getattr(cut, key) for key in ClipSpec._fields]
    return [ClipSpec(*row) for row in zip(*(getattr(c, "tolist", lambda: c)() for c in columns))]


def cutlist_of(specs: list[ClipSpec]) -> CutList:
    """The ``clips.CutList`` of ``specs``, in any order."""
    columns = [list(column) for column in zip(*specs)] or [[] for _ in ClipSpec._fields]
    return CutList(*columns)


def from_us(us) -> datetime:
    return EPOCH + timedelta(microseconds=int(us))


@dataclass
class OldVideo:
    """A row of the video table, as the original reader gave it."""

    uri: str
    subj: str
    drive: int
    start_time_utc: datetime
    end_time_utc: datetime
    fps: float


def video_rows(videos) -> list[OldVideo]:
    """Each row of a ``clips.VideoTable`` as an ``OldVideo``."""
    return [
        OldVideo(uri, subj, drive, from_us(start), from_us(end), fps)
        for subj, drive, start, end, fps, uri in row_tuples(videos)
    ]


def trajectories_of(sensor, rows):
    """The ``trajectory.TrajectoryTable`` of passes given as (subj, drive,
    intxn_id, leg_id, ref, start, stop), with rows of ``sensor``: each
    holds the times of its reference and of its window's first and last row."""
    t_us = sensor.t_us.tolist()
    times = [(*row[:4], t_us[row[4]], t_us[row[5]], t_us[row[6] - 1]) for row in rows]
    return table_of(TrajectoryTable, times)


def trajectory_rows(trajs, sensor) -> list[types.SimpleNamespace]:
    """Each row of a ``trajectory.TrajectoryTable`` with the fields the
    per-trajectory code read: its window ``points``, the slice of
    ``sensor`` from its start time to its end time, each bisected in its
    drive's times, the reference's index in it and the window's times."""
    found = []
    for (subj, drive, intxn_id, _, ref_us, start_us, end_us), traj_id in zip(
        row_tuples(trajs), trajs.traj_ids()
    ):
        d = sensor.keys.index((subj, drive))
        first = sensor.offsets[d]
        t_us = sensor.t_us[first : sensor.offsets[d + 1]].tolist()
        points = sensor[first + bisect_left(t_us, start_us) : first + bisect_right(t_us, end_us)]
        ref = points.t_us.tolist().index(ref_us)
        found.append(types.SimpleNamespace(
            traj_id=traj_id, subj=subj, drive=drive, intxn_id=intxn_id,
            points=points, ref_index=ref, ref_cum_dist_ft=float(points.cum[ref]),
            ref_time_utc=from_us(ref_us), start_time_utc=from_us(points.t_us[0]),
            end_time_utc=from_us(points.t_us[-1]),
        ))
    return found


def old_distance_crossing_time(points, target):
    cums = points.cum.tolist()
    i = bisect_left(cums, target)
    if cums[i] == target:
        return from_us(points.t_us[i])
    c0, c1 = cums[i - 1], cums[i]
    t0 = int(points.t_us[i - 1]) / 1_000_000
    t1 = int(points.t_us[i]) / 1_000_000
    frac = (target - c0) / (c1 - c0)
    return datetime.fromtimestamp(t0 + frac * (t1 - t0), tz=timezone.utc)


def old_overlay_time(traj, target, clip_start, clip_end):
    cums = traj.points.cum
    if target < cums[0]:
        return clip_start
    if target > cums[-1]:
        return clip_end
    return old_distance_crossing_time(traj.points, target)


class OldNoCoveringVideo(Exception):
    pass


def old_match_video(traj, videos):
    containing = [
        v for v in videos
        if v.start_time_utc <= traj.start_time_utc and traj.end_time_utc <= v.end_time_utc
    ]
    if containing:
        return min(containing, key=lambda v: (v.start_time_utc, v.uri)), None
    at_ref = [v for v in videos if v.start_time_utc <= traj.ref_time_utc <= v.end_time_utc]
    if at_ref:
        return min(at_ref, key=lambda v: (v.start_time_utc, v.uri)), "spans_files"
    raise OldNoCoveringVideo(f"no video covers trajectory {traj.traj_id}")


def old_build_clip_specs(trajs, videos, overlay):
    """The ``ClipSpec`` of each clippable trajectory, in (subj, drive,
    intxn_id) order, and the problem report, one trajectory at a time."""
    by_drive = {}
    for v in videos:
        by_drive.setdefault((v.subj, v.drive), []).append(v)
    specs, report = [], {"unclippable": [], "warnings": []}
    for traj in sorted(trajs, key=lambda t: (t.subj, t.drive, t.intxn_id)):
        try:
            video, warning = old_match_video(traj, by_drive.get((traj.subj, traj.drive), []))
        except OldNoCoveringVideo:
            report["unclippable"].append({"traj_id": traj.traj_id, "reason": "no_covering_video"})
            continue
        if warning:
            report["warnings"].append({"traj_id": traj.traj_id, "warning": warning})
        clip_start = max(traj.start_time_utc, video.start_time_utc)
        clip_end = min(traj.end_time_utc, video.end_time_utc)
        duration = (clip_end - clip_start).total_seconds()
        if _written(duration) <= 0:
            report["unclippable"].append({"traj_id": traj.traj_id, "reason": "empty_overlap"})
            continue
        ref_cum = traj.ref_cum_dist_ft
        t_on = old_overlay_time(traj, ref_cum - overlay.on_upstream_ft, clip_start, clip_end)
        t_off = old_overlay_time(traj, ref_cum + overlay.off_downstream_ft, clip_start, clip_end)
        on_s = min(max((t_on - clip_start).total_seconds(), 0.0), duration)
        off_s = min(max((t_off - clip_start).total_seconds(), on_s), duration)
        specs.append(
            ClipSpec(
                traj.traj_id, video.uri,
                _written((clip_start - video.start_time_utc).total_seconds()),
                _written(duration), _written(on_s), _written(off_s), f"{traj.traj_id}.mp4",
            )
        )
    return specs, report


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


def coordinates(placemarks, k: int) -> list[GeoPoint]:
    """The vertices of placemark ``k`` of a ``review.Placemarks``."""
    a, b = placemarks.first[k : k + 2].tolist()
    return list(map(GeoPoint, placemarks.lat[a:b].tolist(), placemarks.lon[a:b].tolist()))


def placemark_rows(placemarks) -> list[tuple]:
    """Each placemark of a ``review.Placemarks`` as (name, folders,
    coordinates as GeoPoints, extended data)."""
    return [
        (name, folders, coordinates(placemarks, k), extended)
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


def et_write_kml(kml, dest) -> None:
    """Write the ElementTree document rooted at ``kml`` indented, after an
    XML declaration."""
    ET.indent(kml)
    payload = ET.tostring(kml, encoding="unicode")
    with resolve_uri(dest, "w") as handle:
        handle.write('<?xml version="1.0" encoding="UTF-8"?>\n')
        handle.write(payload)
        handle.write("\n")


def et_kml(folders):
    """The ElementTree document of ``review.write_kml``'s folders: each a
    (name, placemarks) pair, each placemark a (name, geometry, coordinate
    text, control or None) tuple."""
    kml = ET.Element("kml", xmlns="http://www.opengis.net/kml/2.2")
    doc = ET.SubElement(kml, "Document")
    for folder_name, placemarks in folders:
        folder = ET.SubElement(doc, "Folder")
        ET.SubElement(folder, "name").text = folder_name
        for name, geometry, text, control in placemarks:
            mark = ET.SubElement(folder, "Placemark")
            ET.SubElement(mark, "name").text = name
            if control is not None:
                ext = ET.SubElement(mark, "ExtendedData")
                data = ET.SubElement(ext, "Data", name="control")
                ET.SubElement(data, "value").text = control
            geom = ET.SubElement(mark, geometry)
            if geometry == "Polygon":
                outer = ET.SubElement(geom, "outerBoundaryIs")
                geom = ET.SubElement(outer, "LinearRing")
            ET.SubElement(geom, "coordinates").text = text
    return kml


def et_export_candidates_kml(candidates, dest) -> None:
    """``review.export_candidates_kml`` as an ElementTree build."""
    if not candidates:
        raise ValueError("no candidates to export")
    kml = ET.Element("kml", xmlns="http://www.opengis.net/kml/2.2")
    doc = ET.SubElement(kml, "Document")
    folder = ET.SubElement(doc, "Folder")
    ET.SubElement(folder, "name").text = "candidates"
    columns = candidates.intxn_id, candidates.lat.tolist(), candidates.lon.tolist()
    for intxn_id, lat, lon in zip(*columns):
        mark = ET.SubElement(folder, "Placemark")
        ET.SubElement(mark, "name").text = str(intxn_id)
        point = ET.SubElement(mark, "Point")
        ET.SubElement(point, "coordinates").text = f"{lon:.10g},{lat:.10g},0"
    et_write_kml(kml, dest)


def _kml_coord(p: GeoPoint) -> str:
    return f"{p.lon_deg!r},{p.lat_deg!r},0"


def et_write_reviewed_kml(path, grid, controlled, length_ft: float, half_width_ft: float) -> None:
    """Synth's reviewed KML as an ElementTree build: each controlled
    junction, (intxn_id, row, col) of ``grid``, as a point under ``true``
    with control ``stop``, and its eastbound approach, a ``length_ft`` by
    2 * ``half_width_ft`` rectangle ending on the junction, with the entering
    line along its centre, under ``approaches``."""
    kml = ET.Element("kml", xmlns="http://www.opengis.net/kml/2.2")
    doc = ET.SubElement(kml, "Document")
    true_folder = ET.SubElement(doc, "Folder")
    ET.SubElement(true_folder, "name").text = "true"
    approach_folder = ET.SubElement(doc, "Folder")
    ET.SubElement(approach_folder, "name").text = "approaches"

    dlat = half_width_ft / FT_PER_DEG
    dlon = length_ft / (FT_PER_DEG * grid.cos0)
    for intxn_id, row, col in sorted(controlled):
        pos = grid.junction(row, col)
        mark = ET.SubElement(true_folder, "Placemark")
        ET.SubElement(mark, "name").text = str(intxn_id)
        ext = ET.SubElement(mark, "ExtendedData")
        data = ET.SubElement(ext, "Data", name="control")
        ET.SubElement(data, "value").text = "stop"
        point = ET.SubElement(mark, "Point")
        ET.SubElement(point, "coordinates").text = _kml_coord(pos)

        ring = [
            GeoPoint(pos.lat_deg - dlat, pos.lon_deg - dlon),
            GeoPoint(pos.lat_deg - dlat, pos.lon_deg),
            GeoPoint(pos.lat_deg + dlat, pos.lon_deg),
            GeoPoint(pos.lat_deg + dlat, pos.lon_deg - dlon),
        ]
        poly_mark = ET.SubElement(approach_folder, "Placemark")
        ET.SubElement(poly_mark, "name").text = f"approach-{intxn_id}"
        polygon = ET.SubElement(poly_mark, "Polygon")
        outer = ET.SubElement(polygon, "outerBoundaryIs")
        linear = ET.SubElement(outer, "LinearRing")
        ET.SubElement(linear, "coordinates").text = " ".join(
            _kml_coord(v) for v in ring + [ring[0]]
        )

        line_mark = ET.SubElement(approach_folder, "Placemark")
        ET.SubElement(line_mark, "name").text = f"enter-{intxn_id}"
        line = ET.SubElement(line_mark, "LineString")
        ET.SubElement(line, "coordinates").text = " ".join(
            [_kml_coord(GeoPoint(pos.lat_deg, pos.lon_deg - dlon)), _kml_coord(pos)]
        )

    et_write_kml(kml, path)


# ---------------------------------------------------------------------------
# Scalar geodesy, time text and grid lookups


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


def centroid(points: list[GeoPoint]) -> GeoPoint:
    """Arithmetic mean of latitudes and longitudes, each added left to right
    from 0.0 (``functools.reduce``: from Python 3.12, ``sum`` adds floats with
    compensation). Raises ValueError on empty input."""
    if not points:
        raise ValueError("centroid of empty point list")
    n = len(points)
    return GeoPoint(
        functools.reduce(operator.add, (p.lat_deg for p in points), 0.0) / n,
        functools.reduce(operator.add, (p.lon_deg for p in points), 0.0) / n,
    )


def format_time_utc(dt: datetime) -> str:
    """Render UTC time with millisecond precision, e.g. 2019-05-01T14:03:22.500Z."""
    # isoformat pads the year to four digits, as %Y does not below 1000.
    return dt.astimezone(timezone.utc).isoformat(timespec="milliseconds")[:-6] + "Z"


def cell_block(grid, lat: float, lon: float):
    """Ascending indices of the points of a ``geo.CellGrid`` in the 3x3 cell
    block around (lat, lon)."""
    return np.sort(joined(grid.block_pairs([lat], [lon]))[1])


def cells_overlapping(grid, box: tuple[float, float, float, float]):
    """Ascending indices of the points of a ``geo.CellGrid`` in cells that
    meet ``box``."""
    return np.sort(joined(grid.overlap_pairs([[side] for side in box]))[1])


# ---------------------------------------------------------------------------
# Reviewed geometry, one object at a time


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


def _orient(ax: float, ay: float, bx: float, by: float, cx: float, cy: float) -> float:
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _segments_intersect(x1, y1, x2, y2, x3, y3, x4, y4) -> bool:
    # Proper crossings and collinear overlap both count.
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


def check_ring(lats: list[float], lons: list[float]) -> None:
    """Raise ValueError unless the vertices (lats[i], lons[i]) are an open
    ring (closure implicit) of a simple polygon: at least three of them, the
    last not repeating the first, and no two edges without a shared vertex
    crossing or touching in the lon/lat plane."""
    n = len(lats)
    if n < 3:
        raise ValueError("polygon ring needs at least 3 vertices")
    if lats[0] == lats[-1] and lons[0] == lons[-1]:
        raise ValueError("polygon ring must not repeat its first vertex")
    for i in range(n):
        i2 = (i + 1) % n
        for j in range(i + 2, n if i else n - 1):  # no edge sharing a vertex with edge i
            j2 = (j + 1) % n
            if _segments_intersect(
                lons[i], lats[i], lons[i2], lats[i2], lons[j], lats[j], lons[j2], lats[j2]
            ):
                raise ValueError("polygon ring is self-intersecting")


@dataclass(frozen=True)
class PolygonRing:
    """Simple polygon given as an open vertex ring (closure is implicit).

    Vertices must not repeat the first point at the end, there must be at
    least three of them, and the ring must not self-intersect.
    """

    vertices: tuple[GeoPoint, ...]

    def __post_init__(self) -> None:
        check_ring([v.lat_deg for v in self.vertices], [v.lon_deg for v in self.vertices])

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


def ring_table(rings: list[PolygonRing]) -> RingTable:
    """The ``geo.RingTable`` of ``rings``, in order."""
    verts = [v for ring in rings for v in ring.vertices]
    first = np.cumsum([0] + [len(ring.vertices) for ring in rings])
    return RingTable([v.lat_deg for v in verts], [v.lon_deg for v in verts], first)


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
    """Boundary-inclusive containment test, ray casting in the lat/lon plane."""
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


@dataclass
class ApproachLeg:
    leg_id: int
    polygon: PolygonRing
    entering_line: list[GeoPoint]


@dataclass
class ReviewedIntersection:
    intxn_id: int
    pos: GeoPoint
    control_type: str = "stop"
    approaches: list[ApproachLeg] = field(default_factory=list)


def reviewed_doc(reviewed: list[ReviewedIntersection]) -> dict:
    """The ``reviewed.json`` document of the intersections, in id order."""
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
                    }
                    for leg in r.approaches
                ],
            }
            for r in sorted(reviewed, key=lambda r: r.intxn_id)
        ]
    }


def reviewed_set(reviewed: list[ReviewedIntersection]):
    """The ``review.ReviewedSet`` of the intersections."""
    return reviewed_from_json(reviewed_doc(reviewed))


def _edge_distance_ft(pt, ring):
    verts = ring.vertices
    return min(
        point_to_segment_ft(pt, verts[i], verts[(i + 1) % len(verts)]) for i in range(len(verts))
    )


def reject(kind: str, name: str, reason: str) -> dict[str, str]:
    """A row of the import's rejects report."""
    return {"kind": kind, "name": name, "reason": reason}


def scalar_import_reviewed_kml(source, polygon_match_ft, line_edge_match_ft):
    """``review.import_reviewed_kml`` one object at a time: every polygon
    against every intersection, every line against every polygon, from the
    KML as the one-placemark-at-a-time reader gives it. Returns the
    ``ReviewedIntersection`` list, in id order, and the rejects report rows."""
    feats, folder_names = old_parse_kml_features(source)
    rejects = []
    if TRUE_FOLDER in folder_names:
        true_points = [p for p in feats["point"] if TRUE_FOLDER in p[1]]
    else:
        true_points = feats["point"]
    intersections = {}
    for name, _, coords, extended in true_points:
        try:
            intxn_id = int(name)
        except ValueError:
            rejects.append(reject("intersection", name, "non_integer_name"))
            continue
        if intxn_id in intersections:
            rejects.append(reject("intersection", name, "duplicate_id"))
            continue
        control = extended.get("control", "stop")
        if control not in CONTROL_TYPES:
            rejects.append(reject("intersection", name, "invalid_control"))
            continue
        intersections[intxn_id] = ReviewedIntersection(intxn_id, coords[0], control)

    pending = []
    for name, _, coords, _ in feats["polygon"]:
        try:
            ring = PolygonRing(tuple(coords))
        except ValueError:
            rejects.append(reject("polygon", name, "invalid_polygon"))
            continue
        if not intersections:
            rejects.append(reject("polygon", name, "unassigned_polygon"))
            continue
        center = centroid(list(ring.vertices))
        best_id = min(
            intersections, key=lambda i: (haversine_distance_ft(center, intersections[i].pos), i)
        )
        if haversine_distance_ft(center, intersections[best_id].pos) > polygon_match_ft:
            rejects.append(reject("polygon", name, "unassigned_polygon"))
            continue
        pending.append({"intxn_id": best_id, "ring": ring, "name": name, "line": None})

    for name, _, coords, _ in feats["line"]:
        # A line whose ends coincide gives no entering bearing.
        if len(coords) < 2 or coords[0] == coords[-1]:
            rejects.append(reject("line", name, "invalid_line"))
            continue
        mid = polyline_midpoint(coords)
        containing = [
            (i, leg) for i, leg in enumerate(pending) if point_in_polygon(mid, leg["ring"])
        ]
        if containing:
            idx = min(containing, key=lambda t: (_edge_distance_ft(mid, t[1]["ring"]), t[0]))[0]
        else:
            ranked = sorted((_edge_distance_ft(mid, leg["ring"]), i) for i, leg in enumerate(pending))
            if not ranked or ranked[0][0] > line_edge_match_ft:
                rejects.append(reject("line", name, "unassigned_line"))
                continue
            idx = ranked[0][1]
        if pending[idx]["line"] is not None:
            rejects.append(reject("line", name, "extra_line"))
            continue
        pending[idx]["line"] = coords

    for leg in pending:
        if leg["line"] is None:
            rejects.append(reject("polygon", leg["name"], "no_entering_line"))
            continue
        intxn = intersections[leg["intxn_id"]]
        intxn.approaches.append(ApproachLeg(len(intxn.approaches) + 1, leg["ring"], leg["line"]))

    reviewed = []
    for intxn_id in sorted(intersections):
        intxn = intersections[intxn_id]
        if not intxn.approaches:
            rejects.append(reject("intersection", str(intxn_id), "no_polygons"))
            continue
        reviewed.append(intxn)
    return reviewed, rejects


# ---------------------------------------------------------------------------
# Intersection candidates, one object at a time


@dataclass(frozen=True)
class IntersectionCandidate:
    intxn_id: int
    pos: GeoPoint
    degree: int


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


def network_of(polylines: list[tuple[str, list[GeoPoint]]]) -> RoadNetwork:
    """The ``discovery.RoadNetwork`` of (line_id, vertex list) pairs."""
    points = [p for _, line in polylines for p in line]
    return RoadNetwork(
        [line_id for line_id, _ in polylines],
        np.array([p.lat_deg for p in points], dtype=float),
        np.array([p.lon_deg for p in points], dtype=float),
        np.cumsum([0] + [len(line) for _, line in polylines]),
    )


def candidates_of(rows: list) -> Candidates:
    """The ``discovery.Candidates`` of ``IntersectionCandidate`` or
    ``VisitedCandidate`` rows, in id order."""
    rows = sorted(rows, key=lambda r: r.intxn_id)
    if rows and isinstance(rows[0], VisitedCandidate):
        names = ("supporting_cluster_ids", "match_dist_ft")
    else:
        names = ("degree",)
    return Candidates(
        [r.intxn_id for r in rows],
        np.array([r.pos.lat_deg for r in rows], dtype=float),
        np.array([r.pos.lon_deg for r in rows], dtype=float),
        {name: [getattr(r, name) for r in rows] for name in names},
    )


def candidate_rows(candidates: Candidates) -> list:
    """The rows of ``candidates``, as ``IntersectionCandidate`` or
    ``VisitedCandidate`` objects."""
    positions = list(map(GeoPoint, candidates.lat.tolist(), candidates.lon.tolist()))
    row = IntersectionCandidate if "degree" in candidates.props else VisitedCandidate
    return list(map(row, candidates.intxn_id, positions, *candidates.props.values()))


def object_extract_lrs_candidates(polylines, tol_ft: float) -> list[IntersectionCandidate]:
    """``discovery.extract_lrs_candidates`` of (line_id, vertex list) pairs,
    a group and a candidate at a time."""
    verts = [p for _, points in polylines for p in points]
    if not verts:
        return []
    groups = {}
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


def object_cluster_centers(detections, eps_ft: float, min_pts: int) -> list[tuple[int, GeoPoint]]:
    """The (cluster_id, center) of each cluster ``discovery.cluster_detections``
    finds, one cluster at a time."""
    lat, lon = detections.lat, detections.lon
    labels = dbscan_labels(lat, lon, eps_ft, min_pts)
    found = np.flatnonzero(labels >= 0)
    found = found[np.argsort(labels[found], kind="stable")]
    built = []
    for rows in np.split(found, np.flatnonzero(np.diff(labels[found])) + 1) if found.size else []:
        order = rows[np.lexsort((lon[rows], lat[rows]))]
        members = list(map(GeoPoint, lat[order].tolist(), lon[order].tolist()))
        # rows ascend, so rows[0] is the cluster's first row.
        built.append(((members[0].lat_deg, members[0].lon_deg, int(rows[0])), centroid(members)))
    built.sort(key=lambda t: t[0])
    return [(i + 1, center) for i, (_, center) in enumerate(built)]


def numpy_haversine_ft(lat1, lon1, lat2, lon2) -> np.ndarray:
    """The haversine distance in feet between numpy-broadcast coordinates,
    2R asin(min(1, sqrt(h))), as ``discovery`` computed it before it called
    ``geo.haversine_estimates_ft``."""
    phi1 = np.radians(lat1)
    phi2 = np.radians(lat2)
    dphi = np.radians(lat2 - lat1)
    dlam = np.radians(lon2 - lon1)
    h = np.sin(dphi / 2.0) ** 2 + np.cos(phi1) * np.cos(phi2) * np.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_FT * np.arcsin(np.minimum(1.0, np.sqrt(h)))


def object_match_clusters(centers, candidates, max_match_ft: float):
    """``discovery.match_clusters`` of (cluster_id, center) pairs and
    ``IntersectionCandidate`` rows, a center at a time: the
    ``VisitedCandidate`` list and the ``UnmatchedCluster`` list."""
    cands = sorted(candidates, key=lambda c: c.intxn_id)
    lats = np.array([c.pos.lat_deg for c in cands], dtype=float)
    lons = np.array([c.pos.lon_deg for c in cands], dtype=float)
    matched, unmatched = {}, []
    for cluster_id, center in sorted(centers, key=lambda t: t[0]):
        dists = numpy_haversine_ft(center.lat_deg, center.lon_deg, lats, lons)
        k = int(np.argmin(dists))  # ties resolve to the lowest intxn_id
        dist = float(dists[k])
        if dist > max_match_ft:
            unmatched.append(UnmatchedCluster(cluster_id, center, cands[k].intxn_id, dist))
        else:
            matched.setdefault(k, []).append((cluster_id, dist))
    visited = [
        VisitedCandidate(
            cands[k].intxn_id, cands[k].pos, sorted(c for c, _ in support), min(d for _, d in support)
        )
        for k, support in sorted(matched.items())
    ]
    return visited, unmatched


def cell_loop_dbscan_labels(lats, lons, eps_ft: float, min_pts: int) -> np.ndarray:
    """``discovery.dbscan_labels`` as it was before it worked on arrays of
    pairs: on the same cells, a loop over the sparse cells counts their
    points' neighbors, and a union-find over the cells tests each one's core
    points against those of the later cells within reach that it has not
    joined yet."""
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
                haversine_estimates_ft(lats[rows, None], lons[rows, None], lats[cand], lons[cand])
                <= eps_ft
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
            d = haversine_estimates_ft(lats[ai], lons[ai], lats[bj], lons[bj])
            hit[j : j + _PAIR_BLOCK] |= (d <= eps_ft).any(axis=0)
    return hit


def counting(fn, sizes: list):
    """``fn`` that appends to ``sizes`` the number of elements its numpy-broadcast
    arguments give, one entry per call."""

    def counted(*args):
        sizes.append(np.broadcast(*args).size)
        return fn(*args)

    return counted


def _csv_line(fields) -> str:
    """``fields`` as csv.writer writes a row, ending in "\\n"; None is a blank line."""
    out = io.StringIO(newline="")
    csv.writer(out, lineterminator="\n").writerow(fields) if fields is not None else out.write("\n")
    return out.getvalue()


def boundary_texts(draw, files) -> list[str]:
    """The texts of raw CSV ``files``, each a header and its rows as field
    lists (None a blank line), varied where one file meets the next.

    A file may hold its header only, or its header and blank lines. It may
    end without its last newline, or in a copy of its last row whose last
    field a quote opens and never closes. Or it ends in a copy of that row
    cut to ``,"x`` with no newline, and ``y",`` and the row's last field
    start the next file's first data line: glued, the two would read as one
    row whose field before last is the quoted ``"xy"``.
    """
    texts, carry = [], []
    for k, (header, rows) in enumerate(files):
        kind = draw(st.sampled_from(["rows"] * 4 + ["header only", "blank only"]))
        rows = [] if kind == "header only" else [None] * 2 if kind == "blank only" else rows
        lines = [_csv_line(header), *carry, *map(_csv_line, rows)]
        last, carry = next((r for r in reversed(rows) if r), None), []
        end = draw(st.sampled_from(["newline", "bare", "open quote", "split quote"]))
        if end == "open quote" and last:
            newline = draw(st.sampled_from(["", "\n"]))
            lines.append(_csv_line(last[:-1])[:-1] + ',"' + last[-1] + newline)
        elif end == "split quote" and last and len(last) > 2 and k + 1 < len(files):
            lines.append(_csv_line(last[:-2])[:-1] + ',"' + last[-2][:1])
            carry = [last[-2][1:] + '",' + _csv_line(last[-1:])]
        text = "".join(lines)
        texts.append(text[:-1] if end == "bare" and text.endswith("\n") else text)
    return texts


def parsed(parse, texts) -> tuple[list, dict, list]:
    """``parse(sources, bad_row)`` of ``texts``, as ``ingest._parse_csv``
    gives it: each row's key, each other column's bytes, and the bad rows
    (reason, line, row) in order."""
    bad = []
    named = parse([io.StringIO(text, newline="") for text in texts], lambda *call: bad.append(call))
    keys = [named["keys"][k] for k in named["key"].tolist()]
    return keys, {n: c.tobytes() for n, c in named.items() if n not in ("key", "keys")}, bad


def parsed_alone(parse, texts) -> tuple[list, dict, list]:
    """``parsed`` of each text by itself, joined file after file."""
    keys, columns, bad = [], {}, []
    for file_keys, file_columns, file_bad in (parsed(parse, [text]) for text in texts):
        keys += file_keys
        bad += file_bad
        for name, data in file_columns.items():
            columns[name] = columns.get(name, b"") + data
    return keys, columns, bad
