"""Geodesy primitives and detection clustering on a toy street corner.

Walks through the building blocks the pipeline stands on: great-circle
distances in feet, bearings, heading comparison, point-in-polygon tests,
last-in-run detection filtering, and DBSCAN clustering of the surviving
detections. The distance and polygon functions take arrays, as the
pipeline calls them, so each question below is one call for all its points.
"""

import math
from datetime import datetime, timedelta, timezone

import numpy as np

from intxn_pipeline.discovery import cluster_detections, dbscan_labels, last_in_runs
from intxn_pipeline.geo import (
    FT_PER_DEG,
    RING_FAULTS,
    GeoPoint,
    RingTable,
    angular_difference_deg,
    haversine_distances_ft,
    initial_bearing_deg,
    points_in_polygon,
    ring_faults,
)
from intxn_pipeline.ingest import CLASS_NAMES, DetectionTable, to_us

T0 = datetime(2019, 5, 1, 12, 0, tzinfo=timezone.utc)
CORNER = GeoPoint(41.25, -96.0)
COS0 = math.cos(math.radians(CORNER.lat_deg))


def offset(north_ft=0.0, east_ft=0.0):
    return GeoPoint(
        CORNER.lat_deg + north_ft / FT_PER_DEG,
        CORNER.lon_deg + east_ft / (FT_PER_DEG * COS0),
    )


def distances_ft(points, to):
    """The great-circle distance of each point from ``to``, in feet."""
    lats = np.array([p.lat_deg for p in points])
    lons = np.array([p.lon_deg for p in points])
    return haversine_distances_ft(
        lats, lons, np.full_like(lats, to.lat_deg), np.full_like(lons, to.lon_deg)
    )


print("== Distances and bearings ==")
down_the_block = offset(east_ft=660.0)
(block_ft,) = distances_ft([down_the_block], CORNER)
bearing = initial_bearing_deg(
    CORNER.lat_deg, CORNER.lon_deg, down_the_block.lat_deg, down_the_block.lon_deg
)
print(f"one block east      : {block_ft:8.2f} ft")
print(f"bearing to it       : {bearing:8.2f} deg")
print(f"heading 350 vs 10   : {angular_difference_deg(350, 10):8.2f} deg apart")

print()
print("== Approach polygon membership ==")
# One approach ring, checked as the review import checks every polygon at
# once, then held in a ring table of one ring.
corners = [offset(-20, -300), offset(-20, 0), offset(20, 0), offset(20, -300)]
lats, lons = np.array([p.lat_deg for p in corners]), np.array([p.lon_deg for p in corners])
(fault,) = ring_faults(lats, lons, [0, len(corners)])
print(f"ring check          : {RING_FAULTS[fault] or 'a simple polygon'}")
approach = RingTable(lats, lons, [0, len(corners)])
probes = {
    "150 ft up the approach": offset(0, -150),
    "exactly on the stop bar": offset(0, 0),
    "a block away": offset(0, 660),
}
inside = points_in_polygon(
    approach,
    np.zeros(len(probes), dtype=np.int64),
    np.array([p.lat_deg for p in probes.values()]),
    np.array([p.lon_deg for p in probes.values()]),
)
for label, hit in zip(probes, inside.tolist()):
    print(f"{label:26s}: inside={hit}")

print()
print("== Last-in-run filtering ==")
# A stop sign gets detected every second starting 150 ft out, twice in one
# drive (two visits 60 s apart). Only the final sighting of each run - the
# one nearest the sign - should survive. A table is built column by column.
sightings = [(start + i, offset(0, -150 + 50 * i)) for start in (0.0, 60.0) for i in range(4)]
n = len(sightings)
detections = DetectionTable.from_columns(
    ["S01"] * n,
    [1] * n,
    [to_us(T0 + timedelta(seconds=s)) for s, _ in sightings],
    [p.lat_deg for _, p in sightings],
    [p.lon_deg for _, p in sightings],
    [CLASS_NAMES.index("stop_sign")] * n,
    [0.9] * n,
)
print(f"raw detections      : {len(detections)}")
survivors = last_in_runs(detections, max_gap_s=2.0)
print(f"last-in-run kept    : {len(survivors)} (one per visit)")

print()
print("== DBSCAN on the survivors ==")
# Both visits stop at the same sign, so their last detections are within
# the 100 ft search distance and merge into one cluster of two.
# The clusters come back as their centers' lat and lon columns, in cluster-id
# order; DBSCAN's labels say which detections are in some cluster.
lat, lon = cluster_detections(survivors, eps_ft=100.0, min_pts=2)
clustered = int((dbscan_labels(survivors.lat, survivors.lon, 100.0, 2) >= 0).sum())
print(f"{len(lat)} cluster(s) holding {clustered} of {len(survivors)} detections")
for k, dist in enumerate(distances_ft(list(map(GeoPoint, lat.tolist(), lon.tolist())), CORNER)):
    print(f"cluster {k + 1}: center {dist:.1f} ft from the corner")
