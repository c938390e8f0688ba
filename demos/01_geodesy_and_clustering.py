"""Geodesy primitives and detection clustering on a toy street corner.

Walks through the building blocks the pipeline stands on: great-circle
distances in feet, bearings, heading comparison, point-in-polygon tests,
last-in-run detection filtering, and DBSCAN clustering of the surviving
detections.
"""

import math
from datetime import datetime, timedelta, timezone

from intxn_pipeline.discovery import cluster_detections, last_in_runs
from intxn_pipeline.geo import (
    FT_PER_DEG,
    GeoPoint,
    PolygonRing,
    angular_difference_deg,
    haversine_distance_ft,
    initial_bearing_deg,
    point_in_polygon,
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


print("== Distances and bearings ==")
down_the_block = offset(east_ft=660.0)
print(f"one block east      : {haversine_distance_ft(CORNER, down_the_block):8.2f} ft")
print(f"bearing to it       : {initial_bearing_deg(CORNER, down_the_block):8.2f} deg")
print(f"heading 350 vs 10   : {angular_difference_deg(350, 10):8.2f} deg apart")

print()
print("== Approach polygon membership ==")
approach = PolygonRing(
    (
        offset(-20, -300),
        offset(-20, 0),
        offset(20, 0),
        offset(20, -300),
    )
)
for label, pt in [
    ("150 ft up the approach", offset(0, -150)),
    ("exactly on the stop bar", offset(0, 0)),
    ("a block away", offset(0, 660)),
]:
    print(f"{label:26s}: inside={point_in_polygon(pt, approach)}")

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
clusters = cluster_detections(survivors, eps_ft=100.0, min_pts=2)
for cluster in clusters:
    dist = haversine_distance_ft(cluster.center, CORNER)
    print(
        f"cluster {cluster.cluster_id}: {len(cluster.rows)} members, "
        f"center {dist:.1f} ft from the corner"
    )
