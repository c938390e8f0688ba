"""Road-network intersection candidates and the KML review loop.

Builds a hand-sized street network, extracts junction candidates (three or
more coincident polyline vertices), exports them to KML the way the
pipeline hands candidates to a human reviewer, then imports a reviewed KML
with approach polygons and entering-direction lines.
"""

import math
import tempfile
from pathlib import Path

import numpy as np

from intxn_pipeline.discovery import RoadNetwork, extract_lrs_candidates
from intxn_pipeline.geo import FT_PER_DEG, GeoPoint
from intxn_pipeline.review import export_candidates_kml, import_reviewed_kml, parse_kml_features

LAT0, LON0 = 41.25, -96.0
COS0 = math.cos(math.radians(LAT0))


def pt(north_ft=0.0, east_ft=0.0):
    return GeoPoint(LAT0 + north_ft / FT_PER_DEG, LON0 + east_ft / (FT_PER_DEG * COS0))


print("== Candidate extraction ==")
# Main street with a crossroad (4-way) and a T-junction 1,000 ft apart.
# Lines are split at junctions, as state LRS networks are.
# The network is columns: every line's vertices, one after the other, and
# where each line starts.
cross, tee = pt(), pt(east_ft=1000)
lines = {
    "main-w": [pt(east_ft=-800), cross],
    "main-m": [cross, tee],
    "main-e": [tee, pt(east_ft=1800)],
    "cross-n": [cross, pt(north_ft=800)],
    "cross-s": [cross, pt(north_ft=-800)],
    "tee-stem": [tee, pt(north_ft=800, east_ft=1000)],
}
vertices = [p for line in lines.values() for p in line]
network = RoadNetwork(
    list(lines),
    np.array([p.lat_deg for p in vertices]),
    np.array([p.lon_deg for p in vertices]),
    np.cumsum([0] + [len(line) for line in lines.values()]),
)
candidates = extract_lrs_candidates(network, tol_ft=1.0)
for intxn_id, degree in zip(candidates.intxn_id, candidates.props["degree"]):
    kind = {3: "T-junction", 4: "crossroad"}.get(degree, f"{degree}-way")
    print(f"candidate {intxn_id}: degree {degree} ({kind})")
print("note: plain road continuations (2 coincident vertices) are not junctions")

workdir = Path(tempfile.mkdtemp(prefix="intxn-demo-"))
kml_path = workdir / "candidates.kml"
export_candidates_kml(candidates, kml_path)
print(f"\n== Exported for review: {kml_path} ==")
print(kml_path.read_text()[:400], "...")

print("== Reviewer round trip ==")
feats = parse_kml_features(kml_path)
print(f"reimported placemarks: {feats.points.names}")

# A reviewed file: the reviewer kept candidate 1, marked its eastbound
# approach with a polygon, and drew the entering-direction line.
ring = [pt(-20, -300), pt(-20, 0), pt(20, 0), pt(20, -300)]
coords = " ".join(f"{v.lon_deg!r},{v.lat_deg!r},0" for v in ring + [ring[0]])
line = f"{pt(0, -300).lon_deg!r},{pt(0, -300).lat_deg!r},0 {cross.lon_deg!r},{cross.lat_deg!r},0"
reviewed_kml = workdir / "reviewed.kml"
reviewed_kml.write_text(
    f"""<?xml version="1.0" encoding="UTF-8"?>
<kml xmlns="http://www.opengis.net/kml/2.2"><Document>
<Folder><name>true</name>
<Placemark><name>1</name>
<ExtendedData><Data name="control"><value>stop</value></Data></ExtendedData>
<Point><coordinates>{cross.lon_deg!r},{cross.lat_deg!r},0</coordinates></Point>
</Placemark></Folder>
<Placemark><name>east approach</name><Polygon><outerBoundaryIs><LinearRing>
<coordinates>{coords}</coordinates>
</LinearRing></outerBoundaryIs></Polygon></Placemark>
<Placemark><name>entering</name><LineString><coordinates>{line}</coordinates></LineString></Placemark>
</Document></kml>
"""
)
reviewed, rejects = import_reviewed_kml(reviewed_kml)
for row, (intxn_id, control) in enumerate(zip(reviewed.intxn_id, reviewed.control)):
    print(
        f"reviewed intersection {intxn_id}: control={control}, "
        f"{int((reviewed.owner == row).sum())} approach(es)"
    )
print(f"rejects: {[(r['kind'], r['reason']) for r in rejects] or 'none'}")
