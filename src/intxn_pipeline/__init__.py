"""Batch analytics for driver behavior at traffic-controlled intersections.

Takes naturalistic-driving sensor streams, traffic-control-device
detections, and a state road network; finds the intersections participants
actually visited; extracts their entering trajectories; and emits video
cut-lists plus review templates for manual annotation. See the module map:

- geo: spherical-earth distances, bearings, polygon tests
- ingest: sensor/detection CSV cleaning and merging
- discovery: network intersection candidates, DBSCAN, visit matching
- review: KML export/import for human review, review templates
- trajectory: entering-trajectory windows through reviewed intersections
- clips: video matching and cut-list generation
- synth: deterministic synthetic scenarios with ground truth
- cli: the `intxn-pipeline` stage runner
"""

__version__ = "0.1.0"

from .clips import ClipSpec, OverlayParams, VideoFile, build_clip_specs, emit_cutlist
from .discovery import (
    DetectionCluster,
    IntersectionCandidate,
    RoadNetwork,
    VisitedCandidate,
    cluster_detections,
    dbscan_labels,
    extract_lrs_candidates,
    last_in_runs,
    match_clusters,
)
from .geo import (
    GeoPoint,
    PolygonRing,
    angular_difference_deg,
    centroid,
    haversine_distance_ft,
    initial_bearing_deg,
    point_in_polygon,
)
from .ingest import (
    CleanTables,
    DetectionRecord,
    SensorRecord,
    SensorTable,
    clean_cv,
    clean_sensor,
    clean_tables,
    compute_cum_dist,
)
from .review import (
    ApproachLeg,
    ReviewedIntersection,
    build_review_template,
    export_candidates_kml,
    import_reviewed_kml,
)
from .synth import GroundTruth, ScenarioSpec, generate
from .trajectory import TrajectoryCandidate, WindowParams, assign_bearings, extract_trajectories

__all__ = [
    "__version__",
    "GeoPoint",
    "PolygonRing",
    "haversine_distance_ft",
    "initial_bearing_deg",
    "angular_difference_deg",
    "point_in_polygon",
    "centroid",
    "SensorRecord",
    "SensorTable",
    "DetectionRecord",
    "CleanTables",
    "clean_sensor",
    "clean_cv",
    "clean_tables",
    "compute_cum_dist",
    "RoadNetwork",
    "IntersectionCandidate",
    "DetectionCluster",
    "VisitedCandidate",
    "extract_lrs_candidates",
    "last_in_runs",
    "dbscan_labels",
    "cluster_detections",
    "match_clusters",
    "ReviewedIntersection",
    "ApproachLeg",
    "export_candidates_kml",
    "import_reviewed_kml",
    "build_review_template",
    "TrajectoryCandidate",
    "WindowParams",
    "assign_bearings",
    "extract_trajectories",
    "VideoFile",
    "ClipSpec",
    "OverlayParams",
    "build_clip_specs",
    "emit_cutlist",
    "ScenarioSpec",
    "GroundTruth",
    "generate",
]
