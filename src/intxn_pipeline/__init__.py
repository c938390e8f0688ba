"""Batch analytics for driver behavior at traffic-controlled intersections.

Takes naturalistic-driving sensor streams, traffic-control-device
detections, and a state road network; finds the intersections participants
actually visited; extracts their entering trajectories; and emits video
cut-lists plus review templates for manual annotation. The API is in the
modules:

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
