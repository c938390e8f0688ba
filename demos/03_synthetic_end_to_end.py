"""The whole pipeline on a synthetic scenario, checked against ground truth.

Generates a 4x4 street grid with two participants driving two trips each,
then runs every stage through the library API: clean, candidate
extraction, visited-intersection discovery, review import, trajectory
windows, clip specs, and the review template. Because the scenario is
constant-speed, every number the pipeline produces has a closed form to
compare against.
"""

import tempfile
from pathlib import Path

from intxn_pipeline.clips import build_clip_specs, read_videos_csv
from intxn_pipeline.discovery import (
    cluster_detections,
    extract_lrs_candidates,
    last_in_runs,
    load_network_geojson,
    match_clusters,
)
from intxn_pipeline.ingest import clean_cv, clean_sensor
from intxn_pipeline.review import build_review_template, import_reviewed_kml, read_demographics
from intxn_pipeline.synth import ScenarioSpec, generate
from intxn_pipeline.trajectory import extract_trajectories, windows

workdir = Path(tempfile.mkdtemp(prefix="intxn-demo-"))
print(f"workspace: {workdir}")

scenario = generate(ScenarioSpec(), workdir)
gt = scenario.ground_truth
print(
    f"scenario: {len(gt.junctions)} junctions, {len(gt.candidates)} candidates, "
    f"{len(gt.visited_ids)} controlled junctions on the routes"
)

print("\n== 1. clean ==")
sensor, sensor_drops, _ = clean_sensor([str(p) for p in scenario.paths["sensor_files"]])
detections, cv_drops, _ = clean_cv([str(p) for p in scenario.paths["cv_files"]], sensor)
print(f"sensor rows {len(sensor)} (drops {sum(sensor_drops.values())}), "
      f"detections {len(detections)} (drops {sum(cv_drops.values())})")

print("\n== 2. intersection candidates from the network ==")
network = load_network_geojson(scenario.paths["network"])
candidates = extract_lrs_candidates(network)
print(f"extracted {len(candidates)}, expected {len(gt.candidates)}")

print("\n== 3. participant-visited candidates ==")
# Cluster centers come back as lat and lon columns, and the visited
# candidates as columns too.
lat, lon = cluster_detections(last_in_runs(detections))
visited, unmatched = match_clusters(lat, lon, candidates)
print(f"visited ids {visited.intxn_id}, expected {gt.visited_ids}")
print(f"max match distance: {max(visited.props['match_dist_ft']):.3f} ft")

print("\n== 4. review import and trajectory windows ==")
reviewed, rejects = import_reviewed_kml(scenario.paths["reviewed_kml"])
trajs, skip_report = extract_trajectories(sensor, reviewed)
print(f"trajectories {len(trajs)}, expected {len(gt.trajectories)}, skips {skip_report}")
# The table holds each window's times; windows() cuts its rows start:stop
# from the sensor table.
_, starts, stops = windows(trajs, sensor)
sample_id, start, stop = trajs.traj_ids()[0], int(starts[0]), int(stops[0])
expected = gt.trajectories[sample_id]
print(
    f"{sample_id}: {stop - start} points "
    f"(expected {expected.n_points}), window "
    f"{(sensor.t_us[stop - 1] - sensor.t_us[start]) / 1e6:.1f} s "
    f"(expected {expected.duration_s:.1f} s)"
)

print("\n== 5. clips and review template ==")
videos = read_videos_csv(scenario.paths["videos"])
# The cut-list is columns too, its rows in traj_id order.
cut, clip_report = build_clip_specs(trajs, sensor, videos)
k = cut.traj_id.index(sample_id)
print(
    f"{sample_id}: seek {cut.in_offset_s[k]:.3f} s, duration {cut.duration_s[k]:.3f} s, "
    f"overlay {cut.overlay_on_s[k]:.3f}..{cut.overlay_off_s[k]:.3f} s "
    f"(expected {expected.overlay_on_s:.3f}..{expected.overlay_off_s:.3f})"
)
participants = read_demographics(scenario.paths["demographics"])
rows, manifest, warnings = build_review_template(
    trajs, cut, participants, custom_fields={"stop_type": ["full", "rolling", "none"]}
)
print(f"review rows {len(trajs)}, validation manifest {manifest}, warnings {warnings}")
overlay_by_id = dict(zip(cut.traj_id, cut.overlay_on_s.tolist()))
aligned = all(
    jump == overlay_by_id[traj_id]
    for traj_id, jump in zip(rows["stop_traj_id"], rows["jump_to_ref"])
)
print(f"jump_to_ref equals overlay-on for every row: {aligned}")
