"""Command-line pipeline driver.

Usage::

    intxn-pipeline <stage> --config <path> [--jobs N] [--param key=value ...]

Stages run independently so a growing study can rerun any of them as new
data lands; outputs are written atomically and a JSON report lands beside
each output. ``all`` runs the whole chain and pauses before
``import-review`` when the human-reviewed KML does not exist yet.

Exit codes: 0 success, 1 user error, 2 data error.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import io
import json
import sys
import time
from pathlib import Path

from . import clips as clips_mod
from . import discovery, ingest, review, synth, trajectory
from .config import PipelineConfig, load_config
from .errors import DataError, MissingPrerequisiteError, PipelineError
from .storage import resolve_uri

STAGES = (
    "clean",
    "lrs-intxns",
    "subj-intxns",
    "export-kml",
    "import-review",
    "traj",
    "clips",
    "template",
    "synth",
    "all",
)

# Stage order for `all`, with the review pause between export-kml and
# import-review.
PRE_REVIEW_STAGES = ("clean", "lrs-intxns", "subj-intxns", "export-kml")
POST_REVIEW_STAGES = ("import-review", "traj", "clips", "template")


def _write_report(output: Path, report: dict) -> None:
    _write_json(Path(str(output) + ".report.json"), report)


def _write_json(output: Path, doc) -> None:
    with resolve_uri(output, "w") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")


def _require(path: Path, what: str, produced_by: str | None = None) -> None:
    if not path.exists():
        hint = f" (produced by `intxn-pipeline {produced_by}`)" if produced_by else ""
        raise MissingPrerequisiteError(f"missing {what}: {path}{hint}")


# The last clean sensor table parsed in this process, keyed by the sha256
# of the bytes it was parsed from. traj, clips and template share the one
# table (`all` runs them in one process); its columns are read-only.
_sensor_table: tuple[str, ingest.SensorTable] | None = None


def _clean_sensor(path: Path) -> ingest.SensorTable:
    """The clean sensor table at ``path``, parsed at most once per content.

    The file is read once, and the bytes hashed are the bytes parsed, so a
    file replaced meanwhile cannot be cached under another content's digest.
    """
    global _sensor_table
    with resolve_uri(path, "rb") as handle:
        data = handle.read()
    key = hashlib.sha256(data).hexdigest()
    if _sensor_table is None or _sensor_table[0] != key:
        _sensor_table = None  # free the old table before parsing the new one
        stream = io.BytesIO(data)
        stream.name = str(path)  # errors name the file, not the stream
        text = io.TextIOWrapper(stream, encoding="utf-8", newline="")
        _sensor_table = (key, ingest.read_clean_sensor(text))
    return _sensor_table[1]


def _expand_files(cfg: PipelineConfig, key: str) -> list[str]:
    files: list[str] = []
    patterns = cfg.input_globs(key)
    for pattern in patterns:
        if any(ch in pattern for ch in "*?["):
            files.extend(sorted(glob.glob(pattern)))
        else:
            files.append(pattern)
    if not files:
        raise MissingPrerequisiteError(f"no files match {key} patterns: {', '.join(patterns)}")
    for f in files:
        _require(Path(f), f"{key} input")
    return files


def stage_clean(cfg: PipelineConfig) -> str:
    t0 = time.perf_counter()
    sensor_files = _expand_files(cfg, "sensor_files")
    cv_files = _expand_files(cfg, "cv_files")
    sensor, sensor_drops = ingest.clean_sensor(sensor_files, jobs=cfg.jobs)
    detections, cv_drops = ingest.clean_cv(
        cv_files, sensor, join_tol_s=cfg.params["join_tol_s"], jobs=cfg.jobs
    )

    sensor_out = cfg.output_path("clean_sensor")
    ingest.write_sensor_csv(sensor, sensor_out)
    _write_json(Path(str(sensor_out) + ".drops.json"), sensor_drops)
    cv_out = cfg.output_path("clean_cv")
    ingest.write_detections_csv(detections, cv_out)
    _write_json(Path(str(cv_out) + ".drops.json"), cv_drops)
    wall = time.perf_counter() - t0

    _write_report(
        sensor_out,
        {
            "stage": "clean",
            "rows_in": len(sensor) + sum(sensor_drops.values()),
            "rows_out": len(sensor),
            "drops": sensor_drops,
            "inputs": sensor_files,
            "wall_time_s": wall,
        },
    )
    _write_report(
        cv_out,
        {
            "stage": "clean",
            "rows_in": len(detections) + sum(cv_drops.values()),
            "rows_out": len(detections),
            "drops": cv_drops,
            "inputs": cv_files,
            "wall_time_s": wall,
        },
    )
    return (
        f"clean: {len(sensor)} sensor rows ({sum(sensor_drops.values())} dropped), "
        f"{len(detections)} detections ({sum(cv_drops.values())} dropped)"
    )


def stage_lrs_intxns(cfg: PipelineConfig) -> str:
    t0 = time.perf_counter()
    network_path = cfg.input_path("network")
    _require(network_path, "road network GeoJSON")
    network = discovery.load_network_geojson(network_path)
    candidates = discovery.extract_lrs_candidates(network, tol_ft=cfg.params["tol_ft"])
    out = cfg.output_path("lrs_candidates")
    discovery.save_geojson(discovery.candidates_to_geojson(candidates), out)
    _write_report(
        out,
        {
            "stage": "lrs-intxns",
            "polylines": len(network.polylines),
            "vertices": sum(len(pts) for _, pts in network.polylines),
            "candidates": len(candidates),
            "wall_time_s": time.perf_counter() - t0,
        },
    )
    return f"lrs-intxns: {len(candidates)} intersection candidates"


def stage_subj_intxns(cfg: PipelineConfig) -> str:
    t0 = time.perf_counter()
    cv_path = cfg.output_path("clean_cv")
    cand_path = cfg.output_path("lrs_candidates")
    _require(cv_path, "clean detection table", produced_by="clean")
    _require(cand_path, "intersection candidate list", produced_by="lrs-intxns")
    detections = ingest.read_clean_detections(cv_path)
    candidates = discovery.candidates_from_geojson(discovery.load_geojson(cand_path))
    if not candidates:
        raise DataError(f"candidate list is empty: {cand_path}")

    last = discovery.last_in_runs(detections, max_gap_s=cfg.params["max_gap_s"])
    clusters = discovery.cluster_detections(
        last, eps_ft=cfg.params["eps_ft"], min_pts=int(cfg.params["min_pts"])
    )
    visited, unmatched = discovery.match_clusters(
        [(c.cluster_id, c.center) for c in clusters],
        candidates,
        max_match_ft=cfg.params["max_match_ft"],
    )
    out = cfg.output_path("visited_candidates")
    discovery.save_geojson(discovery.visited_to_geojson(visited), out)
    _write_report(
        out,
        {
            "stage": "subj-intxns",
            "detections": len(detections),
            "last_in_runs": len(last),
            "clusters": len(clusters),
            "visited": len(visited),
            "unmatched": [
                {
                    "cluster_id": u.cluster_id,
                    "nearest_intxn_id": u.nearest_intxn_id,
                    "dist_ft": u.dist_ft,
                }
                for u in unmatched
            ],
            "wall_time_s": time.perf_counter() - t0,
        },
    )
    return f"subj-intxns: {len(visited)} visited candidates, {len(unmatched)} unmatched clusters"


def stage_export_kml(cfg: PipelineConfig) -> str:
    t0 = time.perf_counter()
    visited_path = cfg.output_path("visited_candidates")
    _require(visited_path, "visited candidate list", produced_by="subj-intxns")
    visited = discovery.visited_from_geojson(discovery.load_geojson(visited_path))
    if not visited:
        raise DataError(f"no visited candidates to export: {visited_path}")
    out = cfg.output_path("candidates_kml")
    review.export_candidates_kml(visited, out)
    _write_report(
        out,
        {
            "stage": "export-kml",
            "candidates": len(visited),
            "wall_time_s": time.perf_counter() - t0,
        },
    )
    return f"export-kml: {len(visited)} candidates written to {out}"


def stage_import_review(cfg: PipelineConfig) -> str:
    t0 = time.perf_counter()
    kml_path = cfg.input_path("reviewed_kml")
    _require(kml_path, "human-reviewed KML")
    reviewed, rejects = review.import_reviewed_kml(
        kml_path,
        polygon_match_ft=cfg.params["polygon_match_ft"],
        line_edge_match_ft=cfg.params["line_edge_match_ft"],
    )
    out = cfg.output_path("reviewed_json")
    review.save_reviewed_json(reviewed, out)
    _write_report(
        out,
        {
            "stage": "import-review",
            "intersections": len(reviewed),
            "approaches": sum(len(r.approaches) for r in reviewed),
            "rejects": [
                {"kind": r.kind, "name": r.name, "reason": r.reason} for r in rejects
            ],
            "wall_time_s": time.perf_counter() - t0,
        },
    )
    return f"import-review: {len(reviewed)} true intersections, {len(rejects)} rejects"


def stage_traj(cfg: PipelineConfig) -> str:
    t0 = time.perf_counter()
    reviewed_path = cfg.output_path("reviewed_json")
    sensor_path = cfg.output_path("clean_sensor")
    _require(reviewed_path, "reviewed intersections", produced_by="import-review")
    _require(sensor_path, "clean sensor table", produced_by="clean")
    reviewed = trajectory.assign_bearings(review.load_reviewed_json(reviewed_path))
    sensor = _clean_sensor(sensor_path)
    params = trajectory.WindowParams(
        upstream_ft=cfg.params["upstream_ft"],
        downstream_ft=cfg.params["downstream_ft"],
        heading_tol_deg=cfg.params["heading_tol_deg"],
        pass_gap_s=cfg.params["pass_gap_s"],
    )
    trajs, skip_report = trajectory.extract_trajectories(sensor, reviewed, params)
    out = cfg.output_path("trajectories")
    trajectory.write_trajectories_csv(trajs, out)
    _write_report(
        out,
        {
            "stage": "traj",
            "trajectories": len(trajs),
            "skips": skip_report,
            "wall_time_s": time.perf_counter() - t0,
        },
    )
    return f"traj: {len(trajs)} entering trajectories, skips {skip_report}"


def stage_clips(cfg: PipelineConfig) -> str:
    t0 = time.perf_counter()
    traj_path = cfg.output_path("trajectories")
    sensor_path = cfg.output_path("clean_sensor")
    videos_path = cfg.input_path("videos")
    _require(traj_path, "trajectory table", produced_by="traj")
    _require(sensor_path, "clean sensor table", produced_by="clean")
    _require(videos_path, "video metadata CSV")
    sensor = _clean_sensor(sensor_path)
    trajs = trajectory.load_trajectories_csv(traj_path, sensor)
    videos = clips_mod.read_videos_csv(videos_path)
    overlay = clips_mod.OverlayParams(
        on_upstream_ft=cfg.params["overlay_on_upstream_ft"],
        off_downstream_ft=cfg.params["overlay_off_downstream_ft"],
    )
    specs, report = clips_mod.build_clip_specs(trajs, videos, overlay)
    out = cfg.output_path("cutlist")
    script_out = cfg.output_path("cutlist_script")
    clips_mod.emit_cutlist(specs, out, script_out, processor=cfg.processor)
    _write_report(
        out,
        {
            "stage": "clips",
            "trajectories": len(trajs),
            "clips": len(specs),
            "unclippable": report["unclippable"],
            "warnings": report["warnings"],
            "wall_time_s": time.perf_counter() - t0,
        },
    )
    return f"clips: {len(specs)} clip specs, {len(report['unclippable'])} unclippable"


def stage_template(cfg: PipelineConfig) -> str:
    t0 = time.perf_counter()
    traj_path = cfg.output_path("trajectories")
    sensor_path = cfg.output_path("clean_sensor")
    cutlist_path = cfg.output_path("cutlist")
    demo_path = cfg.input_path("demographics")
    _require(traj_path, "trajectory table", produced_by="traj")
    _require(sensor_path, "clean sensor table", produced_by="clean")
    _require(cutlist_path, "cut-list JSON", produced_by="clips")
    _require(demo_path, "demographics CSV")
    sensor = _clean_sensor(sensor_path)
    trajs = trajectory.load_trajectories_csv(traj_path, sensor)
    specs = clips_mod.parse_cutlist(cutlist_path)
    participants = review.read_demographics(demo_path)
    rows, manifest, warnings = review.build_review_template(
        trajs,
        specs,
        participants,
        custom_fields=cfg.custom_fields,
        video_base_url=cfg.video_base_url,
    )
    out = cfg.output_path("review_template")
    review.write_review_csv(rows, list(cfg.custom_fields), out)
    manifest_out = cfg.output_path("validation_manifest")
    review.write_validation_manifest(manifest, manifest_out)
    _write_report(
        out,
        {
            "stage": "template",
            "rows": len(rows),
            "custom_fields": list(cfg.custom_fields),
            "warnings": warnings,
            "wall_time_s": time.perf_counter() - t0,
        },
    )
    return f"template: {len(rows)} review rows"


def stage_synth(cfg: PipelineConfig) -> str:
    t0 = time.perf_counter()
    scenario = synth.generate(cfg.synth, cfg.workspace)
    gt_path = scenario.paths["ground_truth"]
    _write_report(
        gt_path,
        {
            "stage": "synth",
            "junctions": len(scenario.ground_truth.junctions),
            "candidates": len(scenario.ground_truth.candidates),
            "visited": len(scenario.ground_truth.visited_ids),
            "trajectories": len(scenario.ground_truth.trajectories),
            "wall_time_s": time.perf_counter() - t0,
        },
    )
    return (
        f"synth: wrote scenario to {cfg.workspace} "
        f"({len(scenario.ground_truth.candidates)} candidates, "
        f"{len(scenario.ground_truth.trajectories)} expected trajectories)"
    )


_STAGE_FUNCS = {
    "clean": stage_clean,
    "lrs-intxns": stage_lrs_intxns,
    "subj-intxns": stage_subj_intxns,
    "export-kml": stage_export_kml,
    "import-review": stage_import_review,
    "traj": stage_traj,
    "clips": stage_clips,
    "template": stage_template,
    "synth": stage_synth,
}


def run(stage: str, cfg: PipelineConfig) -> list[str]:
    """Run one stage (or `all`); returns the printed summary lines."""
    if stage != "all":
        summary = _STAGE_FUNCS[stage](cfg)
        print(summary)
        return [summary]

    lines = []
    for name in PRE_REVIEW_STAGES:
        summary = _STAGE_FUNCS[name](cfg)
        print(summary)
        lines.append(summary)
    kml_path = cfg.input_path("reviewed_kml")
    if not kml_path.exists():
        pause = (
            f"all: paused before import-review. Review {cfg.output_path('candidates_kml')} "
            f"in an earth viewer, save the reviewed file as {kml_path}, and rerun "
            "`intxn-pipeline all`."
        )
        print(pause)
        lines.append(pause)
        return lines
    for name in POST_REVIEW_STAGES:
        summary = _STAGE_FUNCS[name](cfg)
        print(summary)
        lines.append(summary)
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="intxn-pipeline",
        description="Batch pipeline for intersection discovery, trajectory windows, "
        "video cut-lists, and review templates from naturalistic driving data.",
    )
    parser.add_argument("stage", choices=STAGES, help="pipeline stage to run")
    parser.add_argument("--config", required=True, help="path to the JSON config file")
    parser.add_argument("--jobs", type=int, default=None, help="worker cap for parallel stages")
    parser.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a pipeline parameter (repeatable)",
    )
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; that code means "data error" here.
        return 0 if exc.code == 0 else 1
    try:
        cfg = load_config(args.config, overrides=args.param, jobs=args.jobs)
        run(args.stage, cfg)
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
