"""Command-line pipeline driver.

Usage::

    intxn-pipeline <stage> --config <path> [--param key=value ...]

Every stage runs in one thread; ``--jobs N`` is accepted and ignored.

Stages run independently so a growing study can rerun any of them as new
data lands; outputs are written atomically and a JSON report lands beside
each output. ``all`` runs the whole chain and pauses before
``import-review`` when the human-reviewed KML does not exist yet.

One process that runs several stages (``all``, or one ``main`` call per
stage) parses none of the clean tables, trajectories and cut-list that it
wrote or parsed before: each is kept with the sha256 of its file's bytes,
and a stage that reads one hashes the file and parses it only when the
digest differs, so a changed file is always parsed again.

Exit codes: 0 success, 1 user error, 2 data error.
"""

from __future__ import annotations

import argparse
import glob
import sys
import time
from collections.abc import Callable
from functools import partial
from pathlib import Path

from . import clips as clips_mod
from . import discovery, ingest, review, synth, trajectory
from .config import DEFAULT_INPUTS, PipelineConfig, load_config
from .errors import DataError, MissingPrerequisiteError, PipelineError
from .storage import Store, write_json

# Stage order for `all`, with the review pause between export-kml and
# import-review.
PRE_REVIEW_STAGES = ("clean", "lrs-intxns", "subj-intxns", "export-kml")
POST_REVIEW_STAGES = ("import-review", "traj", "clips", "template")

# A stage body's summary line and its (output, report fields) pairs.
StageResult = tuple[str, list[tuple[Path, dict]]]

# Every stage by name, in CLI order: its prerequisites and its body. A
# prerequisite is (path key, what, producing stage); one with a producer is
# that stage's output, one without is a study input. The runner checks each
# and passes its path to the body, in declaration order.
_STAGES: dict[str, tuple[tuple[tuple[str, str, str | None], ...], Callable]] = {}


def _stage(name: str, *prerequisites: tuple[str, str, str | None]):
    """Register the decorated stage body under ``name``."""

    def register(body: Callable[..., StageResult]) -> Callable[..., StageResult]:
        _STAGES[name] = (prerequisites, body)
        return body

    return register


def _require(path: Path, what: str, produced_by: str | None = None) -> None:
    if not path.exists():
        hint = f" (produced by `intxn-pipeline {produced_by}`)" if produced_by else ""
        raise MissingPrerequisiteError(f"missing {what}: {path}{hint}")


# The stage outputs this process wrote or parsed last: the clean tables,
# the trajectories and the cut-list. The trajectories' digest adds the clean
# sensor table's, from which their reader cuts their windows.
_store = Store()


def _trajectories(traj_path: Path, sensor_path: Path) -> list:
    """The trajectories at ``traj_path``, cut from the table at ``sensor_path``."""
    sensor = _store.load("clean_sensor", sensor_path, ingest.read_clean_sensor)
    read = partial(trajectory.load_trajectories_csv, sensor=sensor)
    return _store.load("trajectories", traj_path, read, _store["clean_sensor"][0])


def _expand_files(cfg: PipelineConfig, key: str, what: str) -> list[str]:
    """The files the patterns of ``key`` name, each once, in first-seen order."""
    files: dict[Path, str] = {}  # resolved path -> the name it was first found by
    patterns = cfg.input_globs(key)
    for pattern in patterns:
        found = sorted(glob.glob(pattern)) if any(ch in pattern for ch in "*?[") else [pattern]
        for f in found:
            files.setdefault(Path(f).resolve(), f)
    if not files:
        raise MissingPrerequisiteError(f"no files match {key} patterns: {', '.join(patterns)}")
    for f in files.values():
        _require(Path(f), what)
    return list(files.values())


def _prerequisite(cfg: PipelineConfig, key: str, what: str, produced_by: str | None):
    if produced_by:
        path = cfg.output_path(key)
    elif isinstance(DEFAULT_INPUTS[key], list):  # a file set: the body gets its file list
        return _expand_files(cfg, key, what)
    else:
        path = cfg.input_path(key)
    _require(path, what, produced_by)
    return path


def _run_stage(name: str, cfg: PipelineConfig) -> str:
    """Check, run, time and report one stage; prints and returns its summary.

    The clock stops once the body has written all of the stage's outputs,
    so every report of one stage carries the same ``wall_time_s``.
    """
    prerequisites, body = _STAGES[name]
    t0 = time.perf_counter()
    summary, reports = body(cfg, *[_prerequisite(cfg, *p) for p in prerequisites])
    wall = time.perf_counter() - t0
    for output, fields in reports:
        write_json(
            {"stage": name, **fields, "wall_time_s": wall}, Path(str(output) + ".report.json")
        )
    print(summary)
    return summary


@_stage(
    "clean",
    ("sensor_files", "sensor_files input", None),
    ("cv_files", "cv_files input", None),
)
def stage_clean(cfg: PipelineConfig, sensor_files: list[str], cv_files: list[str]) -> StageResult:
    sensor, sensor_drops, sensor_in = ingest.clean_sensor(sensor_files)
    detections, cv_drops, cv_in = ingest.clean_cv(
        cv_files, sensor, join_tol_s=cfg.params["join_tol_s"]
    )

    reports = []
    for key, write, rows, drops, rows_in, inputs in (
        ("clean_sensor", ingest.write_sensor_csv, sensor, sensor_drops, sensor_in, sensor_files),
        ("clean_cv", ingest.write_detections_csv, detections, cv_drops, cv_in, cv_files),
    ):
        out = cfg.output_path(key)
        _store.put(key, out, write(rows, out))
        write_json(drops, Path(str(out) + ".drops.json"))
        report = {"rows_in": rows_in, "rows_out": len(rows), "drops": drops, "inputs": inputs}
        reports.append((out, report))
    summary = (
        f"clean: {len(sensor)} sensor rows ({sum(sensor_drops.values())} dropped), "
        f"{len(detections)} detections ({sum(cv_drops.values())} dropped)"
    )
    return summary, reports


@_stage("lrs-intxns", ("network", "road network GeoJSON", None))
def stage_lrs_intxns(cfg: PipelineConfig, network_path: Path) -> StageResult:
    network = discovery.load_network_geojson(network_path)
    candidates = discovery.extract_lrs_candidates(network, tol_ft=cfg.params["tol_ft"])
    out = cfg.output_path("lrs_candidates")
    write_json(discovery.candidates_to_geojson(candidates), out)
    report = {
        "polylines": len(network.polylines),
        "vertices": sum(len(pts) for _, pts in network.polylines),
        "candidates": len(candidates),
    }
    return f"lrs-intxns: {len(candidates)} intersection candidates", [(out, report)]


@_stage(
    "subj-intxns",
    ("clean_cv", "clean detection table", "clean"),
    ("lrs_candidates", "intersection candidate list", "lrs-intxns"),
)
def stage_subj_intxns(cfg: PipelineConfig, cv_path: Path, cand_path: Path) -> StageResult:
    detections = _store.load("clean_cv", cv_path, ingest.read_clean_detections)
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
    write_json(discovery.visited_to_geojson(visited), out)
    report = {
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
    }
    summary = f"subj-intxns: {len(visited)} visited candidates, {len(unmatched)} unmatched clusters"
    return summary, [(out, report)]


@_stage("export-kml", ("visited_candidates", "visited candidate list", "subj-intxns"))
def stage_export_kml(cfg: PipelineConfig, visited_path: Path) -> StageResult:
    visited = discovery.visited_from_geojson(discovery.load_geojson(visited_path))
    if not visited:
        raise DataError(f"no visited candidates to export: {visited_path}")
    out = cfg.output_path("candidates_kml")
    review.export_candidates_kml(visited, out)
    summary = f"export-kml: {len(visited)} candidates written to {out}"
    return summary, [(out, {"candidates": len(visited)})]


@_stage("import-review", ("reviewed_kml", "human-reviewed KML", None))
def stage_import_review(cfg: PipelineConfig, kml_path: Path) -> StageResult:
    reviewed, rejects = review.import_reviewed_kml(
        kml_path,
        polygon_match_ft=cfg.params["polygon_match_ft"],
        line_edge_match_ft=cfg.params["line_edge_match_ft"],
    )
    out = cfg.output_path("reviewed_json")
    review.save_reviewed_json(reviewed, out)
    report = {
        "intersections": len(reviewed),
        "approaches": sum(len(r.approaches) for r in reviewed),
        "rejects": [{"kind": r.kind, "name": r.name, "reason": r.reason} for r in rejects],
    }
    summary = f"import-review: {len(reviewed)} true intersections, {len(rejects)} rejects"
    return summary, [(out, report)]


@_stage(
    "traj",
    ("reviewed_json", "reviewed intersections", "import-review"),
    ("clean_sensor", "clean sensor table", "clean"),
)
def stage_traj(cfg: PipelineConfig, reviewed_path: Path, sensor_path: Path) -> StageResult:
    reviewed = trajectory.assign_bearings(review.load_reviewed_json(reviewed_path))
    sensor = _store.load("clean_sensor", sensor_path, ingest.read_clean_sensor)
    params = trajectory.WindowParams(
        upstream_ft=cfg.params["upstream_ft"],
        downstream_ft=cfg.params["downstream_ft"],
        heading_tol_deg=cfg.params["heading_tol_deg"],
        pass_gap_s=cfg.params["pass_gap_s"],
    )
    trajs, skip_report = trajectory.extract_trajectories(sensor, reviewed, params)
    out = cfg.output_path("trajectories")
    trajectory.write_trajectories_csv(trajs, out)
    _store.put("trajectories", out, trajs, _store["clean_sensor"][0])
    summary = f"traj: {len(trajs)} entering trajectories, skips {skip_report}"
    return summary, [(out, {"trajectories": len(trajs), "skips": skip_report})]


@_stage(
    "clips",
    ("trajectories", "trajectory table", "traj"),
    ("clean_sensor", "clean sensor table", "clean"),
    ("videos", "video metadata CSV", None),
)
def stage_clips(
    cfg: PipelineConfig, traj_path: Path, sensor_path: Path, videos_path: Path
) -> StageResult:
    trajs = _trajectories(traj_path, sensor_path)
    videos = clips_mod.read_videos_csv(videos_path)
    overlay = clips_mod.OverlayParams(
        on_upstream_ft=cfg.params["overlay_on_upstream_ft"],
        off_downstream_ft=cfg.params["overlay_off_downstream_ft"],
    )
    specs, report = clips_mod.build_clip_specs(trajs, videos, overlay)
    out = cfg.output_path("cutlist")
    script_out = cfg.output_path("cutlist_script")
    written = clips_mod.emit_cutlist(specs, out, script_out, processor=cfg.processor)
    _store.put("cutlist", out, written)
    summary = f"clips: {len(specs)} clip specs, {len(report['unclippable'])} unclippable"
    return summary, [(out, {"trajectories": len(trajs), "clips": len(specs), **report})]


@_stage(
    "template",
    ("trajectories", "trajectory table", "traj"),
    ("clean_sensor", "clean sensor table", "clean"),
    ("cutlist", "cut-list JSON", "clips"),
    ("demographics", "demographics CSV", None),
)
def stage_template(
    cfg: PipelineConfig, traj_path: Path, sensor_path: Path, cutlist_path: Path, demo_path: Path
) -> StageResult:
    trajs = _trajectories(traj_path, sensor_path)
    specs = _store.load("cutlist", cutlist_path, clips_mod.parse_cutlist)
    participants = review.read_demographics(demo_path)
    columns, manifest, warnings = review.build_review_template(
        trajs,
        specs,
        participants,
        custom_fields=cfg.custom_fields,
        video_base_url=cfg.video_base_url,
    )
    out = cfg.output_path("review_template")
    review.write_review_csv(columns, list(cfg.custom_fields), out)
    manifest_out = cfg.output_path("validation_manifest")
    write_json(manifest, manifest_out)
    report = {"rows": len(trajs), "custom_fields": list(cfg.custom_fields), "warnings": warnings}
    return f"template: {len(trajs)} review rows", [(out, report)]


@_stage("synth")
def stage_synth(cfg: PipelineConfig) -> StageResult:
    scenario = synth.generate(cfg.synth, cfg.workspace)
    truth = scenario.ground_truth
    report = {
        "junctions": len(truth.junctions),
        "candidates": len(truth.candidates),
        "visited": len(truth.visited_ids),
        "trajectories": len(truth.trajectories),
    }
    summary = (
        f"synth: wrote scenario to {cfg.workspace} "
        f"({len(truth.candidates)} candidates, "
        f"{len(truth.trajectories)} expected trajectories)"
    )
    return summary, [(scenario.paths["ground_truth"], report)]


STAGES = (*_STAGES, "all")


def run(stage: str, cfg: PipelineConfig) -> list[str]:
    """Run one stage (or `all`); returns the printed summary lines."""
    if stage != "all":
        return [_run_stage(stage, cfg)]

    lines = [_run_stage(name, cfg) for name in PRE_REVIEW_STAGES]
    kml_path = cfg.input_path("reviewed_kml")
    if not kml_path.exists():
        pause = (
            f"all: paused before import-review. Review {cfg.output_path('candidates_kml')} "
            f"in an earth viewer, save the reviewed file as {kml_path}, and rerun "
            "`intxn-pipeline all`."
        )
        print(pause)
        return lines + [pause]
    return lines + [_run_stage(name, cfg) for name in POST_REVIEW_STAGES]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="intxn-pipeline",
        description="Batch pipeline for intersection discovery, trajectory windows, "
        "video cut-lists, and review templates from naturalistic driving data.",
    )
    parser.add_argument("stage", choices=STAGES, help="pipeline stage to run")
    parser.add_argument("--config", required=True, help="path to the JSON config file")
    parser.add_argument("--jobs", type=int, default=None, help="accepted and ignored")
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
        cfg = load_config(args.config, overrides=args.param)
        run(args.stage, cfg)
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
