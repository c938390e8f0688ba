"""Command-line pipeline driver.

Usage::

    intxn-pipeline <stage> --config <path> [--param key=value ...]

Every stage runs in one thread; ``--jobs N`` is accepted and ignored.

Stages run independently so a growing study can rerun any of them as new
data lands; outputs are written atomically and a JSON report lands beside
each output. ``all`` runs the whole chain and pauses before
``import-review`` when the human-reviewed KML does not exist yet.

One process that runs several stages (``all``, or one ``main`` call per
stage) parses none of the clean tables, candidate lists, reviewed
intersections, trajectories and cut-list that it wrote or parsed before:
each is kept with the sha256 of its file's bytes, and a stage that reads
one hashes the file and parses it only when the digest differs, so a
changed file is always parsed again. ``template`` needs no clean sensor
table: the trajectory table holds its windows' times.

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
from .storage import Store, read_json, write_json

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
# the candidate lists, the reviewed intersections, the trajectories and the
# cut-list, each written by ``put``.
_store = Store()


def _candidates(key: str, path: Path, props: dict, what: str) -> discovery.Candidates:
    """The candidate list of ``key`` at ``path``, its features carrying ``props``."""
    build = partial(discovery.candidates_from_geojson, props=props)
    return _store.load(key, path, partial(read_json, build=build, what=what))


def _expand_files(cfg: PipelineConfig, key: str, what: str) -> list[str]:
    """The files the patterns of ``key`` name, each once, in first-seen order."""
    files: dict[Path, str] = {}  # resolved path -> the name it was first found by
    patterns = cfg.inputs[key]
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
        path = cfg.outputs[key]
    elif isinstance(DEFAULT_INPUTS[key], list):  # a file set: the body gets its file list
        return _expand_files(cfg, key, what)
    else:
        path = cfg.inputs[key]
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
    detections, cv_drops, cv_in = ingest.clean_cv(cv_files, sensor, cfg.params["join_tol_s"])

    reports = []
    for key, write, rows, drops, rows_in, inputs in (
        ("clean_sensor", ingest.write_sensor_csv, sensor, sensor_drops, sensor_in, sensor_files),
        ("clean_cv", ingest.write_detections_csv, detections, cv_drops, cv_in, cv_files),
    ):
        out = cfg.outputs[key]
        _store.put(key, out, partial(write, rows))
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
    out = cfg.outputs["lrs_candidates"]
    geojson = discovery.candidates_to_geojson(candidates)
    _store.put("lrs_candidates", out, partial(write_json, geojson), candidates)
    report = {
        "polylines": len(network.line_id),
        "vertices": len(network.lat),
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
    candidates = _candidates(
        "lrs_candidates", cand_path, discovery.LRS_PROPS, "candidate GeoJSON"
    )
    if not candidates:
        raise DataError(f"candidate list is empty: {cand_path}")

    last = discovery.last_in_runs(detections, max_gap_s=cfg.params["max_gap_s"])
    lat, lon = discovery.cluster_detections(
        last, eps_ft=cfg.params["eps_ft"], min_pts=int(cfg.params["min_pts"])
    )
    visited, unmatched = discovery.match_clusters(
        lat, lon, candidates, max_match_ft=cfg.params["max_match_ft"]
    )
    out = cfg.outputs["visited_candidates"]
    geojson = discovery.candidates_to_geojson(visited)
    _store.put("visited_candidates", out, partial(write_json, geojson), visited)
    report = {
        "detections": len(detections),
        "last_in_runs": len(last),
        "clusters": len(lat),
        "visited": len(visited),
        "unmatched": unmatched,
    }
    summary = f"subj-intxns: {len(visited)} visited candidates, {len(unmatched)} unmatched clusters"
    return summary, [(out, report)]


@_stage("export-kml", ("visited_candidates", "visited candidate list", "subj-intxns"))
def stage_export_kml(cfg: PipelineConfig, visited_path: Path) -> StageResult:
    visited = _candidates(
        "visited_candidates", visited_path, discovery.VISITED_PROPS, "visited candidate GeoJSON"
    )
    if not visited:
        raise DataError(f"no visited candidates to export: {visited_path}")
    out = cfg.outputs["candidates_kml"]
    review.export_candidates_kml(visited, out)
    summary = f"export-kml: {len(visited)} candidates written to {out}"
    return summary, [(out, {"candidates": len(visited)})]


@_stage("import-review", ("reviewed_kml", "human-reviewed KML", None))
def stage_import_review(cfg: PipelineConfig, kml_path: Path) -> StageResult:
    feats = review.parse_kml_features(kml_path)
    reviewed, rejects = review.import_reviewed_kml(
        feats,
        polygon_match_ft=cfg.params["polygon_match_ft"],
        line_edge_match_ft=cfg.params["line_edge_match_ft"],
    )
    out = cfg.outputs["reviewed_json"]
    _store.put("reviewed", out, partial(review.save_reviewed_json, reviewed), reviewed)
    report = {
        "placemarks": dict(
            points=len(feats.true_points()), polygons=len(feats.polygons), lines=len(feats.lines)
        ),
        "intersections": len(reviewed),
        "approaches": len(reviewed.leg_id),
        "rejects": rejects,
    }
    summary = f"import-review: {len(reviewed)} true intersections, {len(rejects)} rejects"
    return summary, [(out, report)]


@_stage(
    "traj",
    ("reviewed_json", "reviewed intersections", "import-review"),
    ("clean_sensor", "clean sensor table", "clean"),
)
def stage_traj(cfg: PipelineConfig, reviewed_path: Path, sensor_path: Path) -> StageResult:
    reviewed = _store.load("reviewed", reviewed_path, review.load_reviewed_json)
    sensor = _store.load("clean_sensor", sensor_path, ingest.read_clean_sensor)
    params = trajectory.WindowParams(
        upstream_ft=cfg.params["upstream_ft"],
        downstream_ft=cfg.params["downstream_ft"],
        heading_tol_deg=cfg.params["heading_tol_deg"],
        pass_gap_s=cfg.params["pass_gap_s"],
    )
    trajs, skip_report = trajectory.extract_trajectories(sensor, reviewed, params)
    out = cfg.outputs["trajectories"]
    write = partial(trajectory.write_trajectories_csv, trajs, sensor)
    _store.put("trajectories", out, write, trajs)
    summary = f"traj: {len(trajs)} entering trajectories, skips {skip_report}"
    visits = len(trajs) + skip_report["duplicate_pass"]
    return summary, [(out, {"visits": visits, "trajectories": len(trajs), "skips": skip_report})]


@_stage(
    "clips",
    ("trajectories", "trajectory table", "traj"),
    ("clean_sensor", "clean sensor table", "clean"),
    ("videos", "video metadata CSV", None),
)
def stage_clips(
    cfg: PipelineConfig, traj_path: Path, sensor_path: Path, videos_path: Path
) -> StageResult:
    trajs = _store.load("trajectories", traj_path, trajectory.load_trajectories_csv)
    sensor = _store.load("clean_sensor", sensor_path, ingest.read_clean_sensor)
    videos = clips_mod.read_videos_csv(videos_path)
    overlay = clips_mod.OverlayParams(
        on_upstream_ft=cfg.params["overlay_on_upstream_ft"],
        off_downstream_ft=cfg.params["overlay_off_downstream_ft"],
    )
    cut, report = clips_mod.build_clip_specs(trajs, sensor, videos, overlay)
    out = cfg.outputs["cutlist"]
    script = cfg.outputs["cutlist_script"]
    _store.put("cutlist", out, lambda f: clips_mod.emit_cutlist(cut, f, script, cfg.processor), cut)
    summary = f"clips: {len(cut)} clip specs, {len(report['unclippable'])} unclippable"
    return summary, [(out, {"trajectories": len(trajs), "clips": len(cut), **report})]


@_stage(
    "template",
    ("trajectories", "trajectory table", "traj"),
    ("cutlist", "cut-list JSON", "clips"),
    ("demographics", "demographics CSV", None),
)
def stage_template(
    cfg: PipelineConfig, traj_path: Path, cutlist_path: Path, demo_path: Path
) -> StageResult:
    trajs = _store.load("trajectories", traj_path, trajectory.load_trajectories_csv)
    cut = _store.load("cutlist", cutlist_path, clips_mod.parse_cutlist)
    participants = review.read_demographics(demo_path)
    columns, manifest, warnings = review.build_review_template(
        trajs,
        cut,
        participants,
        custom_fields=cfg.custom_fields,
        video_base_url=cfg.video_base_url,
    )
    out = cfg.outputs["review_template"]
    review.write_review_csv(columns, list(cfg.custom_fields), out)
    manifest_out = cfg.outputs["validation_manifest"]
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
    kml_path = cfg.inputs["reviewed_kml"]
    if not kml_path.exists():
        pause = (
            f"all: paused before import-review. Review {cfg.outputs['candidates_kml']} "
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
