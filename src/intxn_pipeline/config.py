"""Pipeline configuration: JSON file, defaults, and CLI overrides.

A config file is a JSON object; every key is optional and defaults to the
conventional workspace layout below, so ``{}`` is a valid config when the
inputs follow the conventions (which the synthetic generator does).
Parameter defaults are the pipeline's published operating points:
DBSCAN 100 ft / 2 features, windows 300 ft up / 200 ft down, overlay
150 ft on / 50 ft off.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .geo import GeoPoint
from .storage import resolve_uri
from .synth import ScenarioSpec

PARAM_DEFAULTS: dict[str, float | int] = {
    "tol_ft": 1.0,  # vertex-coincidence tolerance for network candidates
    "max_gap_s": 2.0,  # run split gap for last-in-run detection filtering
    "eps_ft": 100.0,  # DBSCAN search distance
    "min_pts": 2,  # DBSCAN minimum features per cluster
    "max_match_ft": 200.0,  # cluster-center to candidate gate
    "join_tol_s": 0.5,  # detection-to-sensor timestamp join tolerance
    "heading_tol_deg": 45.0,  # entering-heading gate
    "upstream_ft": 300.0,
    "downstream_ft": 200.0,
    "overlay_on_upstream_ft": 150.0,
    "overlay_off_downstream_ft": 50.0,
    "pass_gap_s": 30.0,  # repeat-pass episode split
    "polygon_match_ft": 500.0,  # reviewed polygon to intersection gate
    "line_edge_match_ft": 100.0,  # reviewed line to polygon-edge gate
}

DEFAULT_INPUTS = {
    "sensor_files": ["sensor/*.csv"],
    "cv_files": ["cv/*.csv"],
    "network": "network.geojson",
    "videos": "videos.csv",
    "demographics": "demographics.csv",
    "reviewed_kml": "reviewed.kml",
}

DEFAULT_OUTPUTS = {
    "clean_sensor": "out/clean_sensor.csv",
    "clean_cv": "out/clean_cv.csv",
    "lrs_candidates": "out/lrs_candidates.geojson",
    "visited_candidates": "out/visited_candidates.geojson",
    "candidates_kml": "out/candidates.kml",
    "reviewed_json": "out/reviewed.json",
    "trajectories": "out/trajectories.csv",
    "cutlist": "out/cutlist.json",
    "cutlist_script": "out/cutlist.sh",
    "review_template": "out/review_template.csv",
    "validation_manifest": "out/review_template.validation.json",
}


@dataclass
class PipelineConfig:
    workspace: Path
    inputs: dict[str, object] = field(default_factory=dict)
    outputs: dict[str, Path] = field(default_factory=dict)
    params: dict[str, float | int] = field(default_factory=dict)
    processor: str = "ffmpeg"
    custom_fields: dict[str, list[str]] = field(default_factory=dict)
    video_base_url: str = ""
    synth: ScenarioSpec = field(default_factory=ScenarioSpec)

    def input_path(self, key: str) -> Path:
        value = self.inputs[key]
        return self.workspace / str(value)

    def input_globs(self, key: str) -> list[str]:
        value = self.inputs[key]
        if isinstance(value, str):
            value = [value]
        return [str(self.workspace / str(v)) for v in value]

    def output_path(self, key: str) -> Path:
        return self.outputs[key]


def _coerce_param(key: str, raw: object) -> float | int:
    default = PARAM_DEFAULTS[key]
    if isinstance(raw, bool):
        raise ConfigError(f"parameter {key!r} must be numeric, got {raw!r}")
    try:
        value: float | int = float(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"parameter {key!r} must be numeric, got {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"parameter {key!r} must be finite, got {raw!r}")
    if isinstance(default, int):
        if value != int(value):
            raise ConfigError(f"parameter {key!r} must be an integer, got {raw!r}")
        value = int(value)
    if value <= 0:
        raise ConfigError(f"parameter {key!r} must be positive, got {value!r}")
    if key == "heading_tol_deg" and value >= 90:
        raise ConfigError(f"parameter {key!r} must be below 90, got {value!r}")
    return value


def load_config(path: str | Path, overrides: list[str] | None = None) -> PipelineConfig:
    """Load a JSON config; ``--param key=value`` overrides beat file values."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        with resolve_uri(path, "r") as handle:
            doc = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")

    known_keys = {
        "workspace",
        "inputs",
        "outputs",
        "params",
        "processor",
        "custom_fields",
        "video_base_url",
        "synth",
    }
    unknown = sorted(set(doc) - known_keys)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")

    for key in ("inputs", "outputs", "params", "synth"):
        if not isinstance(doc.get(key, {}), dict):
            raise ConfigError(f"config key {key!r} must be a JSON object, got {doc[key]!r}")

    workspace = (path.parent / doc.get("workspace", ".")).resolve()

    inputs = dict(DEFAULT_INPUTS)
    inputs.update(doc.get("inputs", {}))
    unknown = sorted(set(inputs) - set(DEFAULT_INPUTS))
    if unknown:
        raise ConfigError(f"unknown input keys: {', '.join(unknown)}")

    out_cfg = dict(DEFAULT_OUTPUTS)
    out_cfg.update(doc.get("outputs", {}))
    unknown = sorted(set(out_cfg) - set(DEFAULT_OUTPUTS))
    if unknown:
        raise ConfigError(f"unknown output keys: {', '.join(unknown)}")
    outputs = {key: workspace / str(value) for key, value in out_cfg.items()}

    params = dict(PARAM_DEFAULTS)
    for key, value in doc.get("params", {}).items():
        if key not in PARAM_DEFAULTS:
            raise ConfigError(f"unknown parameter {key!r}")
        params[key] = _coerce_param(key, value)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--param expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        if key not in PARAM_DEFAULTS:
            raise ConfigError(f"unknown parameter {key!r}")
        params[key] = _coerce_param(key, value)

    custom_fields = doc.get("custom_fields", {})
    if not isinstance(custom_fields, dict) or not all(
        isinstance(v, list) and all(isinstance(x, str) for x in v)
        for v in custom_fields.values()
    ):
        raise ConfigError("custom_fields must map column names to lists of strings")

    synth_doc = dict(doc.get("synth", {}))
    if "origin" in synth_doc:
        try:
            lat, lon = synth_doc["origin"]
            synth_doc["origin"] = GeoPoint(float(lat), float(lon))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"synth origin must be a [lat, lon] pair: {exc}") from exc
    try:
        synth = ScenarioSpec(**synth_doc)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid synth spec: {exc}") from exc

    return PipelineConfig(
        workspace=workspace,
        inputs=inputs,
        outputs=outputs,
        params=params,
        processor=str(doc.get("processor", "ffmpeg")),
        custom_fields={k: list(v) for k, v in custom_fields.items()},
        video_base_url=str(doc.get("video_base_url", "")),
        synth=synth,
    )
