"""Per-trajectory video cut-lists with reviewer-alert overlay timings.

Each trajectory is matched to the dashcam file covering its time span and
turned into cut instructions: seek offset, duration, and the interval in
which an external video processor should draw a red box alerting the
reviewer to the upcoming intersection (on 150 ft before the stop bar, off
50 ft after it, by default). Rendering itself is delegated: this module
only emits a JSON cut-list and a command script, so no media tooling is
needed at test time.
"""

from __future__ import annotations

import csv
import json
import shlex
from bisect import bisect_left
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import IO

from .errors import DataError, NoCoveringVideoError
from .ingest import SensorTable, from_us, parse_time_utc
from .storage import resolve_uri
from .trajectory import TrajectoryCandidate

VIDEO_COLUMNS = ("uri", "subj", "drive", "start_time_utc", "end_time_utc", "fps")

# Red square centered at 50% of frame width / 30% of frame height, sized
# to 10% of frame width.
OVERLAY_BOX_EXPR = "x=0.45*iw:y=0.3*ih-0.05*iw:w=0.1*iw:h=0.1*iw:color=red:t=fill"


@dataclass
class VideoFile:
    uri: str
    subj: str
    drive: int
    start_time_utc: datetime
    end_time_utc: datetime
    fps: float

    def __post_init__(self) -> None:
        if self.end_time_utc <= self.start_time_utc:
            raise ValueError(f"video {self.uri}: end time not after start time")
        if self.fps <= 0:
            raise ValueError(f"video {self.uri}: fps must be positive")


@dataclass
class OverlayParams:
    on_upstream_ft: float = 150.0
    off_downstream_ft: float = 50.0

    def __post_init__(self) -> None:
        if self.on_upstream_ft < 0 or self.off_downstream_ft < 0:
            raise ValueError("overlay distances must be nonnegative")


@dataclass(frozen=True)
class ClipSpec:
    traj_id: str
    source_uri: str
    in_offset_s: float
    duration_s: float
    overlay_on_s: float
    overlay_off_s: float
    output_name: str

    def __post_init__(self) -> None:
        if self.in_offset_s < 0 or self.duration_s <= 0:
            raise ValueError(f"clip {self.traj_id}: bad offset/duration")
        if not 0 <= self.overlay_on_s <= self.overlay_off_s <= self.duration_s + 1e-9:
            raise ValueError(f"clip {self.traj_id}: overlay interval outside clip")


def _written(seconds: float) -> float:
    """A time as the cut-list holds it, to the millisecond. A span between
    two datetimes has at most 15 significant digits at that precision, so
    the rounded time prints to the same three decimals."""
    return float(f"{seconds:.3f}")


def read_videos_csv(source: str | Path | IO) -> list[VideoFile]:
    with resolve_uri(source, "r") as handle:
        reader = csv.DictReader(handle)
        have = set(reader.fieldnames or ())
        missing = [c for c in VIDEO_COLUMNS if c not in have]
        if missing:
            raise DataError(f"video table missing columns: {', '.join(missing)}")
        out = []
        for row in reader:
            try:
                out.append(
                    VideoFile(
                        row["uri"].strip(),
                        row["subj"].strip(),
                        int(row["drive"]),
                        parse_time_utc(row["start_time_utc"]),
                        parse_time_utc(row["end_time_utc"]),
                        float(row["fps"]),
                    )
                )
            except (TypeError, ValueError) as exc:
                raise DataError(f"bad video metadata row: {row!r}") from exc
        return out


def match_video(
    traj: TrajectoryCandidate, videos: list[VideoFile]
) -> tuple[VideoFile, str | None]:
    """Pick the video whose time span covers the trajectory.

    ``videos`` must already be filtered to the trajectory's (subj, drive).
    If no file contains the whole span but one contains the reference time,
    that file is returned with a ``spans_files`` warning. Raises
    NoCoveringVideoError when not even the reference time is covered.
    """
    containing = [
        v
        for v in videos
        if v.start_time_utc <= traj.start_time_utc and traj.end_time_utc <= v.end_time_utc
    ]
    if containing:
        return min(containing, key=lambda v: (v.start_time_utc, v.uri)), None
    at_ref = [
        v for v in videos if v.start_time_utc <= traj.ref_time_utc <= v.end_time_utc
    ]
    if at_ref:
        return min(at_ref, key=lambda v: (v.start_time_utc, v.uri)), "spans_files"
    raise NoCoveringVideoError(f"no video covers trajectory {traj.traj_id}")


def distance_crossing_time(points: SensorTable, target_cum_dist_ft: float) -> datetime:
    """Time at which the drive's odometer first reaches a target value.

    Piecewise-linear interpolation of time against cumulative distance; a
    target landing on a sample returns that sample's timestamp, and a target
    inside a zero-motion stretch resolves to the stretch's earliest time.
    """
    cums = points.cum.tolist()
    if not cums or not cums[0] <= target_cum_dist_ft <= cums[-1]:
        raise ValueError(f"target {target_cum_dist_ft} outside window cumulative range")
    i = bisect_left(cums, target_cum_dist_ft)
    if cums[i] == target_cum_dist_ft:
        return from_us(points.t_us[i])
    c0, c1 = cums[i - 1], cums[i]
    # Exactly datetime.timestamp(): a correctly rounded int division.
    t0 = int(points.t_us[i - 1]) / 1_000_000
    t1 = int(points.t_us[i]) / 1_000_000
    frac = (target_cum_dist_ft - c0) / (c1 - c0)
    return datetime.fromtimestamp(t0 + frac * (t1 - t0), tz=timezone.utc)


def _overlay_time(
    traj: TrajectoryCandidate, target: float, clip_start: datetime, clip_end: datetime
) -> datetime:
    cums = traj.points.cum
    if target < cums[0]:
        return clip_start
    if target > cums[-1]:
        return clip_end
    return distance_crossing_time(traj.points, target)


def build_clip_specs(
    trajs: list[TrajectoryCandidate],
    videos: list[VideoFile],
    overlay: OverlayParams | None = None,
) -> tuple[list[ClipSpec], dict[str, list]]:
    """Build one ClipSpec per clippable trajectory plus a problem report.

    The report maps ``unclippable`` to (traj_id, reason) entries and
    ``warnings`` to (traj_id, warning) entries. When a trajectory straddles
    two files the clip covers the overlap of the trajectory with the file
    holding the reference time, and overlay times are clamped into it.
    Times are rounded to the millisecond, as the cut-list holds them.
    """
    overlay = overlay or OverlayParams()
    by_drive: dict[tuple[str, int], list[VideoFile]] = {}
    for v in videos:
        by_drive.setdefault((v.subj, v.drive), []).append(v)

    specs: list[ClipSpec] = []
    report: dict[str, list] = {"unclippable": [], "warnings": []}
    for traj in sorted(trajs, key=lambda t: (t.subj, t.drive, t.intxn_id)):
        candidates = by_drive.get((traj.subj, traj.drive), [])
        try:
            video, warning = match_video(traj, candidates)
        except NoCoveringVideoError:
            report["unclippable"].append({"traj_id": traj.traj_id, "reason": "no_covering_video"})
            continue
        if warning:
            report["warnings"].append({"traj_id": traj.traj_id, "warning": warning})
        clip_start = max(traj.start_time_utc, video.start_time_utc)
        clip_end = min(traj.end_time_utc, video.end_time_utc)
        duration = (clip_end - clip_start).total_seconds()
        if _written(duration) <= 0:  # the cut-list could not hold it
            report["unclippable"].append({"traj_id": traj.traj_id, "reason": "empty_overlap"})
            continue
        ref_cum = traj.ref_cum_dist_ft
        t_on = _overlay_time(traj, ref_cum - overlay.on_upstream_ft, clip_start, clip_end)
        t_off = _overlay_time(traj, ref_cum + overlay.off_downstream_ft, clip_start, clip_end)
        on_s = min(max((t_on - clip_start).total_seconds(), 0.0), duration)
        off_s = min(max((t_off - clip_start).total_seconds(), on_s), duration)
        specs.append(
            ClipSpec(
                traj_id=traj.traj_id,
                source_uri=video.uri,
                in_offset_s=_written((clip_start - video.start_time_utc).total_seconds()),
                duration_s=_written(duration),
                overlay_on_s=_written(on_s),
                overlay_off_s=_written(off_s),
                output_name=f"{traj.traj_id}.mp4",
            )
        )
    return specs, report


def _clip_json_line(spec: ClipSpec) -> str:
    return (
        "  {"
        f'"traj_id": {json.dumps(spec.traj_id)}, '
        f'"source_uri": {json.dumps(spec.source_uri)}, '
        f'"in_offset_s": {spec.in_offset_s:.3f}, '
        f'"duration_s": {spec.duration_s:.3f}, '
        f'"overlay_on_s": {spec.overlay_on_s:.3f}, '
        f'"overlay_off_s": {spec.overlay_off_s:.3f}, '
        f'"output_name": {json.dumps(spec.output_name)}'
        "}"
    )


def clip_command(spec: ClipSpec, processor: str = "ffmpeg", box_expr: str = OVERLAY_BOX_EXPR) -> str:
    """One external-processor invocation cutting and overlaying one clip."""
    drawbox = (
        f"drawbox={box_expr}:enable='between(t,{spec.overlay_on_s:.3f},{spec.overlay_off_s:.3f})'"
    )
    return (
        f"{processor} -y -ss {spec.in_offset_s:.3f} -t {spec.duration_s:.3f} "
        f"-i {shlex.quote(spec.source_uri)} -vf {shlex.quote(drawbox)} "
        f"{shlex.quote(spec.output_name)}"
    )


def emit_cutlist(
    specs: list[ClipSpec],
    json_dest: str | Path | IO,
    script_dest: str | Path | IO | None = None,
    processor: str = "ffmpeg",
) -> None:
    """Write the JSON cut-list and the matching command script.

    The script is advisory: nothing in the pipeline runs the processor, so
    clips can be rendered later, elsewhere, or not at all (dry runs).
    Numbers are serialized with exactly three decimals. Given paths, the
    script is written inside the cut-list's ``with``, so a failure while
    writing either leaves neither file behind. Returns the specs in
    traj_id order, which for specs of ``build_clip_specs`` is what
    ``parse_cutlist`` reads back.
    """
    ordered = sorted(specs, key=lambda s: s.traj_id)
    names = [s.output_name for s in ordered]
    if len(set(names)) != len(names):
        raise ValueError("duplicate output names in cut-list")
    if ordered:
        body = "[\n" + ",\n".join(_clip_json_line(s) for s in ordered) + "\n]\n"
    else:
        body = "[]\n"
    with resolve_uri(json_dest, "w") as handle:
        handle.write(body)
        if script_dest is not None:
            script = "".join(clip_command(s, processor) + "\n" for s in ordered)
            with resolve_uri(script_dest, "w") as script_handle:
                script_handle.write(script)
    return ordered


def parse_cutlist(source: str | Path | IO) -> list[ClipSpec]:
    """Read a cut-list; raises DataError on invalid JSON or a bad entry."""
    with resolve_uri(source, "r") as handle:
        try:
            entries = json.load(handle)
        except json.JSONDecodeError as exc:
            raise DataError(f"invalid cut-list JSON: {exc}") from exc
    try:
        return [
            ClipSpec(
                e["traj_id"],
                e["source_uri"],
                float(e["in_offset_s"]),
                float(e["duration_s"]),
                float(e["overlay_on_s"]),
                float(e["overlay_off_s"]),
                e["output_name"],
            )
            for e in entries
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"bad cut-list entry: {exc!r}") from exc
