"""Per-trajectory video cut-lists with reviewer-alert overlay timings.

Each trajectory is matched to the dashcam file covering its time span and
turned into cut instructions: seek offset, duration, and the interval in
which an external video processor should draw a red box alerting the
reviewer to the upcoming intersection (on 150 ft before the stop bar, off
50 ft after it, by default). Rendering itself is delegated: this module
only emits a JSON cut-list and a command script, so no media tooling is
needed at test time.

The video sidecar is a ``VideoTable``, the fourth ``ingest._Table``, read by
the tables' parser. ``build_clip_specs`` takes it, the trajectory table and
the sensor table its windows are cut from as they are and works on their
columns: it matches every trajectory to its video, and finds every clip's
span and overlay times, with array operations in integer microseconds.
Overlay times round as ``datetime.fromtimestamp`` rounds, and every time is
cut to the millisecond as the cut-list prints it, so the clips are exactly
those of matching, interpolating and rounding one trajectory at a time.
They are one ``CutList``, a column per field, from ``clips`` to ``template``.
"""

from __future__ import annotations

import shlex
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import pairwise, repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import IO

import numpy as np

from .errors import DataError
from .ingest import _FLOAT, _KEY, _TEXT, _TIME, SensorTable, _parse_csv, _sorted_keys, _Table, search_runs, to_seconds
from .storage import WRITE_ROWS, interleave, read_json, resolve_uri
from .trajectory import TrajectoryTable, windows

VIDEO_COLUMNS = ("uri", "subj", "drive", "start_time_utc", "end_time_utc", "fps")

# Red square centered at 50% of frame width / 30% of frame height, sized
# to 10% of frame width.
OVERLAY_BOX_EXPR = "x=0.45*iw:y=0.3*ih-0.05*iw:w=0.1*iw:h=0.1*iw:color=red:t=fill"
# Quoted once: a 3-decimal overlay time holds nothing shlex.quote escapes.
_DRAWBOX = shlex.quote(f"drawbox={OVERLAY_BOX_EXPR}:enable='between(t,{{}},{{}})'")
_NAMES = ("traj_id", "source_uri", "output_name")  # a cut-list entry's texts
_TIMES = ("in_offset_s", "duration_s", "overlay_on_s", "overlay_off_s")


@dataclass(eq=False)
class VideoTable(_Table):
    """Dashcam files per (subj, drive), sorted by (start time, uri): each
    starts at ``t_us`` and ends at ``end_us``, in epoch microseconds."""

    COLUMNS = {"t_us": _TIME, "end_us": _TIME, "fps": _FLOAT, "uri": _TEXT}
    SORT = ("t_us", "uri")
    RAW = VIDEO_COLUMNS

    t_us: np.ndarray
    end_us: np.ndarray
    fps: np.ndarray
    uri: np.ndarray

    @classmethod
    def kinds(cls) -> dict[str, tuple]:
        return dict(zip(VIDEO_COLUMNS, (_TEXT, _KEY, _KEY, _TIME, _TIME, _FLOAT)))


@dataclass
class OverlayParams:
    on_upstream_ft: float = 150.0
    off_downstream_ft: float = 50.0

    def __post_init__(self) -> None:
        if self.on_upstream_ft < 0 or self.off_downstream_ft < 0:
            raise ValueError("overlay distances must be nonnegative")


@dataclass(eq=False)
class CutList:
    """The clips to cut as columns, rows sorted by traj_id, times read-only.
    Built from rows in any order; ValueError names the first clip given whose
    offset is not finite and 0 or more, duration not finite and positive, or
    overlay not 0 <= on <= off <= duration + 1e-9, or a repeated traj_id or
    output_name."""

    traj_id: list[str]
    source_uri: list[str]
    in_offset_s: np.ndarray
    duration_s: np.ndarray
    overlay_on_s: np.ndarray
    overlay_off_s: np.ndarray
    output_name: list[str]

    def __post_init__(self) -> None:
        times = np.array([getattr(self, key) for key in _TIMES], dtype=float)
        at, length, on, off = times
        span = (at >= 0) & (length > 0) & np.isfinite(at) & np.isfinite(length)
        bad = np.flatnonzero(~span | ~((0 <= on) & (on <= off) & (off <= length + 1e-9)))
        if len(bad):
            reason = "overlay interval outside clip" if span[bad[0]] else "bad offset/duration"
            raise ValueError(f"clip {self.traj_id[bad[0]]}: {reason}")
        order = sorted(range(len(at)), key=self.traj_id.__getitem__)
        times = times[:, order]
        times.flags.writeable = False  # and so are its rows, the time columns
        self.in_offset_s, self.duration_s, self.overlay_on_s, self.overlay_off_s = times
        names = (self.traj_id, self.source_uri, self.output_name)
        self.traj_id, self.source_uri, self.output_name = ([c[k] for k in order] for c in names)
        for key, names in (("traj_id", self.traj_id), ("output_name", sorted(self.output_name))):
            repeated = [a for a, b in pairwise(names) if a == b]
            if repeated:
                raise ValueError(f"repeated {key} {repeated[0]}")

    def __len__(self) -> int:
        return len(self.traj_id)

    def __eq__(self, other):
        if type(other) is not CutList:
            return NotImplemented
        return all([*getattr(self, k)] == [*getattr(other, k)] for k in _NAMES + _TIMES)


def _written(seconds: float) -> float:
    """A time as the cut-list holds it, to the millisecond. A span between
    two datetimes has at most 15 significant digits at that precision, so
    the rounded time prints to the same three decimals."""
    return float(f"{seconds:.3f}")


def _written_us(us: np.ndarray) -> np.ndarray:
    """``_written`` of each span of ``us`` microseconds, given as
    ``timedelta.total_seconds()`` gives it.

    Such a float is within half its spacing of us / 10**6, so it rounds as
    us does to the nearest millisecond unless us lies about that close to a
    half: those few take ``_written`` itself.
    """
    seconds = to_seconds(us)
    out = (us + 500) // 1000 / 1000
    near = np.abs(us % 1000 - 500) <= np.abs(np.spacing(seconds)) * 1e6
    out[near] = [_written(s) for s in seconds[near].tolist()]
    return out


def _fromtimestamp_us(seconds: np.ndarray) -> np.ndarray:
    """Epoch microseconds of epoch seconds, rounded as datetime.fromtimestamp
    rounds them: the fraction's microseconds to the nearest, ties to even."""
    fraction, whole = np.modf(seconds)
    return whole.astype(np.int64) * 1_000_000 + np.rint(fraction * 1e6).astype(np.int64)


def read_videos_csv(source: str | Path | IO) -> VideoTable:
    """Load the video table; raises DataError naming the line of the first
    bad row, or the first video that does not end after it starts."""

    def bad_row(reason, line, row):
        raise DataError(f"bad video row at line {line}: {row!r}")

    key, uri, start, end, fps, keys = _parse_csv([source], VideoTable, True, bad_row).values()
    late = np.flatnonzero(end <= start)
    if len(late):
        raise DataError(f"video {uri[late[0]]}: end time not after start time")
    return VideoTable._sorted(*_sorted_keys(keys, key), start, end, fps, uri)


def _crossing_us(points: SensorTable, at: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Epoch microseconds at which the odometer reaches each target, given
    ``at``, the first row of ``points`` whose cum is not below it; the row
    before ``at`` must lie below it, unless ``at`` lands on it exactly."""
    us = points.t_us[at]
    between = np.flatnonzero(points.cum[at] != targets)
    i = at[between]
    c0, c1 = points.cum[i - 1], points.cum[i]
    # Exactly datetime.timestamp(): a correctly rounded int division.
    t0, t1 = to_seconds(points.t_us[i - 1]), to_seconds(points.t_us[i])
    frac = (targets[between] - c0) / (c1 - c0)
    us[between] = _fromtimestamp_us(t0 + frac * (t1 - t0))
    return us


def _overlay_us(sensor: SensorTable, start, stop, targets, clip_start, clip_end):
    """Per window ``start:stop`` of ``sensor``, when its odometer reaches its
    target: the clip's start before the window, the clip's end after it."""
    us = np.where(targets < sensor.cum[start], clip_start, clip_end)
    inside = np.flatnonzero((sensor.cum[start] <= targets) & (targets <= sensor.cum[stop - 1]))
    at = search_runs(sensor.cum, start[inside], stop[inside], targets[inside])
    us[inside] = _crossing_us(sensor, at, targets[inside])
    return us


def _match_videos(trajs: TrajectoryTable, videos: VideoTable, t_start, t_end) -> tuple:
    """Per trajectory, the row of ``videos`` of the first video of its
    drive, by (start time, uri), that holds its whole span, ``t_start`` to
    ``t_end``, else of the first that holds its reference time, or -1 for
    none; and whether that video holds only the reference time.
    """
    # Per trajectory, the first row and the count of its drive's videos; a
    # drive without videos is k = -1, which takes the zeros appended.
    k = videos.drive_index(trajs.keys)
    bounds = np.array(videos.offsets)
    codes = trajs.codes()
    first = np.append(bounds[:-1], 0)[k][codes]
    counts = np.append(np.diff(bounds), 0)[k][codes]

    # Each trajectory paired with each video of its drive, in that order.
    pair = np.repeat(np.arange(len(trajs)), counts)
    video = np.arange(counts.sum()) + np.repeat(first - (np.cumsum(counts) - counts), counts)
    t_start, t_end, t_ref = (times[pair] for times in (t_start, t_end, trajs.ref_us))

    def first_video(covers: np.ndarray) -> np.ndarray:
        out = np.full(len(trajs), -1)
        hit = np.flatnonzero(covers)
        rows, at = np.unique(pair[hit], return_index=True)
        out[rows] = video[hit[at]]
        return out

    lo, hi = videos.t_us[video], videos.end_us[video]
    whole = first_video((lo <= t_start) & (t_end <= hi))
    at_ref = first_video((lo <= t_ref) & (t_ref <= hi))
    return np.where(whole >= 0, whole, at_ref), (whole < 0) & (at_ref >= 0)


def build_clip_specs(
    trajs: TrajectoryTable,
    sensor: SensorTable,
    videos: VideoTable,
    overlay: OverlayParams | None = None,
) -> tuple[CutList, dict[str, list]]:
    """Build the cut-list of every clippable trajectory plus a problem report.

    Each trajectory's window is its ``windows`` in ``sensor`` (a DataError
    where that lacks it), its video the one ``_match_videos`` picks. The report
    maps ``unclippable`` to (traj_id, reason) entries and ``warnings`` to
    (traj_id, warning) entries. When a trajectory straddles two files the
    clip covers the overlap of the trajectory with the file holding the
    reference time, and overlay times are clamped into it. An overlay time
    inside a stretch without motion is the stretch's earliest. Times are
    rounded to the millisecond, as the cut-list holds them.
    """
    overlay = overlay or OverlayParams()
    ref, start, stop = windows(trajs, sensor)
    t_start, t_end = sensor.t_us[start], sensor.t_us[stop - 1]
    pick, spans = _match_videos(trajs, videos, t_start, t_end)
    ids = trajs.traj_ids()
    rows = np.flatnonzero(pick >= 0)
    video = pick[rows]
    v_start = videos.t_us[video]
    clip_start = np.maximum(t_start[rows], v_start)
    clip_end = np.minimum(t_end[rows], videos.end_us[video])
    duration = clip_end - clip_start
    ref_cum, span = sensor.cum[ref[rows]], (sensor, start[rows], stop[rows])
    t_on = _overlay_us(*span, ref_cum - overlay.on_upstream_ft, clip_start, clip_end)
    t_off = _overlay_us(*span, ref_cum + overlay.off_downstream_ft, clip_start, clip_end)
    on = np.minimum(np.maximum(t_on - clip_start, 0), duration)
    off = np.minimum(np.maximum(t_off - clip_start, on), duration)
    # The cut-list's times, each cut to the millisecond.
    written = [_written_us(us) for us in (clip_start - v_start, duration, on, off)]
    kept = written[1] > 0  # else the cut-list could not hold the clip

    reasons = dict.fromkeys(np.flatnonzero(pick < 0).tolist(), "no_covering_video")
    reasons.update(dict.fromkeys(rows[~kept].tolist(), "empty_overlap"))
    warned = np.flatnonzero(spans).tolist()
    report: dict[str, list] = {
        "unclippable": [{"traj_id": ids[k], "reason": reasons[k]} for k in sorted(reasons)],
        "warnings": [{"traj_id": ids[k], "warning": "spans_files"} for k in warned],
    }
    names = [ids[k] for k in rows[kept].tolist()]
    uris = videos.uri[video[kept]].tolist()
    outputs = [f"{name}.mp4" for name in names]
    return CutList(names, uris, *(w[kept] for w in written), outputs), report


def emit_cutlist(
    cut: CutList,
    json_dest: str | Path | IO,
    script_dest: str | Path | IO | None = None,
    processor: str = "ffmpeg",
) -> None:
    """Write the JSON cut-list and the matching command script.

    The script is advisory: nothing in the pipeline runs the processor, so
    clips can be rendered later, elsewhere, or not at all (dry runs).
    Numbers are serialized with exactly three decimals. Given paths, both
    files are written inside one ``with``, so a failure while writing either
    leaves neither file behind. Both are rendered a field and ``WRITE_ROWS``
    clips at a time.
    """
    script_cm = nullcontext() if script_dest is None else resolve_uri(script_dest, "w")
    as_json = encode_basestring_ascii
    with resolve_uri(json_dest, "w") as handle, script_cm as script:
        handle.write("[\n" if len(cut) else "[]\n")
        for start in range(0, len(cut), WRITE_ROWS):
            rows = slice(start, start + WRITE_ROWS)
            ids, uris, outputs, *times = (getattr(cut, key)[rows] for key in _NAMES + _TIMES)
            at, length, on, off = ([*map(format, t.tolist(), repeat(".3f"))] for t in times)
            cells = interleave(len(ids), [
                '  {"traj_id": ', map(as_json, ids), ', "source_uri": ', map(as_json, uris),
                ', "in_offset_s": ', at, ', "duration_s": ', length, ', "overlay_on_s": ', on,
                ', "overlay_off_s": ', off, ', "output_name": ', map(as_json, outputs), "},\n",
            ])
            if start + WRITE_ROWS >= len(cut):
                cells[-1] = "}\n]\n"
            handle.write("".join(cells))
            if script is not None:
                quoted = {uri: shlex.quote(uri) for uri in set(uris)}
                script.write("".join(interleave(len(ids), [
                    f"{processor} -y -ss ", at, " -t ", length, " -i ", map(quoted.get, uris),
                    " -vf ", map(_DRAWBOX.format, on, off), " ", map(shlex.quote, outputs), "\n",
                ])))


def _cutlist(entries: list) -> CutList:
    """The ``CutList`` of a cut-list document's entries; TypeError for a
    document that is not an array, a name that is not a str, or a time
    that is not a JSON number (``true`` and ``"10"`` are none)."""
    if type(entries) is not list:
        raise TypeError(f"a cut-list is an array, not a {type(entries).__name__}")
    columns = {key: [entry[key] for entry in entries] for key in _NAMES + _TIMES}
    for key, column in columns.items():
        bad = [v for v in column if type(v) not in ((str,) if key in _NAMES else (int, float))]
        if bad:
            raise TypeError(f"{key} {bad[0]!r} is a {type(bad[0]).__name__}")
    return CutList(**columns)


def parse_cutlist(source: str | Path | IO) -> CutList:
    """Read a cut-list; raises DataError on invalid JSON or a bad entry."""
    return read_json(source, _cutlist, "cut-list JSON")
