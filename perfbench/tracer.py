"""Spans and counters that the benchmark installs on the pipeline's module attributes.

The pipeline itself carries no tracing. ``install`` replaces selected public
functions, in every ``intxn_pipeline`` module that binds them, with wrappers
that record a span (name, start, end, parent) or bump a counter. Spans stay
in memory until the caller asks for them with ``Tracer.dump``.

Spans come from the thread that made the call; counters may be bumped from
worker threads (``--jobs`` > 1), so each thread counts into its own
``Counter`` and ``counts`` sums them.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager

# Public functions timed as spans, by defining module. Names must match the
# per-layer metric names "<module>.<function>.s" in BENCHMARK.json.
SPANNED = {
    "ingest": (
        "clean_sensor",
        "clean_cv",
        "write_sensor_csv",
        "write_detections_csv",
        "read_clean_sensor",
        "read_clean_detections",
    ),
    "discovery": ("extract_lrs_candidates", "last_in_runs", "cluster_detections", "match_clusters"),
    "trajectory": ("extract_trajectories", "load_trajectories_csv", "write_trajectories_csv"),
    "review": (
        "export_candidates_kml",
        "import_reviewed_kml",
        "load_reviewed_json",
        "build_review_template",
        "write_review_csv",
    ),
    "clips": ("read_videos_csv", "build_clip_specs", "emit_cutlist", "parse_cutlist"),
    "synth": ("generate",),
}

# Hot primitives that only get a call count: a span per call would cost
# more than the call.
COUNTED = {
    "ingest": ("parse_time_utc", "format_time_utc"),
    "geo": ("haversine_distance_ft",),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._counters: list[Counter] = []

    def counter(self) -> Counter:
        """This thread's counter."""
        counter = getattr(self._local, "counter", None)
        if counter is None:
            counter = self._local.counter = Counter()
            self._counters.append(counter)  # a single append is atomic under the GIL
        return counter

    @contextmanager
    def span(self, name: str):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end))

    def counts(self) -> dict[str, float]:
        total: Counter = Counter()
        for counter in list(self._counters):
            total.update(counter)
        return dict(total)

    def dump(self) -> dict:
        return {
            "spans": [
                {"id": i, "parent": p, "name": n, "start": s, "end": e}
                for i, p, n, s, e in self.spans
            ],
            "counts": self.counts(),
            "missing": self.missing,
        }


def _package_modules() -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "intxn_pipeline" or name.startswith("intxn_pipeline."))
    ]


def _replace_everywhere(original, wrapper) -> None:
    """Rebind every package-level name that refers to ``original``."""
    for mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def _original(tracer: Tracer, module: str, attr: str):
    fn = getattr(sys.modules.get(f"intxn_pipeline.{module}"), attr, None)
    if fn is None:
        tracer.missing.append(f"{module}.{attr}")
    return fn


def _spanned(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


def _counted(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counter()[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def _install_last_in_runs(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(detections, *args, **kwargs):
        with tracer.span("discovery.last_in_runs"):
            kept = fn(detections, *args, **kwargs)
        counter = tracer.counter()
        counter["discovery.last_in_runs.in"] += len(detections)
        counter["discovery.last_in_runs.kept"] += len(kept)
        return kept

    _replace_everywhere(fn, wrapper)


def _install_region_queries(tracer: Tracer) -> None:
    grid_index = getattr(sys.modules.get("intxn_pipeline.discovery"), "GridIndex", None)
    fn = getattr(grid_index, "neighbors_within", None)
    if fn is None:
        tracer.missing.append("discovery.GridIndex.neighbors_within")
        return

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        found = fn(self, *args, **kwargs)
        counter = tracer.counter()
        counter["discovery.region_queries"] += 1
        counter["discovery.neighbors"] += len(found)
        return found

    grid_index.neighbors_within = wrapper


def _install_trajectory_gates(tracer: Tracer) -> None:
    traj = sys.modules.get("intxn_pipeline.trajectory")
    pip = getattr(traj, "point_in_polygon", None)
    heading = getattr(traj, "angular_difference_deg", None)
    if pip is None or heading is None:
        tracer.missing.append("trajectory.point_in_polygon/angular_difference_deg")
        return

    @functools.wraps(pip)
    def pip_wrapper(*args, **kwargs):
        inside = pip(*args, **kwargs)
        counter = tracer.counter()
        counter["trajectory.pip_calls"] += 1
        counter["trajectory.pip_hits"] += bool(inside)
        return inside

    traj.point_in_polygon = pip_wrapper
    traj.angular_difference_deg = _counted(tracer, "trajectory.heading_checks", heading)


class _TimedCommit:
    """Context manager around ``atomic_write`` timing its exit: close, then rename."""

    def __init__(self, tracer: Tracer, inner, path: str) -> None:
        self._tracer = tracer
        self._inner = inner
        self._path = path

    def __enter__(self):
        return self._inner.__enter__()

    def __exit__(self, *exc_info):
        start = time.perf_counter()
        try:
            return self._inner.__exit__(*exc_info)
        finally:
            counter = self._tracer.counter()
            counter["storage.commit_s"] += time.perf_counter() - start
            if exc_info[0] is None and os.path.exists(self._path):
                counter["storage.bytes_written"] += os.path.getsize(self._path)


def _install_atomic_write(tracer: Tracer) -> None:
    storage = sys.modules.get("intxn_pipeline.storage")
    fn = getattr(storage, "atomic_write", None)
    local_path = getattr(storage, "local_path", None)
    if fn is None or local_path is None:
        tracer.missing.append("storage.atomic_write")
        return

    @functools.wraps(fn)
    def wrapper(uri, *args, **kwargs):
        tracer.counter()["storage.atomic_write.calls"] += 1
        return _TimedCommit(tracer, fn(uri, *args, **kwargs), str(local_path(uri)))

    _replace_everywhere(fn, wrapper)


def install() -> Tracer:
    """Wrap the pipeline's public functions; call after importing ``intxn_pipeline``."""
    tracer = Tracer()
    for module, names in SPANNED.items():
        for attr in names:
            fn = _original(tracer, module, attr)
            if fn is None:
                continue
            if (module, attr) == ("discovery", "last_in_runs"):
                _install_last_in_runs(tracer, fn)
            else:
                _replace_everywhere(fn, _spanned(tracer, f"{module}.{attr}", fn))
    for module, names in COUNTED.items():
        for attr in names:
            fn = _original(tracer, module, attr)
            if fn is not None:
                _replace_everywhere(fn, _counted(tracer, f"{module}.{attr}.calls", fn))
    _install_region_queries(tracer)
    _install_trajectory_gates(tracer)
    _install_atomic_write(tracer)
    return tracer
