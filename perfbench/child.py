"""One fresh process: the synth step, or the eight pipeline stages, through the public CLI.

Usage::

    python3 perfbench/child.py {synth|stages} CONFIG JOBS RESULT_JSON TRACE

Stages run in order through ``intxn_pipeline.cli.main``. The process writes
to RESULT_JSON each stage's exit code, wall time and CPU time, the duration
of a fixed reference loop run before the first stage and after every stage,
and its peak RSS. With TRACE=1 it first installs the tracer and adds the
spans and counters. A fresh process per call keeps the generator's memory
out of the stages' peak RSS.
"""

from __future__ import annotations

import contextlib
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

PRE_REVIEW = ("clean", "lrs-intxns", "subj-intxns", "export-kml")
POST_REVIEW = ("import-review", "traj", "clips", "template")


# A fixed probe of the core's current speed: small-array numpy math, as in
# the pipeline's distance filters, driven from an interpreter loop.
REFERENCE_ITERATIONS = 150
_REF_LAT = np.linspace(41.0, 41.01, 1250)
_REF_LON = np.linspace(-96.0, -95.99, 1250)


def reference_s() -> float:
    """Wall time of the fixed probe."""
    start = time.perf_counter()
    for k in range(REFERENCE_ITERATIONS):
        phi = math.radians(41.0 + k * 1e-5)
        h = (
            np.sin((np.radians(_REF_LAT) - phi) / 2.0) ** 2
            + math.cos(phi) * np.cos(np.radians(_REF_LAT)) * np.sin(np.radians(_REF_LON + 96.0) / 2.0) ** 2
        )
        near = np.nonzero(np.arcsin(np.sqrt(h)) < 1e-5)[0]
        [int(i) for i in near[:50]]
    return time.perf_counter() - start


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _run_stage(cli, stage: str, config: str, jobs: str) -> int:
    try:
        return cli.main([stage, "--config", config, "--jobs", jobs])
    except Exception:  # a crash is a failed operation; later stages still run
        traceback.print_exc()
        return -1


def main(argv: list[str]) -> int:
    mode, config, jobs, result_path, trace = argv
    sys.path.insert(0, str(SRC))
    from intxn_pipeline import cli

    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        print(f"intxn_pipeline imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    tracer = None
    if trace == "1":
        import tracer as tracing

        tracer = tracing.install()

    stages = ("synth",) if mode == "synth" else PRE_REVIEW + POST_REVIEW
    walls: dict[str, float] = {}
    cpus: dict[str, float] = {}
    codes: dict[str, int] = {}
    reference = [reference_s()]
    for stage in stages:
        span = tracer.span(f"cli.{stage}") if tracer else contextlib.nullcontext()
        cpu = _cpu_s()
        start = time.perf_counter()
        with span:
            codes[stage] = _run_stage(cli, stage, config, jobs)
        walls[stage] = time.perf_counter() - start
        cpus[stage] = _cpu_s() - cpu
        reference.append(reference_s())

    result = {
        "wall_s": walls,
        "cpu_s": cpus,
        "reference_s": reference,
        "exit_codes": codes,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.dump() if tracer else None,
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
