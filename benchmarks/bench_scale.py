"""The study-scale curve of the ``clean`` stage: time and memory against study size.

Run with ``python benchmarks/bench_scale.py [SCALE ...]`` (default 1 4 16).

Each scale is perfbench's dense-drives shape (a 3x6 grid, 8 drives per
subject at 10 Hz) with ``6 * SCALE`` subjects: 57,648 sensor rows at 1x,
922,368 at 16x. The synth stage writes the study once per scale. Then the
clean stage runs twice, each time in a fresh process through
``intxn_pipeline.cli.main``, which records:

- ``clean_s``: the stage's wall time;
- ``rise_mb``: how far the process's peak RSS (``ru_maxrss``) rose during
  the stage, above its peak after the imports;
- ``peak_mb``: the process's peak RSS.

Each run checks that the clean table kept every row synth wrote: the
stage report's ``rows_out`` must equal the data rows of the raw sensor
files. The work goes into a temporary directory, removed at the end. The
last line of standard output is the curve as one JSON object.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
DENSE_DRIVES = {
    "grid_rows": 3, "grid_cols": 6, "n_subjects": 6, "drives_per_subject": 8, "sample_hz": 10.0
}
RUNS = 2

# What one fresh process runs: the clean stage, timed, between two readings
# of its peak RSS (in KiB on Linux).
CHILD = """
import json, resource, sys, time
from intxn_pipeline import cli
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
start = time.perf_counter()
code = cli.main(["clean", "--config", sys.argv[1]])
seconds = time.perf_counter() - start
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
rise_mb, peak_mb = (peak - before) / 1024, peak / 1024
print(json.dumps({"code": code, "clean_s": seconds, "rise_mb": rise_mb, "peak_mb": peak_mb}))
"""


def run(args: list[str], config: Path) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, *args, str(config)], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout


def data_rows(workspace: Path) -> int:
    """The non-blank data rows of the raw sensor files."""
    rows = 0
    for path in (workspace / "sensor").glob("*.csv"):
        with path.open(encoding="utf-8") as handle:
            rows += sum(1 for line in handle if line.strip()) - 1
    return rows


def main(argv: list[str]) -> int:
    scales = [int(a) for a in argv] or [1, 4, 16]
    curve = []
    with tempfile.TemporaryDirectory(prefix="bench_scale-") as work:
        for scale in scales:
            root = Path(work) / f"x{scale}"
            root.mkdir()
            config = root / "pipeline.json"
            spec = dict(DENSE_DRIVES, n_subjects=DENSE_DRIVES["n_subjects"] * scale)
            config.write_text(json.dumps({"workspace": "ws", "synth": spec}), encoding="utf-8")
            run(["-m", "intxn_pipeline.cli", "synth", "--config"], config)
            expected = data_rows(root / "ws")
            for _ in range(RUNS):
                result = json.loads(run(["-c", CHILD], config).splitlines()[-1])
                report = root / "ws" / "out" / "clean_sensor.csv.report.json"
                rows = json.loads(report.read_text(encoding="utf-8"))["rows_out"]
                if result["code"] != 0 or rows != expected:
                    print(f"error: {scale}x clean kept {rows} of {expected} rows", file=sys.stderr)
                    return 1
                del result["code"]
                result = {"scale": scale, "rows": rows, **{k: round(v, 3) for k, v in result.items()}}
                print(
                    f"{scale:>3}x {rows:>9,} rows  clean {result['clean_s']:.3f} s  "
                    f"RSS rise {result['rise_mb']:.1f} MB  peak {result['peak_mb']:.1f} MB"
                )
                curve.append(result)
    print(json.dumps({"curve": curve}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
