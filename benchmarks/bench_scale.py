"""The study-scale curve of every stage: time and memory against study size.

Run with ``python benchmarks/bench_scale.py [SCALE ...]`` (default 1 4 16).

Each scale is perfbench's dense-drives shape (a 3x6 grid, 8 drives per
subject at 10 Hz) with ``6 * SCALE`` subjects: 57,648 sensor rows at 1x,
922,368 at 16x. The synth stage writes the study, with its reviewed KML,
once per scale. Then each of the eight stages, in pipeline order, runs
twice, each time in a fresh process through ``intxn_pipeline.cli.main``,
which records:

- ``s``: the stage's wall time;
- ``rise_mb``: how far the process's peak RSS (``ru_maxrss``) rose during
  the stage, above its peak after the imports;
- ``peak_mb``: the process's peak RSS.

Two checks guard the answers: the ``clean`` report's ``rows_out`` must
equal the data rows of the raw sensor files, and the ``traj`` report's
``trajectories`` must equal the trajectories in synth's
``ground_truth.json``. The work goes into a temporary directory, removed
at the end. After the per-run lines come each stage's largest-over-first
scale time ratio (fastest runs); a ratio above 20 for 16x is superlinear.
The last line of standard output is the curve as one JSON object.
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
STAGES = ("clean", "lrs-intxns", "subj-intxns", "export-kml", "import-review", "traj", "clips", "template")
RUNS = 2

# What one fresh process runs: one stage, timed, between two readings of
# its peak RSS (in KiB on Linux).
CHILD = """
import json, resource, sys, time
from intxn_pipeline import cli
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
start = time.perf_counter()
code = cli.main([sys.argv[1], "--config", sys.argv[2]])
seconds = time.perf_counter() - start
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
rise_mb, peak_mb = (peak - before) / 1024, peak / 1024
print(json.dumps({"code": code, "s": seconds, "rise_mb": rise_mb, "peak_mb": peak_mb}))
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


def check(stage: str, workspace: Path) -> str | None:
    """What is wrong with the stage's answer, if ``clean`` or ``traj``."""
    report = {"clean": "clean_sensor.csv", "traj": "trajectories.csv"}.get(stage)
    if report is None:
        return None
    got = json.loads((workspace / "out" / f"{report}.report.json").read_text(encoding="utf-8"))
    if stage == "clean":
        got, expected, what = got["rows_out"], data_rows(workspace), "rows"
    else:
        truth = json.loads((workspace / "ground_truth.json").read_text(encoding="utf-8"))
        got, expected, what = got["trajectories"], len(truth["trajectories"]), "trajectories"
    return None if got == expected else f"{stage} gave {got} {what}, expected {expected}"


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
            for stage in STAGES:
                for _ in range(RUNS):
                    result = json.loads(run(["-c", CHILD, stage], config).splitlines()[-1])
                    problem = check(stage, root / "ws")
                    if result.pop("code") != 0 or problem:
                        print(f"error: {scale}x {problem or stage + ' failed'}", file=sys.stderr)
                        return 1
                    result = {"scale": scale, "stage": stage, **{k: round(v, 3) for k, v in result.items()}}
                    print(
                        f"{scale:>3}x {stage:<13} {result['s']:.3f} s  "
                        f"RSS rise {result['rise_mb']:.1f} MB  peak {result['peak_mb']:.1f} MB"
                    )
                    curve.append(result)
    for stage in STAGES:
        fastest = {s: min(r["s"] for r in curve if r["stage"] == stage and r["scale"] == s) for s in scales}
        print(f"{stage:<13} {max(scales)}x/{min(scales)}x time {fastest[max(scales)] / fastest[min(scales)]:.1f}")
    print(json.dumps({"curve": curve}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
