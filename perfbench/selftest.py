"""Self-test of the benchmark on tiny inputs; takes well under a minute.

Usage (from the repository root)::

    python3 perfbench/selftest.py

Runs every workload in tiny mode, untraced at seed 0 and traced at another
seed, and checks that each run passes the ground-truth oracle and reports
exactly the metrics BENCHMARK.json declares. Then it copies BENCHMARK.json
and perfbench/ alone into a scratch directory and checks that the
benchmark refuses to run there without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRATCH = ROOT / ".perfbench_work" / "selftest"


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in bench["workloads"]):
        for seed, trace in ((0, 0), (11, 1)):
            proc = run(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "1",
                       "--trace", str(trace), "--tiny")
            label = f"{workload} seed={seed} trace={trace}"
            if proc.returncode != 0:
                failures.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{label}: oracle failed\n{proc.stdout[-2000:]}")
            if units != declared[trace]:
                failures.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(units) ^ set(declared[trace]))}")
            print(f"ok  {label}: {result['attempted']} checks")

    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", SCRATCH)
        shutil.copytree(ROOT / "perfbench", SCRATCH / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(SCRATCH, "--workload", "dense-drives", "--seed", "0", "--seconds", "1", "--trace", "0")
        if proc.returncode == 0 or proc.stdout.strip().endswith("}"):
            failures.append("benchmark ran without the pipeline sources")
        else:
            print("ok  refuses to run without the pipeline sources")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)

    for failure in failures:
        print("FAIL " + failure)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
