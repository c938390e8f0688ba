"""The demos and the micro-benchmarks still run against the package.

No other code imports them, so a renamed or deleted name would break them
without a failing test. Each demo runs in this process, its temporary
workspaces under ``tmp_path``; the benches run once each, untimed, in a
pytest subprocess.
"""

import os
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

import intxn_pipeline
from intxn_pipeline import cli, storage

ROOT = Path(__file__).resolve().parents[1]


def test_demos_and_benches_run(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(cli, "_store", storage.Store())
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    for demo in demos:
        runpy.run_path(str(demo), run_name="__main__")
        assert capsys.readouterr().out, demo.name

    benches = sorted(str(p) for p in (ROOT / "benchmarks").glob("bench_*.py"))
    assert benches
    env = dict(os.environ, PYTHONPATH=str(Path(intxn_pipeline.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--benchmark-disable",
         *benches],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stdout + result.stderr
