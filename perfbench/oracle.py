"""Ground-truth checks of one pipeline pass against the synth step's ``ground_truth.json``.

Independent of the code under test: it reads only the files the stages
wrote. Each item checked is one operation; a mismatch, a missing item or an
unexpected extra item is one failed operation.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

EARTH_RADIUS_FT = 6_371_000.0 / 0.3048
POSITION_TOL_FT = 1.0  # acceptance criterion 1's tolerance
TIMING_TOL_S = 0.001  # the cut-list carries three decimals

OUT = {
    "lrs_candidates": "out/lrs_candidates.geojson",
    "visited": "out/visited_candidates.geojson",
    "trajectories": "out/trajectories.csv",
    "cutlist": "out/cutlist.json",
    "template": "out/review_template.csv",
}
DROPS_FILES = ("out/clean_sensor.csv.drops.json", "out/clean_cv.csv.drops.json")


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    candidate_id_order_mismatch: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(what)


def _distances_ft(lat: float, lon: float, lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
    phi1, phi2 = math.radians(lat), np.radians(lats)
    h = (
        np.sin((phi2 - phi1) / 2.0) ** 2
        + math.cos(phi1) * np.cos(phi2) * np.sin(np.radians(lons - lon) / 2.0) ** 2
    )
    return 2.0 * EARTH_RADIUS_FT * np.arcsin(np.minimum(1.0, np.sqrt(h)))


def _points(path: Path) -> list[tuple[int, float, float]]:
    """(intxn_id, lat, lon) of each Point feature in a GeoJSON file; [] when absent."""
    if not path.exists():
        return []
    doc = json.loads(path.read_text(encoding="utf-8"))
    return [
        (int(f["properties"]["intxn_id"]), f["geometry"]["coordinates"][1], f["geometry"]["coordinates"][0])
        for f in doc.get("features", [])
    ]


def _match(expected: list[tuple], found: list[tuple]) -> tuple[list, list]:
    """Pair each expected (id, lat, lon) with an unused found one within tolerance."""
    lats = np.array([f[1] for f in found], dtype=float)
    lons = np.array([f[2] for f in found], dtype=float)
    used = np.zeros(len(found), dtype=bool)
    pairs = []
    for exp in expected:
        if not len(found):
            pairs.append((exp, None))
            continue
        dist = _distances_ft(exp[1], exp[2], lats, lons)
        dist[used] = np.inf
        k = int(np.argmin(dist))
        if dist[k] <= POSITION_TOL_FT:
            used[k] = True
            pairs.append((exp, found[k]))
        else:
            pairs.append((exp, None))
    extra = [f for f, u in zip(found, used) if not u]
    return pairs, extra


def _csv_rows(path: Path, key: str) -> dict[str, dict]:
    if not path.exists():
        return {}
    with path.open(encoding="utf-8", newline="") as handle:
        return {row[key]: row for row in csv.DictReader(handle)}


def check_pass(workspace: Path, truth: dict) -> CheckResult:
    res = CheckResult()
    cands = {c["intxn_id"]: (c["intxn_id"], c["lat"], c["lon"]) for c in truth["candidates"]}

    # Visited intersections, by position.
    pairs, extra = _match(
        [cands[i] for i in truth["visited_ids"]], _points(workspace / OUT["visited"])
    )
    for exp, got in pairs:
        res.check(got is not None, f"visited intersection {exp[0]} not found within 1 ft")
    for got in extra:
        res.check(False, f"unexpected visited intersection {got[0]}")

    # Candidate IDs that differ from the synth IDs at the same position: a
    # known defect, counted and not failed.
    pairs, _ = _match(list(cands.values()), _points(workspace / OUT["lrs_candidates"]))
    res.candidate_id_order_mismatch = sum(1 for exp, got in pairs if got and got[0] != exp[0])

    expected = truth["trajectories"]
    trajs = _csv_rows(workspace / OUT["trajectories"], "traj_id")
    clips: dict[str, dict] = {}
    if (workspace / OUT["cutlist"]).exists():
        entries = json.loads((workspace / OUT["cutlist"]).read_text(encoding="utf-8"))
        clips = {e["traj_id"]: e for e in entries}
    template = _csv_rows(workspace / OUT["template"], "stop_traj_id")

    for traj_id, exp in expected.items():
        row = trajs.get(traj_id)
        res.check(
            row is not None
            and row["ref_time_utc"] == exp["ref_time_utc"]
            and row["start_time_utc"] == exp["start_time_utc"]
            and row["end_time_utc"] == exp["end_time_utc"]
            and int(row["n_points"]) == exp["n_points"],
            f"trajectory {traj_id}: {row!r}",
        )
        clip = clips.get(traj_id)
        res.check(
            clip is not None
            and abs(float(clip["overlay_on_s"]) - exp["overlay_on_s"]) <= TIMING_TOL_S + 1e-9
            and abs(float(clip["duration_s"]) - exp["duration_s"]) <= TIMING_TOL_S + 1e-9,
            f"clip {traj_id}: {clip!r}",
        )
        entry = template.get(traj_id)
        res.check(
            entry is not None
            and row is not None
            and clip is not None
            and (entry["subj"], entry["drive"], entry["intxn_id"], entry["ref_time_utc"])
            == (row["subj"], row["drive"], row["intxn_id"], row["ref_time_utc"])
            and float(entry["jump_to_ref"]) == float(clip["overlay_on_s"]),
            f"template row {traj_id}: {entry!r}",
        )
    for table, name in ((trajs, "trajectory"), (clips, "clip"), (template, "template row")):
        for traj_id in sorted(set(table) - set(expected)):
            res.check(False, f"unexpected {name} {traj_id}")

    drops_files = set(DROPS_FILES) | {
        str(p.relative_to(workspace)) for p in workspace.glob("out/*.drops.json")
    }
    for rel in sorted(drops_files):
        path = workspace / rel
        drops = json.loads(path.read_text(encoding="utf-8")) if path.exists() else None
        res.check(
            drops is not None and all(v == 0 for v in drops.values()), f"{rel}: {drops!r}"
        )
    return res
