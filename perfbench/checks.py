"""Correctness checks on the files a ``skipchurn`` command writes.

``digest`` pins the exact bytes of the output files.  The ``check_*`` functions
test invariants that hold for every seed and return a list of problems, empty
when the output is sound.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

RUN_FILES = ("results.csv", "results.json")
PREDICT_FILES = ("predictor_errors.csv",)
PREDICTOR_KINDS = ("swdbg", "dbg1", "dbg2", "dbg3", "dbg4", "lifetime", "ludp")
SELF_CHECK_STABILIZERS = ("interlaced", "kademlia", "dks", "none")
SELF_CHECK_SEARCHES = 3480


def digest(out_dir: Path, names) -> str:
    """SHA-256 over each named file's name and bytes, in the given order."""
    h = hashlib.sha256()
    for name in names:
        data = (Path(out_dir) / name).read_bytes()
        h.update(f"{name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def _in_unit(value) -> bool:
    return 0.0 <= value <= 1.0


def check_run(out_dir: Path, capacity: int, slots: int, cells: int) -> tuple[int, list[str]]:
    """Invariants of ``results.csv``/``results.json`` from one topology per cell.

    Returns the number of searches simulated and the problems found.
    """
    out_dir = Path(out_dir)
    problems: list[str] = []
    rows = json.loads((out_dir / "results.json").read_text(encoding="utf-8"))["rows"]
    with open(out_dir / "results.csv", newline="", encoding="utf-8") as fh:
        csv_rows = list(csv.DictReader(fh))
    if len(rows) != cells or len(csv_rows) != cells:
        problems.append(f"expected {cells} rows, got {len(rows)} json / {len(csv_rows)} csv")
    searches = 0
    for row, csv_row in zip(rows, csv_rows):
        label = f"{row['stabilizer']}/{row['predictor']}/b={row['backup_size']}"
        for col, text in csv_row.items():
            if str(row[col]) != text:
                problems.append(f"{label}: csv {col}={text} differs from json {row[col]}")
        for col in ("avg_success_ratio", "avg_prediction_error", "std_success_ratio",
                    "std_prediction_error"):
            if not _in_unit(row[col]):
                problems.append(f"{label}: {col}={row[col]} outside [0, 1]")
        series = row["slot_series"]
        if len(series) != slots:
            problems.append(f"{label}: {len(series)} slots, expected {slots}")
        started = succeeded = 0
        for sm in series:
            started += sm["searches_initiated"]
            succeeded += sm["searches_succeeded"]
            if not 0 <= sm["searches_succeeded"] <= sm["searches_initiated"]:
                problems.append(f"{label}: slot {sm['slot_index']} has more successes than searches")
            if not 0 <= sm["online_count"] <= capacity:
                problems.append(f"{label}: slot {sm['slot_index']} online {sm['online_count']} > capacity")
            if sm["prediction_samples"] != capacity or not (
                0.0 <= sm["sum_prediction_error"] <= sm["prediction_samples"]
            ):
                problems.append(f"{label}: slot {sm['slot_index']} prediction error outside [0, 1]")
        ratio = succeeded / started if started else 0.0
        if abs(ratio - row["avg_success_ratio"]) > 1e-12:
            problems.append(f"{label}: success ratio {row['avg_success_ratio']} != slot total {ratio}")
        searches += started
    return searches, problems


def check_predict(out_dir: Path) -> list[str]:
    """Invariants of ``predictor_errors.csv``: every kind once, errors in [0, 1], best first."""
    with open(Path(out_dir) / "predictor_errors.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    kinds = sorted(r["predictor"] for r in rows)
    if kinds != sorted(PREDICTOR_KINDS):
        problems.append(f"predictor rows {kinds} != {sorted(PREDICTOR_KINDS)}")
    errors = [float(r["mean_error"]) for r in rows]
    for r in rows:
        for col in ("mean_error", "std_across_topologies"):
            if not _in_unit(float(r[col])):
                problems.append(f"{r['predictor']}: {col}={r[col]} outside [0, 1]")
    if errors != sorted(errors):
        problems.append("predictor rows are not sorted by mean error")
    return problems


def check_self_check(out_dir: Path) -> list[str]:
    """Churn-free run: every search succeeds, nothing resolves, fixed search count."""
    _, problems = check_run(out_dir, capacity=64, slots=4, cells=len(SELF_CHECK_STABILIZERS))
    rows = json.loads((Path(out_dir) / "results.json").read_text(encoding="utf-8"))["rows"]
    if [r["stabilizer"] for r in rows] != list(SELF_CHECK_STABILIZERS):
        problems.append(f"self-check rows {[r['stabilizer'] for r in rows]}")
    for r in rows:
        n = sum(sm["searches_initiated"] for sm in r["slot_series"])
        resolves = sum(sm["resolve_invocations"] for sm in r["slot_series"])
        if n != SELF_CHECK_SEARCHES or r["avg_success_ratio"] != 1.0 or resolves != 0:
            problems.append(
                f"self-check {r['stabilizer']}: {n} searches (expected {SELF_CHECK_SEARCHES}), "
                f"success {r['avg_success_ratio']}, {resolves} resolves"
            )
    return problems
