import json
import os
import subprocess
import sys
from pathlib import Path

from skipchurn.stabilizers import STABILIZER_KINDS

SRC = Path(__file__).resolve().parents[1] / "src"


def test_churn_free_run_succeeds_without_resolves(tmp_path):
    # With uniform churn at q = 0 every node is online from the first slot and
    # every lookup table is exact, so every search must reach its target and no
    # timeout may ever reach a stabilizer.  Run under -O so that the checks the
    # engine relies on are not asserts.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    subprocess.run(
        [sys.executable, "-O", "-m", "skipchurn.cli", "run",
         "--churn-kind", "uniform", "--uniform-q", "0", "--capacity", "64", "--slots", "4",
         "--topologies", "1", "--workers", "1", "--stabilizer", ",".join(STABILIZER_KINDS),
         "--format", "json", "--out", str(tmp_path)],
        env=env, check=True, capture_output=True,
    )
    rows = json.loads((tmp_path / "results.json").read_text(encoding="utf-8"))["rows"]
    assert sorted(row["stabilizer"] for row in rows) == sorted(STABILIZER_KINDS)
    for row in rows:
        series = row["slot_series"]
        assert sum(s["searches_initiated"] for s in series) > 0
        assert row["avg_success_ratio"] == 1.0
        assert sum(s["resolve_invocations"] for s in series) == 0
        assert all(s["online_count"] == 64 for s in series)
