"""Paper-scale timing of one topology, written as a ``BENCH_*.json`` record.

    python scripts/bench_paper_cell.py PARENT_CHECKOUT CHANGE_CHECKOUT --out BENCH_N.json

The task is fixed: 1024 nodes, 168 slots, one topology, the four stabilizers
in lockstep, b=40, swdbg, one worker, seed 1.  Each run is one plain-mode
``perfbench/child.py`` operation, which calls ``skipchurn.cli.main`` in a
fresh interpreter that imports ``skipchurn`` from the checkout's ``src/``.
The two checkouts alternate, ``RUNS`` runs each, so drift in the host's speed
reaches both sides alike.  A run records what the child measures (wall and
CPU time with the reference-loop probes subtracted, peak RSS), the median of
its reference-loop samples (the host's speed at the time) and the SHA-256 of
``results.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy

ARGV = [
    "run", "--capacity", "1024", "--slots", "168", "--topologies", "1",
    "--stabilizer", "interlaced,kademlia,dks,none", "--predictor", "swdbg", "--backup-size", "40",
    "--seed", "1", "--workers", "1",
]
RUNS = 2
CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def run_once(checkout: Path) -> dict:
    """One run of the task from ``checkout``'s sources, as ``perfbench/child.py`` measures it."""
    with tempfile.TemporaryDirectory() as tmp:
        out, result = Path(tmp) / "out", Path(tmp) / "result.json"
        spec = {"root": str(checkout), "argv": ARGV + ["--out", str(out)], "mode": "plain",
                "result": str(result)}
        subprocess.run([sys.executable, str(CHILD), json.dumps(spec)], check=True,
                       stdout=subprocess.DEVNULL)
        run = json.loads(result.read_text(encoding="utf-8"))
        digest = hashlib.sha256((out / "results.json").read_bytes()).hexdigest()
    refs = run.pop("refs")
    del run["t_ready"]
    run["reference_loop_ms"] = {"median": 1e3 * statistics.median(refs), "samples": len(refs)}
    run["results_json_sha256"] = digest
    return run


def _cpu_model() -> str:
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return platform.processor()
    return next((line.split(":", 1)[1].strip() for line in lines if line.startswith("model name")), "")


def _revision(checkout: Path) -> str:
    git = ["git", "-C", str(checkout)]
    rev = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True, check=True).stdout.strip()
    dirty = subprocess.run(git + ["status", "--porcelain", "--", "src"], capture_output=True, text=True).stdout
    return rev + ("+dirty" if dirty.strip() else "")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    record = {
        "task": "1024 nodes, 168 slots, one topology, four stabilizers in lockstep, b=40, swdbg, one worker",
        "command": " ".join(["skipchurn"] + ARGV),
        "host": {"platform": platform.platform(), "processor": _cpu_model(), "cpus": os.cpu_count(),
                 "python": platform.python_version(), "numpy": numpy.__version__},
        "phase_totals": None,
        "phase_totals_note": "left out: the engine does not time its phases yet",
        "sides": {name: {"revision": _revision(path), "runs": []} for name, path in sides.items()},
    }
    for _ in range(RUNS):
        for name, path in sides.items():
            run = run_once(path)
            record["sides"][name]["runs"].append(run)
            print(name, json.dumps(run), flush=True)
    digests = {run["results_json_sha256"] for side in record["sides"].values() for run in side["runs"]}
    record["digests_equal"] = len(digests) == 1
    args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0 if record["digests_equal"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
