"""Host-time benchmark of the ``skipchurn`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation runs one workload through ``skipchurn.cli.main`` with
``--workers 1`` in a fresh interpreter (``child.py``) and checks its output
files.  With ``--trace 0`` operations repeat until ``--seconds`` would be
exceeded, and the end-to-end metrics are medians over them, scaled by a
reference loop timed while each operation runs.  With ``--trace 1``
one untraced and one traced operation run, and the per-layer metrics come from
the traced one.  The last line of standard output is the JSON result; the full
record, with the environment, is written under ``.perfbench_out/`` in the
checkout.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402

ROOT = HERE.parent
CHILD = HERE / "child.py"
GOLDEN = HERE / "golden.json"
OUT = ROOT / ".perfbench_out"

# Every run must end within this many seconds of starting.
RUN_LIMIT_S = 170.0
# The reference loop in child.py takes about this long on the 2-vCPU Xeon host
# the benchmark was set up on, when nothing else slows that host down.
REF_S = 0.0005


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    files: tuple[str, ...]
    capacity: int
    slots: int
    cells: int


WORKLOADS = {
    "cell-interlaced": Workload(
        ("run", "--capacity", "1024", "--slots", "12", "--topologies", "1", "--search-cap", "500",
         "--stabilizer", "interlaced", "--predictor", "swdbg", "--backup-size", "40"),
        checks.RUN_FILES, 1024, 12, 1,
    ),
    "sweep-baselines": Workload(
        ("run", "--capacity", "1024", "--slots", "12", "--topologies", "1", "--search-cap", "500",
         "--stabilizer", "kademlia,dks,none", "--predictor", "swdbg", "--backup-size", "40"),
        checks.RUN_FILES, 1024, 12, 3,
    ),
    "predict-table": Workload(
        ("predict-bench", "--capacity", "1024", "--slots", "24", "--topologies", "1"),
        checks.PREDICT_FILES, 1024, 24, len(checks.PREDICTOR_KINDS),
    ),
}


class OpFailed(Exception):
    pass


def _spawn(spec: dict, deadline: float) -> dict:
    """Run ``child.py`` with ``spec`` and return its result, with ``setup_s`` added."""
    result_path = Path(spec["result"])
    result_path.unlink(missing_ok=True)
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), json.dumps(spec)],
        cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise OpFailed("operation timed out") from None
    if proc.returncode != 0:
        tail = err.decode(errors="replace").strip().splitlines()[-3:]
        raise OpFailed(f"exit code {proc.returncode}: {' | '.join(tail)}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["setup_s"] = result["t_ready"] - t0
    return result


def check_outputs(wl: Workload, out: Path, pinned: str | None) -> tuple[int, str, list[str]]:
    """Searches simulated, output digest and problems found in one operation's output."""
    if wl.files == checks.RUN_FILES:
        searches, problems = checks.check_run(out, wl.capacity, wl.slots, wl.cells)
    else:
        searches, problems = 0, checks.check_predict(out)
    found = checks.digest(out, wl.files)
    if pinned is not None and found != pinned:
        problems.append(f"output digest {found} != pinned {pinned}")
    return searches, found, problems


class Runner:
    def __init__(self, name: str, seed: int, started: float):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.started = started
        self.deadline = started + RUN_LIMIT_S
        self.work = OUT / name
        self.work.mkdir(parents=True, exist_ok=True)
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        self.golden = golden.get(name, {}).get(str(seed))
        self.digests: set[str] = set()

    def spawn(self, argv, mode: str, out_dir: Path) -> dict:
        spec = {
            "root": str(ROOT),
            "argv": [*argv, "--out", str(out_dir)],
            "mode": mode,
            "result": str(self.work / "child-result.json"),
            "spans": str(self.work / "spans.npz"),
        }
        return _spawn(spec, self.deadline)

    def self_check(self) -> list[str]:
        """Churn-free run of all four stabilizers; must succeed before timing."""
        out = self.work / "self-check"
        argv = ["run", "--capacity", "64", "--slots", "4", "--topologies", "1", "--seed", "1",
                "--churn-kind", "uniform", "--uniform-q", "0", "--predictor", "swdbg",
                "--stabilizer", ",".join(checks.SELF_CHECK_STABILIZERS), "--backup-size", "40",
                "--workers", "1"]
        try:
            result = self.spawn(argv, "plain", out)
        except OpFailed as exc:
            return [f"self-check: {exc}"]
        if result["rc"] != 0:
            return [f"self-check: skipchurn returned {result['rc']}"]
        return checks.check_self_check(out)

    def operation(self, mode: str) -> dict:
        """One workload run with its output checked; raises OpFailed on any fault."""
        wl = self.workload
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        argv = wl.argv + ("--seed", str(self.seed), "--workers", "1")
        result = self.spawn(argv, mode, out)
        if result["rc"] != 0:
            raise OpFailed(f"skipchurn returned {result['rc']}")
        result["searches"], result["digest"], problems = check_outputs(wl, out, self.golden)
        self.digests.add(result["digest"])
        if len(self.digests) > 1:
            problems.append(f"output differs between operations: {sorted(self.digests)}")
        if problems:
            raise OpFailed("; ".join(problems[:5]))
        return result


def _scaled(op: dict, key: str) -> float:
    """``op[key]`` scaled to the host's undisturbed speed by the reference loop."""
    return op[key] * statistics.fmean(REF_S / ref for ref in op["refs"])


def timed_run(runner: Runner, seconds: float, record: dict) -> dict:
    """Operations until the next would end more than ``seconds`` after the run started.

    The host runs up to twice as slow for stretches of seconds to minutes.  So
    each operation's process times a short reference loop every
    ``child.PROBE_INTERVAL_S`` while the workload runs, and its times are
    scaled by the mean of ``REF_S`` over those samples.  Every metric is the
    median over the operations; there is always one.
    """
    wl = runner.workload
    ops, errors = [], []
    first = time.monotonic()
    while True:
        try:
            ops.append(runner.operation("plain"))
        except OpFailed as exc:
            errors.append(str(exc))
        now = time.monotonic()
        typical = (now - first) / (len(ops) + len(errors))
        if now + typical > min(runner.started + seconds, runner.deadline):
            break
    record.update(ops=ops, errors=errors)
    metrics = {}
    if ops:
        med = statistics.median
        record["raw"] = {key: med(op[key] for op in ops) for key in ("run_s", "cpu_s", "setup_s")}
        record["ref_s"] = med(med(op["refs"]) for op in ops)
        metrics = {
            "run_s": (med(_scaled(op, "run_s") for op in ops), "s"),
            "cpu_s": (med(_scaled(op, "cpu_s") for op in ops), "s"),
            "node_slots_per_s": (
                med(wl.capacity * wl.slots * wl.cells / _scaled(op, "run_s") for op in ops), "1/s"),
            "setup_s": (med(_scaled(op, "setup_s") for op in ops), "s"),
            "peak_rss_mb": (med(op["peak_rss_mb"] for op in ops), "MB"),
        }
    return {"attempted": len(ops) + len(errors), "failed": len(errors), "metrics": metrics}


def traced_run(runner: Runner, record: dict) -> dict:
    """One untraced then one traced operation; per-layer metrics from the traced one."""
    errors = []
    metrics = {}
    try:
        plain = runner.operation("plain")
        traced = runner.operation("traced")
    except OpFailed as exc:
        errors.append(str(exc))
    else:
        record.update(ops=[plain, traced], missing_targets=traced["missing_targets"])
        metrics = {name: (value, unit) for name, (value, unit) in traced["layers"].items()}
        metrics["trace.run_s"] = (traced["run_s"], "s")
        metrics["trace.overhead_s"] = (_scaled(traced, "run_s") - _scaled(plain, "run_s"), "s")
        metrics["engine.searches_per_s"] = (plain["searches"] / plain["run_s"], "1/s")
        share = metrics["trace.attributed_share"][0]
        if abs(share - 1.0) > 0.05:
            errors.append(f"layer self times cover {share:.3f} of the traced run, not 1 +- 0.05")
    record["errors"] = errors
    return {"attempted": 2, "failed": len(errors), "metrics": metrics}


def _git_revision() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_digest() -> str:
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "loadavg_start": os.getloadavg(),
    }


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "skipchurn" / "cli.py").is_file():
        print(f"error: no skipchurn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed, started)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment()}
    problems = runner.self_check()
    if problems:
        outcome = {"attempted": 1, "failed": 1, "metrics": {}}
        record["errors"] = problems
    elif args.trace:
        outcome = traced_run(runner, record)
    else:
        outcome = timed_run(runner, args.seconds, record)
    ops = record.get("ops", [])
    record["env"]["blas_threads"] = ops[0]["blas_threads"] if ops else None
    record["env"]["loadavg_end"] = os.getloadavg()
    record["digest"] = sorted(runner.digests)
    record["pinned_digest"] = runner.golden
    record["wall_s"] = time.monotonic() - started
    (runner.work / f"record-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str), encoding="utf-8")

    for error in record.get("errors", []):
        print(f"error: {error}", file=sys.stderr)
    print(json.dumps({"env": record["env"], "digest": record["digest"],
                      "raw": record.get("raw"), "ref_s": record.get("ref_s")}))
    correct = not record.get("errors") and bool(ops)
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in outcome["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
