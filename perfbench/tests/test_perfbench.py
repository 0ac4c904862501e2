"""Tests of the benchmark harness itself: tracing, checks and metric names.

Run with ``python3 -m pytest perfbench/tests``.
"""

import json
import re
import time
from pathlib import Path

import pytest

import checks
import run
import tracing
from skipchurn import cli

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9_.-]+")
TINY = run.Workload(
    ("run", "--capacity", "64", "--slots", "3", "--topologies", "1", "--predictor", "swdbg",
     "--stabilizer", "interlaced,kademlia,dks,none", "--backup-size", "8"),
    checks.RUN_FILES, 64, 3, 4,
)
# Added by run.traced_run from the untraced and traced operations together.
RUN_LEVEL_TRACE_METRICS = {"trace.run_s", "trace.overhead_s", "engine.searches_per_s"}


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _cli(entry, out: Path) -> None:
    assert entry(list(TINY.argv) + ["--seed", "3", "--workers", "1", "--out", str(out)]) == 0


def test_uninstall_restores_every_patched_attribute():
    targets = tracing.layer_targets()
    before = [(owner, attr, vars(owner)[attr]) for _, owner, attr, _ in targets]
    tracer = tracing.Tracer()
    tracer.install(targets)
    try:
        assert tracer.missing == []
        assert all(vars(owner)[attr] is not fn for owner, attr, fn in before)
    finally:
        tracer.uninstall()
    assert all(vars(owner)[attr] is fn for owner, attr, fn in before)


def test_self_time_on_synthetic_span_tree():
    s = 1_000_000_000
    names = ["root", "a", "b"]
    # root [0, 100] holds a [10, 60] and a [70, 90]; the first a holds b [20, 30],
    # the second a holds a nested a [75, 80].
    codes = [0, 1, 2, 1, 1]
    parents = [-1, 0, 1, 0, 3]
    starts = [0, 10 * s, 20 * s, 70 * s, 75 * s]
    ends = [100 * s, 60 * s, 30 * s, 90 * s, 80 * s]
    got = tracing.summarize(names, codes, parents, starts, ends)
    assert got["root"] == {"calls": 1, "s": 100.0, "self_s": 30.0}
    assert got["a"] == {"calls": 3, "s": 70.0, "self_s": 60.0}
    assert got["b"] == {"calls": 1, "s": 10.0, "self_s": 10.0}
    assert sum(row["self_s"] for row in got.values()) == got["root"]["s"]


def test_digest_check_rejects_perturbed_output(tmp_path):
    _cli(cli.main, tmp_path)
    searches, pinned, problems = run.check_outputs(TINY, tmp_path, None)
    assert searches > 0 and problems == []
    assert run.check_outputs(TINY, tmp_path, pinned)[2] == []
    path = tmp_path / "results.csv"
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace(",1,3,3\n", ",1,3,4\n", 1), encoding="utf-8")
    _, found, problems = run.check_outputs(TINY, tmp_path, pinned)
    assert found != pinned
    assert any("digest" in p for p in problems)
    assert any("csv seed=4" in p for p in problems)


def test_traced_output_matches_untraced_and_layers_add_up(tmp_path):
    _cli(cli.main, tmp_path / "plain")
    tracer = tracing.Tracer()
    tracer.install(tracing.layer_targets())
    try:
        t0 = time.perf_counter()
        _cli(tracer.wrap(tracing.ROOT, cli.main), tmp_path / "traced")
        run_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    assert checks.digest(tmp_path / "plain", checks.RUN_FILES) == checks.digest(
        tmp_path / "traced", checks.RUN_FILES
    )
    metrics = tracing.layer_metrics(tracer, run_s)
    assert metrics["trace.attributed_share"][0] == pytest.approx(1.0, abs=0.05)
    assert metrics["engine.run_search.calls"][0] == metrics["engine.run_search.samples"][0] > 0
    assert metrics["stabilizers.update.calls"][0] > 0
    assert metrics["trace.missing_targets"][0] == 0
    declared = {m["name"] for m in _benchmark()["per_layer"]}
    assert set(metrics) | RUN_LEVEL_TRACE_METRICS == declared


def test_every_metric_name_is_well_formed():
    bench = _benchmark()
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in bench[key]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)


def test_timed_run_reports_every_end_to_end_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setitem(run.WORKLOADS, "tiny", TINY)
    runner = run.Runner("tiny", 3, time.monotonic())
    assert runner.self_check() == []
    record = {}
    outcome = run.timed_run(runner, 0.0, record)
    assert (outcome["attempted"], outcome["failed"]) == (1, 0)
    declared = {m["name"]: m["unit"] for m in _benchmark()["end_to_end"]}
    assert {k: unit for k, (_, unit) in outcome["metrics"].items()} == declared
    assert all(value > 0 for value, _ in outcome["metrics"].values())
