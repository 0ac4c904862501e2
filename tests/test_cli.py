import importlib.util
import json
import os
import re
import subprocess
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from skipchurn import cli, predictors
from skipchurn.engine import SimConfig
from skipchurn.overlay import ConfigError
from skipchurn.predictors import PREDICTOR_KINDS
from skipchurn.stabilizers import STABILIZER_KINDS, DksPointers

# field name -> (value text, parsed value); every value differs from its default
FIELD_SETTINGS = {
    "capacity": ("128", 128),
    "slots": ("5", 5),
    "topologies": ("2", 2),
    "backup_size": ("7", 7),
    "stabilizer": ("dks", "dks"),
    "predictor": ("lifetime", "lifetime"),
    "search_cap": ("17", 17),
    "seed": ("9", 9),
    "churn_kind": ("uniform", "uniform"),
    "interarrival_mean_seconds": ("20", 20.0),
    "uniform_q": ("0.5", 0.5),
}

# Settings that no experiment varied, now constants: no file key or flag sets them.
REMOVED_KEYS = ("timeout-multiplier", "rtt-base-ms", "rtt-per-unit-ms", "pred-error", "max-state-size",
                "session-shape", "session-mean-hours", "arrival-process", "format")


def _from_file(tmp_path: Path, text: str, command: str = "run") -> cli.RunSpec:
    path = tmp_path / "run.conf"
    path.write_text(text, encoding="utf-8")
    return _from_flags(["--config", str(path)], command)


def _from_flags(flags: list[str], command: str = "run") -> cli.RunSpec:
    args = cli.build_parser().parse_args([command, *flags])
    return cli.parse_config(args.config, cli._overrides_from_args(args))


def test_every_config_key_is_its_field_name():
    names = {f.name for f in fields(SimConfig)}
    assert set(cli.DEFAULTS) == {name.replace("_", "-") for name in names} | {"workers", "out"}
    assert set(FIELD_SETTINGS) == names


@pytest.mark.parametrize("name", sorted(FIELD_SETTINGS))
def test_field_from_file_and_flag_agree(tmp_path, name):
    key = name.replace("_", "-")
    text, value = FIELD_SETTINGS[name]
    by_file = _from_file(tmp_path, f"{key} = {text}\n")
    by_flag = _from_flags([f"--{key}", text])
    assert by_file == by_flag
    assert getattr(by_flag.base, name) == value
    assert value != getattr(SimConfig(), name)


def test_search_cap_none_from_file_and_flag(tmp_path):
    # the cap is a count; one of at least capacity * (capacity - 1) // 2 never binds
    with pytest.raises(ConfigError, match="invalid value for search-cap: 'none'"):
        _from_file(tmp_path, "search-cap = none\n")
    with pytest.raises(ConfigError, match="invalid value for search-cap: 'none'"):
        _from_flags(["--search-cap", "none"])


def _load(path: Path, monkeypatch):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, path.stem, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_benchmark_command_lines_parse(tmp_path, monkeypatch):
    # The benchmark's command lines, read from its own files: a key, value
    # spelling or flag abbreviation they use and the parser lost fails here.
    monkeypatch.setattr(sys, "path", list(sys.path))  # perfbench/run.py puts its folder first
    root = Path(__file__).resolve().parent.parent
    workloads = _load(root / "perfbench" / "run.py", monkeypatch).WORKLOADS
    argvs = [[*wl.argv, "--seed", "1", "--workers", "1"] for wl in workloads.values()]
    argvs.append(_load(root / "scripts" / "bench_paper_cell.py", monkeypatch).ARGV)
    for argv in argvs:
        args = cli.build_parser().parse_args([*argv, "--out", str(tmp_path)])
        cli.parse_config(args.config, cli._overrides_from_args(args))


def test_flags_win_over_file(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("slots = 4\nbackup-size = 8, 40  # two sizes\n", encoding="utf-8")
    spec = _from_flags(["--config", str(path), "--slots", "6"])
    assert spec.base.slots == 6
    assert spec.sweep["backup_size"] == [8, 40]


def test_cells_nest_stabilizer_outermost_and_backup_size_fastest(tmp_path):
    stabilizers, predictors, sizes = ["kademlia", "interlaced"], ["lifetime", "dbg3"], [40, 8]
    expected = [(s, p, b) for s in stabilizers for p in predictors for b in sizes]
    argv = ["--capacity", "16", "--slots", "2", "--topologies", "1", "--search-cap", "5",
            "--workers", "1", "--out", str(tmp_path),
            "--stabilizer", ",".join(stabilizers), "--predictor", ",".join(predictors),
            "--backup-size", ",".join(map(str, sizes))]
    cells = _from_flags(argv).combinations()
    assert [(c.stabilizer, c.predictor, c.backup_size) for c in cells] == expected
    assert cli.main(["run", *argv]) == 0
    rows = (tmp_path / "results.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert [tuple(row.split(",")[:3]) for row in rows] == [(s, p, str(b)) for s, p, b in expected]


def test_every_sweep_value_is_checked():
    with pytest.raises(ConfigError, match="unknown stabilizer"):
        _from_flags(["--stabilizer", "interlaced,chord"])


@pytest.mark.parametrize("text, message", [
    ("colour = red\n", "unknown config key"),
    ("capacity = many\n", "invalid value for capacity"),
    ("slots = 3\nslots = 5\n", "run.conf:2: slots given twice"),
    ("backup-size = 8\n# the larger size\nbackup-size = 40\n", "run.conf:3: backup-size given twice"),
    *((f"{key} = 1\n", "unknown config key") for key in REMOVED_KEYS),
])
def test_bad_config_file_rejected(tmp_path, text, message):
    for command in ("run", "predict-bench"):
        with pytest.raises(ConfigError, match=message):
            _from_file(tmp_path, text, command)


def _bench_rows(capsys, argv: list[str]) -> list[str]:
    assert cli.main(["predict-bench", "--capacity", "16", "--slots", "3", "--topologies", "1",
                     "--workers", "1", *argv]) == 0
    lines = capsys.readouterr().out.splitlines()
    return sorted(line.split()[0] for line in lines[1:] if not line.startswith("mean wide-end"))


def test_predict_bench_honours_config_file_predictor(tmp_path, capsys):
    path = tmp_path / "bench.conf"
    path.write_text("predictor = lifetime,dbg2\n", encoding="utf-8")
    assert _bench_rows(capsys, ["--config", str(path)]) == ["dbg2", "lifetime"]


def test_predict_bench_runs_every_kind_by_default(capsys):
    assert _bench_rows(capsys, []) == sorted(PREDICTOR_KINDS)


def test_predict_bench_writes_table_for_out_from_file_or_flag(tmp_path, capsys):
    path = tmp_path / "bench.conf"
    path.write_text(f"predictor = lifetime\nout = {tmp_path / 'by_file'}\n", encoding="utf-8")
    _bench_rows(capsys, ["--config", str(path)])
    _bench_rows(capsys, ["--predictor", "lifetime", "--out", str(tmp_path / "by_flag")])
    by_file = (tmp_path / "by_file" / "predictor_errors.csv").read_text(encoding="utf-8")
    by_flag = (tmp_path / "by_flag" / "predictor_errors.csv").read_text(encoding="utf-8")
    assert by_file == by_flag
    assert by_file.splitlines()[0] == "predictor,mean_error,std_across_topologies"
    assert by_file.splitlines()[1].startswith("lifetime,")


def test_predict_bench_without_out_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _bench_rows(capsys, ["--predictor", "lifetime"])
    assert list(tmp_path.iterdir()) == []


def test_predict_bench_rejects_trace(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["predict-bench", "--trace", "--capacity", "16", "--slots", "1",
                  "--topologies", "1", "--workers", "1", "--predictor", "lifetime"])
    assert exc.value.code != 0
    assert "--trace" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "predict-bench"])
@pytest.mark.parametrize("flags, message", [
    (["--seed", "-1"], "seed must be >= 0"),
    (["--workers", "0"], "workers must be >= 1"),
    (["--workers", "-2"], "workers must be >= 1"),
    (["--config", "."], "config file not readable: .: "),
    (["--backup-size", "8,8"], "backup-size lists a value twice: 8,8"),
    (["--stabilizer", "dks,none,dks"], "stabilizer lists a value twice: dks,none,dks"),
    *(([f"--{key}", "1"], f"unrecognized arguments: --{key} 1") for key in REMOVED_KEYS),
    (["--inter", "300"], "unrecognized arguments: --inter 300"),
    (["--unif", "0.5"], "unrecognized arguments: --unif 0.5"),
    (["--interarrival-mean-seconds", "nan"], "interarrival mean must be positive"),
    (["--interarrival-mean-seconds", "1e-300"], "interarrival mean must be at least"),
    (["--churn-kind", "bogus"], "unknown churn kind: bogus"),
    (["--uniform-q", "1.5"], "uniform-q must be in [0, 1], got 1.5"),
    (["--uniform-q", "nan"], "uniform-q must be in [0, 1], got nan"),
    (["--uniform-q", "-0.1"], "uniform-q must be in [0, 1], got -0.1"),
], ids=["seed-negative", "workers-0", "workers-negative", "config-directory", "backup-size-repeated",
        "stabilizer-repeated", *(f"{key}-removed" for key in REMOVED_KEYS), "inter-abbreviated",
        "unif-abbreviated", "interarrival-nan", "interarrival-1e-300", "churn-kind-bogus", "uniform-q-1.5",
        "uniform-q-nan", "uniform-q-negative"])
def test_out_of_range_input_exits_2_before_any_work(tmp_path, capsys, command, flags, message):
    out = tmp_path / "out"
    argv = [command, "--capacity", "16", "--slots", "2", "--topologies", "1", "--out", str(out)]
    try:
        code = cli.main([*argv, *flags])
    except SystemExit as exc:  # argparse rejects an unknown flag itself
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "topology" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, name", [
    pytest.param("run", None, id="run"),
    pytest.param("predict-bench", None, id="predict-bench"),
    *(pytest.param("run", name, id=f"run-{name}") for name in ("results.csv", "results.json", "trace.ndjson")),
    pytest.param("predict-bench", "predictor_errors.csv", id="predict-bench-predictor_errors.csv"),
])
def test_uncreatable_out_dir_exits_2_before_any_work(tmp_path, capsys, monkeypatch, command, name):
    # Either the output directory cannot be made, or a directory takes the
    # name of a file the command writes; both are found before any work.
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the output files were checked")

    monkeypatch.setattr(cli, "run_combination", no_work)
    monkeypatch.setattr(cli, "run_predictor_bench", no_work)
    argv = [command, "--capacity", "16", "--slots", "2", "--topologies", "1", "--workers", "1"]
    if name is None:
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        out = blocker / "sub"
        message = f"error: output directory not writable: {out}: "
    else:
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        message = f"error: output file is not a regular file: {out / name}\n"
        argv += ["--trace"] if name == "trace.ndjson" else []
    assert cli.main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message)
    assert captured.err.count("\n") == 1


def test_a_failed_write_exits_1_with_one_error_line(tmp_path, capsys, monkeypatch):
    def disk_full(*args):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "emit_reports", disk_full)
    argv = ["run", "--capacity", "16", "--slots", "2", "--topologies", "1", "--workers", "1"]
    assert cli.main([*argv, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.endswith("\nerror: [Errno 28] No space left on device\n")


SMALL_RUN = ["run", "--capacity", "64", "--slots", "6", "--search-cap", "20",
             "--interarrival-mean-seconds", "300", "--workers", "1"]


def test_one_progress_line_per_finished_topology(tmp_path, capsys):
    argv = SMALL_RUN + ["--topologies", "3", "--stabilizer", "kademlia,none", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    lines = [line for line in capsys.readouterr().err.splitlines() if not line.startswith("wrote ")]
    assert len(lines) == 3
    for t, line in enumerate(lines):
        assert re.fullmatch(rf"\[{t + 1}/3\] topology {t}: 2 cells, \d+\.\d\d s", line), line


def test_failing_cell_names_itself_and_its_topology(tmp_path, capsys, monkeypatch):
    def broken(self, *args):
        raise RuntimeError("boom")

    monkeypatch.setattr(DksPointers, "resolve", broken)
    argv = SMALL_RUN + ["--topologies", "2", "--stabilizer", "kademlia,dks", "--backup-size", "8",
                        "--out", str(tmp_path)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "error: topology 0 failed: combination dks/swdbg/b=8 failed: boom\n" in err
    assert not (tmp_path / "results.json").exists()


def test_an_internal_fault_exits_1_in_both_commands_and_a_bad_flag_still_exits_2(tmp_path, capsys, monkeypatch):
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(predictors, "_solve", singular)
    # 12 arrivals a slot keep some of the 64 nodes offline, so the chains need solves
    argv = ["--capacity", "64", "--slots", "6", "--topologies", "1", "--workers", "1", "--predictor", "swdbg",
            "--interarrival-mean-seconds", "300"]
    assert cli.main(["run", *argv, "--search-cap", "20", "--out", str(tmp_path)]) == 1
    assert "error: topology 0 failed: Singular matrix\n" in capsys.readouterr().err
    assert cli.main(["predict-bench", *argv]) == 1
    assert "error: topology 0 failed: Singular matrix\n" in capsys.readouterr().err
    assert cli.main(["predict-bench", *argv, "--seed", "-1"]) == 2
    assert "error: seed must be >= 0" in capsys.readouterr().err


# A fault in a phase every cell shares, at module level so that the spawned
# workers, which import this script again as their main module, run it too.
SINGULAR_MAIN = """\
import sys

import numpy as np

from skipchurn import cli, predictors


def singular(*args):
    raise np.linalg.LinAlgError("Singular matrix")


predictors._solve = singular

if __name__ == "__main__":
    sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("command", ["run", "predict-bench"])
def test_a_shared_phase_fault_in_a_worker_names_its_topology(tmp_path, command):
    script = tmp_path / "singular_main.py"
    script.write_text(SINGULAR_MAIN, encoding="utf-8")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    argv = [command, "--capacity", "64", "--slots", "6", "--topologies", "2", "--workers", "2",
            "--predictor", "swdbg", "--interarrival-mean-seconds", "300", "--out", str(tmp_path / "out")]
    done = subprocess.run([sys.executable, str(script), *argv], env=env, capture_output=True, text=True)
    assert done.returncode == 1
    assert done.stderr.endswith("error: topology 0 failed: Singular matrix\n"), done.stderr


def test_every_trace_record_names_its_cell_and_topology(tmp_path):
    # The trace of a 2-topology sweep, recounted per cell and slot against
    # results.json; one or two workers write the same bytes.
    argv = ["run", "--capacity", "64", "--slots", "12", "--topologies", "2", "--search-cap", "40",
            "--interarrival-mean-seconds", "300", "--seed", "6", "--stabilizer", ",".join(STABILIZER_KINDS),
            "--predictor", "swdbg,ludp", "--backup-size", "8", "--trace"]
    for workers in (1, 2):
        assert cli.main([*argv, "--workers", str(workers), "--out", str(tmp_path / str(workers))]) == 0
    trace = (tmp_path / "1" / "trace.ndjson").read_bytes()
    assert trace == (tmp_path / "2" / "trace.ndjson").read_bytes()
    records = [json.loads(line) for line in trace.decode("utf-8").splitlines()]
    topologies = [record["topology"] for record in records]
    assert topologies == sorted(topologies) and set(topologies) == {0, 1}
    counted = Counter()
    for record in records:
        key = (record["stabilizer"], record["predictor"], record["backup_size"], record["slot"])
        counted[key + ("searches_initiated",)] += 1
        counted[key + ("searches_succeeded",)] += record["success"]
        counted[key + ("resolve_invocations",)] += sum(hop["kind"] == "resolve" for hop in record["hops"])
    expected = Counter()
    rows = json.loads((tmp_path / "1" / "results.json").read_text(encoding="utf-8"))["rows"]
    assert len(rows) == 2 * len(STABILIZER_KINDS)
    for row in rows:
        for slot in row["slot_series"]:
            for name in ("searches_initiated", "searches_succeeded", "resolve_invocations"):
                expected[row["stabilizer"], row["predictor"], row["backup_size"], slot["slot_index"], name] = slot[name]
    # the labelled cells are exactly the sweep's cells
    assert {key[:3] for key in counted} == {key[:3] for key in expected}
    assert +counted == +expected
    assert sum(n for key, n in counted.items() if key[-1] == "resolve_invocations") > 1000
