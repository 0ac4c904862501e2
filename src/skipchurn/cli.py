"""Experiment runner: config parsing, sweep execution, report emission.

Configuration is flat ``key = value`` text; command-line flags ``--<key>``
override file values.  The keys are the field names of ``SimConfig`` with
dashes for underscores, each typed by its default; the model's fixed numbers
are constants, not keys (see ``SimConfig``).  ``workers`` and ``out`` configure
the run itself.  The sweep keys are the keys of the fields in
``engine.SWEEP_FIELDS`` (``stabilizer``, ``predictor``, ``backup-size``);
they take comma-separated lists of distinct values.

The ``run`` subcommand executes the sweep, one cell per combination of the
sweep values, and writes ``results.csv`` and ``results.json``; ``analyze``
prints the closed-form chain as JSON, and ``predict-bench`` reproduces the
predictor error table without the overlay.
Report columns are the sweep fields, the figures ``RunMetrics.figures`` returns
and the seed.

A sweep is one task per topology, each running every cell of the sweep in
lockstep (see ``engine``); ``--workers`` processes share the tasks.  Each
cell's topology runs reduce in topology order, so the worker count changes
no output.  ``run --trace`` writes one ``trace.ndjson`` record per search,
labelled with its cell (``stabilizer``, ``predictor``, ``backup_size``) and
``topology``: topology by topology in index order, each slot by slot, each
slot's cells in sweep order.  A failed sweep keeps the trace of the
topologies that finished before the failed one.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import os
import sys
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Optional, TextIO

from .analytics import analysis_chain
from .engine import SWEEP_FIELDS, Counters, RunMetrics, SimConfig, aggregate, run_topology, topology_map
from .bench import error_table, run_predictor_bench
from .overlay import ConfigError
from .predictors import PREDICTOR_KINDS

DEFAULT_WORKERS = max(1, min(8, os.cpu_count() or 1))

# Config key -> field name: each key is its field's name with dashes for underscores.
_SIM_KEYS = {f.name.replace("_", "-"): f.name for f in fields(SimConfig)}
SWEEP_KEYS = {key: name for key, name in _SIM_KEYS.items() if name in SWEEP_FIELDS}


def _defaults() -> dict:
    values = {key: getattr(SimConfig, name) for key, name in _SIM_KEYS.items()}
    values.update({key: [values[key]] for key in SWEEP_KEYS})
    values.update(workers=DEFAULT_WORKERS, out="results")
    return values


DEFAULTS = _defaults()


@dataclass
class RunSpec:
    """A resolved experiment matrix: one base config plus a value list per sweep field."""

    base: SimConfig
    sweep: dict[str, list]
    out_dir: Optional[Path]
    workers: int = DEFAULT_WORKERS

    def combinations(self) -> list[SimConfig]:
        """Every cell, the first of ``SWEEP_FIELDS`` outermost and the last varying fastest."""
        return [
            replace(self.base, **dict(zip(SWEEP_FIELDS, values)))
            for values in itertools.product(*(self.sweep[name] for name in SWEEP_FIELDS))
        ]


def report_row(cfg: SimConfig, metrics: RunMetrics) -> dict:
    """One report row by column name: the sweep fields, each figure of ``metrics``, the seed."""
    return {**{name: getattr(cfg, name) for name in SWEEP_FIELDS}, **metrics.figures(), "seed": cfg.seed}


def parse_value(key: str, raw: str):
    """The typed value of ``key`` from its text, as in a config file or flag."""
    default = DEFAULTS[key]
    kind = type(default[0] if key in SWEEP_KEYS else default)

    def one(text: str):
        try:
            return kind(text)
        except ValueError:
            raise ConfigError(f"invalid value for {key}: {text!r}") from None

    if key in SWEEP_KEYS:
        return [one(item.strip()) for item in raw.split(",") if item.strip()]
    return one(raw.strip())


def _read_config_file(path: Path) -> dict:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"config file not readable: {path}: {exc}") from exc
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown config key: {key}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: {key} given twice")
        values[key] = parse_value(key, raw.split("#", 1)[0])
    return values


def parse_config(
    path: Path | None, overrides: dict | None = None, defaults: dict | None = None
) -> RunSpec:
    """Resolve a RunSpec from an optional config file plus typed override values.

    Overrides win over file values, which win over ``defaults`` and then over
    ``DEFAULTS`` (the dataclass defaults: capacity 1024, 168 slots, 100
    topologies, measured churn).
    """
    values = {**DEFAULTS, **(defaults or {})}
    if path is not None:
        values.update(_read_config_file(Path(path)))
    for key, val in (overrides or {}).items():
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key: {key}")
        values[key] = val

    for key in SWEEP_KEYS:
        if not values[key]:
            raise ConfigError(f"{key} needs at least one value")
        if len(set(values[key])) < len(values[key]):
            raise ConfigError(f"{key} lists a value twice: {','.join(map(str, values[key]))}")
    if values["workers"] < 1:
        raise ConfigError(f"workers must be >= 1, got {values['workers']}")
    base = SimConfig(**{name: values[key][0] if key in SWEEP_KEYS else values[key]
                        for key, name in _SIM_KEYS.items()})
    spec = RunSpec(
        base=base,
        sweep={name: list(values[key]) for key, name in SWEEP_KEYS.items()},
        out_dir=None if values["out"] is None else Path(values["out"]),
        workers=values["workers"],
    )
    spec.combinations()  # SimConfig checks every sweep value, not only the first
    return spec


def _topology_task(args: tuple[list[SimConfig], int, bool]) -> tuple[list[RunMetrics], list[str], float]:
    """One topology run of every cell, its labelled trace lines, and its wall seconds."""
    cells, index, trace = args
    started = time.perf_counter()
    lines: list[str] = []
    labels = [{**{name: getattr(cfg, name) for name in SWEEP_FIELDS}, "topology": index} for cfg in cells]
    sinks = [lambda rec, tag=tag: lines.append(json.dumps({**rec, **tag}, sort_keys=True) + "\n") for tag in labels]
    runs = run_topology(cells, index, sinks if trace else None)
    return runs, lines, time.perf_counter() - started


def run_combination(
    cells: list[SimConfig], workers: int = 1, trace: Optional[TextIO] = None
) -> list[RunMetrics]:
    """Every topology run of the sweep, each cell reduced in topology order.

    One task per topology runs all cells in lockstep, spread over processes
    by ``engine.topology_map``.  A line on stderr reports each finished
    topology.  With ``trace``, each topology's per-search records are written
    as it finishes, in topology order, and within one topology slot by slot,
    each slot's cells in sweep order.  Every record names its cell and
    topology (``stabilizer``, ``predictor``, ``backup_size``, ``topology``).
    A failed sweep keeps the trace of the topologies before the failed one.
    """
    topologies = cells[0].topologies
    jobs = [(cells, t, trace is not None) for t in range(topologies)]
    merged: list[Optional[RunMetrics]] = [None] * len(cells)
    with topology_map(workers, topologies) as map_tasks:
        for t, (runs, lines, seconds) in enumerate(map_tasks(_topology_task, jobs)):
            print(f"[{t + 1}/{topologies}] topology {t}: {len(cells)} cells, {seconds:.2f} s",
                  file=sys.stderr)
            # Reduce as topologies finish: one merged run per cell is held.
            for c, run in enumerate(runs):
                merged[c] = aggregate([run] if merged[c] is None else [merged[c], run])
            if trace is not None:
                trace.writelines(lines)
    return merged


def csv_text(columns: list[str], rows) -> str:
    """CSV with a header row; floats are written by ``repr``, so they read back exactly."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([repr(float(v)) if isinstance(v, float) else str(v) for v in row])
    return buf.getvalue()


def emit_reports(results: list[tuple[SimConfig, RunMetrics]], out_dir: Path) -> list[Path]:
    """Write ``results.csv`` and ``results.json``; returns their paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [report_row(cfg, m) for cfg, m in results]
    csv_path = out_dir / "results.csv"
    csv_path.write_text(csv_text(list(rows[0]), [row.values() for row in rows]), encoding="utf-8")
    doc = {"rows": [
        {**row, "slot_series": [asdict(sm) for sm in m.slot_series]}
        for row, (_, m) in zip(rows, results)
    ]}
    json_path = out_dir / "results.json"
    json_path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")), encoding="utf-8")
    return [csv_path, json_path]


def preflight_out_dir(out_dir: Path, names: list[str]) -> None:
    """Create ``out_dir``, prove it writable, and check that each output file
    of ``names`` in it is absent or a regular file; any failure is a ``ConfigError``."""
    out_dir = Path(out_dir)
    probe = out_dir / ".write-probe"
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise ConfigError(f"output directory not writable: {out_dir}: {exc}") from exc
    for path in (out_dir / name for name in names):
        if path.exists() and not path.is_file():
            raise ConfigError(f"output file is not a regular file: {path}")


def _add_override_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None, help="flat key = value config file")
    for key, default in DEFAULTS.items():
        if key in SWEEP_KEYS:
            shown = "comma-separated list, default " + ",".join(map(str, default))
        else:
            shown = f"default {default}"
        parser.add_argument(f"--{key}", dest=key, default=None, help=shown)


def _overrides_from_args(args: argparse.Namespace) -> dict:
    given = {key: getattr(args, key) for key in DEFAULTS}
    return {key: parse_value(key, raw) for key, raw in given.items() if raw is not None}


def _cmd_run(args: argparse.Namespace) -> int:
    spec = parse_config(args.config, _overrides_from_args(args))
    preflight_out_dir(spec.out_dir, ["results.csv", "results.json"] + (["trace.ndjson"] if args.trace else []))
    cells = spec.combinations()
    trace_file = (spec.out_dir / "trace.ndjson").open("w", encoding="utf-8") if args.trace else nullcontext()
    with trace_file as trace:
        runs = run_combination(cells, spec.workers, trace)
    written = emit_reports(list(zip(cells, runs)), spec.out_dir)
    for path in written:
        print(f"wrote {path}", file=sys.stderr)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    chain = analysis_chain(args.n, args.q, b=args.b, target_e_f=args.target_e_f)
    print(json.dumps(chain, indent=2, sort_keys=True))
    return 0


def _cmd_predict_bench(args: argparse.Namespace) -> int:
    # With no predictor key in the config file or flags, every kind runs; with
    # no out key, no table file is written.
    spec = parse_config(
        args.config,
        _overrides_from_args(args),
        defaults={"predictor": list(PREDICTOR_KINDS), "out": None},
    )
    if spec.out_dir is not None:
        preflight_out_dir(spec.out_dir, ["predictor_errors.csv"])
    per_topology = run_predictor_bench(spec.base, tuple(spec.sweep["predictor"]), spec.workers)
    rows = error_table(per_topology)
    width = max(len(k) for k, _, _ in rows)
    print(f"{'predictor':<{width}}  mean_error  std_across_topologies")
    for kind, mean, std in rows:
        print(f"{kind:<{width}}  {mean:10.4f}  {std:.4f}")
    total = Counters.sum_of(t for runs in per_topology.values() for t in runs)
    if total.right_size_samples:
        print(f"mean wide-end state size: {total.right_size_sum / total.right_size_samples:.2f}")
    if spec.out_dir is not None:
        path = spec.out_dir / "predictor_errors.csv"
        path.write_text(csv_text(["predictor", "mean_error", "std_across_topologies"], rows), encoding="utf-8")
        print(f"wrote {path}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skipchurn",
        description="Skip Graph overlay simulator with churn stabilization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute the experiment sweep", allow_abbrev=False)
    _add_override_flags(p_run)
    p_run.add_argument("--trace", action="store_true", help="write per-search trace log")
    p_run.set_defaults(func=_cmd_run)

    p_an = sub.add_parser("analyze", help="print the closed-form analysis chain", allow_abbrev=False)
    p_an.add_argument("--n", type=int, required=True)
    p_an.add_argument("--q", type=float, required=True)
    p_an.add_argument("--b", type=int, default=None)
    p_an.add_argument("--target-e-f", type=float, default=None)
    p_an.set_defaults(func=_cmd_analyze)

    p_pb = sub.add_parser("predict-bench", help="predictor error table, no overlay", allow_abbrev=False)
    _add_override_flags(p_pb)
    p_pb.set_defaults(func=_cmd_predict_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
