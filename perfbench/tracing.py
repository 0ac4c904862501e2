"""In-memory span tracing of skipchurn's layers, installed from outside the package.

``Tracer.install`` replaces each traced function with a wrapper at the place its
caller looks it up: a module global for functions such as ``route_step`` (patched
in ``skipchurn.engine``, which imported it), a class attribute for methods.
Every call records one span (layer code, parent span, start and end in
nanoseconds) in flat arrays, so millions of spans stay small.  ``uninstall``
puts the original objects back.  ``summarize`` turns the spans into per-layer
call counts, inclusive seconds and self seconds.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

ROOT = "cli.main"

# Layer names in report order; ``self_s`` is reported for those marked True,
# the layers whose spans can contain other traced spans.
LAYERS = {
    "engine.run_slot": True,
    "engine.run_search": True,
    "engine.join": True,
    "engine.bring_online": True,
    "engine.aggregate": False,
    "overlay.route_step": False,
    "overlay.join_node": False,
    "overlay.generate_topology": False,
    "stabilizers.update": False,
    "stabilizers.resolve": False,
    "stabilizers.reset": False,
    "predictors.update": True,
    "predictors.stationary": False,
    "predictors.resize": False,
    "churn.draw": False,
    "bench.run_predictor_bench": True,
    "cli.run_combination": True,
    "cli.emit_reports": False,
}


def _count_search(counters: dict, outcome) -> None:
    counters["engine.hops"] += outcome.hops
    counters["engine.resolves"] += outcome.resolve_invocations


def _count_resolve(counters: dict, result) -> None:
    candidate, contacts = result
    counters["stabilizers.resolve.contacts"] += len(contacts)
    counters["stabilizers.resolve.hits"] += candidate is not None


def _classes(module, *required: str):
    """Classes defined in ``module`` whose own namespace has every ``required`` name."""
    return [
        obj
        for obj in vars(module).values()
        if isinstance(obj, type)
        and obj.__module__ == module.__name__
        and all(name in vars(obj) for name in required)
    ]


def layer_targets() -> list[tuple[str, object, str, object]]:
    """(layer, owner, attribute, result hook) for every traced call site."""
    from skipchurn import bench, cli, engine, predictors, stabilizers

    state = engine.SimulationState
    targets = [
        ("engine.run_slot", engine, "run_slot", None),
        ("engine.run_search", engine, "run_search", _count_search),
        ("engine.join", state, "join", None),
        ("engine.bring_online", state, "bring_online", None),
        ("engine.aggregate", cli, "aggregate", None),
        ("overlay.route_step", engine, "route_step", None),
        ("overlay.join_node", engine, "join_node", None),
        ("overlay.generate_topology", engine, "generate_topology", None),
        ("churn.draw", engine, "draw_arrival_count", None),
        ("churn.draw", engine, "draw_session_length", None),
        ("churn.draw", bench, "draw_arrival_count", None),
        ("churn.draw", bench, "draw_session_length", None),
        ("bench.run_predictor_bench", cli, "run_predictor_bench", None),
        ("cli.run_combination", cli, "run_combination", None),
        ("cli.emit_reports", cli, "emit_reports", None),
    ]
    for cls in _classes(stabilizers, "resolve"):
        targets.append(("stabilizers.resolve", cls, "resolve", _count_resolve))
        for attr in ("update", "reset", "initialize"):
            if attr in vars(cls):
                layer = "stabilizers.update" if attr == "update" else "stabilizers.reset"
                targets.append((layer, cls, attr, None))
    for cls in _classes(predictors, "update", "record_incoming"):
        targets.append(("predictors.update", cls, "update", None))
    for cls in _classes(predictors, "stationary_online_probability"):
        targets.append(("predictors.stationary", cls, "stationary_online_probability", None))
        for attr in ("enlarge", "shrink"):
            if attr in vars(cls):
                targets.append(("predictors.resize", cls, attr, None))
    return targets


class Tracer:
    """Collects spans from wrapped callables; one tracer per traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.codes = array("i")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self._stack = [-1]
        self.counters = {
            "engine.hops": 0,
            "engine.resolves": 0,
            "stabilizers.resolve.contacts": 0,
            "stabilizers.resolve.hits": 0,
        }
        self.missing: list[str] = []
        self._installed: list[tuple[object, str, object]] = []

    def _code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def wrap(self, name: str, fn, hook=None):
        """Return ``fn`` wrapped so that each call records a span named ``name``."""
        code = self._code(name)
        codes, parents, starts, ends = self.codes, self.parents, self.starts, self.ends
        stack = self._stack
        counters = self.counters
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            codes.append(code)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, result)
            return result

        return traced

    def install(self, targets) -> None:
        """Patch every target; a target whose attribute is gone is listed in ``missing``."""
        for layer, owner, attr, hook in targets:
            original = vars(owner).get(attr)
            if original is None:
                self.missing.append(f"{layer}:{getattr(owner, '__name__', owner)}.{attr}")
                continue
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self.wrap(layer, original, hook))

    def uninstall(self) -> None:
        """Restore every patched attribute to the object it held before ``install``."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "codes": np.frombuffer(self.codes, dtype=np.int32).copy(),
            "parents": np.frombuffer(self.parents, dtype=np.int64).copy(),
            "starts": np.frombuffer(self.starts, dtype=np.int64).copy(),
            "ends": np.frombuffer(self.ends, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        """Write all spans and the layer name table as one ``.npz`` file."""
        np.savez(path, names=np.array(self.names), **self.arrays())


def summarize(names: list[str], codes, parents, starts, ends) -> dict[str, dict[str, float]]:
    """Per-layer ``calls``, inclusive ``s`` and ``self_s`` from a span table.

    A span's self time is its duration minus the durations of its direct
    children.  Inclusive time counts only spans whose parent is a different
    layer, so a layer that calls itself is not counted twice.  Every layer in
    ``names`` appears in the result, with zeros when it has no spans.
    """
    codes = np.asarray(codes, dtype=np.int64)
    parents = np.asarray(parents, dtype=np.int64)
    dur = (np.asarray(ends, dtype=np.int64) - np.asarray(starts, dtype=np.int64)) / 1e9
    n_names = len(names)
    has_parent = parents >= 0
    child_sum = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child_sum
    parent_code = np.where(has_parent, codes[np.where(has_parent, parents, 0)], -1)
    outer = parent_code != codes
    calls = np.bincount(codes, minlength=n_names)
    inclusive = np.bincount(codes[outer], weights=dur[outer], minlength=n_names)
    self_s = np.bincount(codes, weights=self_time, minlength=n_names)
    return {
        name: {"calls": int(calls[i]), "s": float(inclusive[i]), "self_s": float(self_s[i])}
        for i, name in enumerate(names)
    }


def layer_metrics(tracer: Tracer, run_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run, keyed by metric name, as (value, unit)."""
    arrays = tracer.arrays()
    summary = summarize(tracer.names, arrays["codes"], arrays["parents"], arrays["starts"], arrays["ends"])
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}
    out: dict[str, tuple[float, str]] = {}
    attributed = 0.0
    for layer, nests in LAYERS.items():
        row = summary.get(layer, empty)
        out[f"{layer}.calls"] = (row["calls"], "count")
        out[f"{layer}.s"] = (row["s"], "s")
        if nests:
            out[f"{layer}.self_s"] = (row["self_s"], "s")
        attributed += row["self_s"]
    root = summary.get(ROOT, empty)
    out["trace.unattributed_s"] = (root["self_s"], "s")
    out["trace.attributed_share"] = ((attributed + root["self_s"]) / run_s if run_s else 0.0, "ratio")

    code = tracer.names.index("engine.run_search") if "engine.run_search" in tracer.names else -1
    mask = arrays["codes"] == code
    search_us = (arrays["ends"][mask] - arrays["starts"][mask]) / 1e3
    searches = len(search_us)
    out["engine.run_search.samples"] = (searches, "count")
    out["engine.run_search.p50_us"] = (float(np.quantile(search_us, 0.5)) if searches else 0.0, "us")
    out["engine.run_search.p99_us"] = (float(np.quantile(search_us, 0.99)) if searches else 0.0, "us")
    c = tracer.counters
    out["engine.hops_per_search"] = (c["engine.hops"] / searches if searches else 0.0, "hops/search")
    out["engine.resolves_per_search"] = (c["engine.resolves"] / searches if searches else 0.0, "1/search")
    resolves = summary.get("stabilizers.resolve", empty)["calls"]
    out["stabilizers.resolve.contacts"] = (c["stabilizers.resolve.contacts"], "count")
    out["stabilizers.resolve.hit_ratio"] = (
        c["stabilizers.resolve.hits"] / resolves if resolves else 0.0, "ratio"
    )
    out["trace.spans"] = (len(arrays["codes"]), "count")
    out["trace.missing_targets"] = (len(tracer.missing), "count")
    return out
