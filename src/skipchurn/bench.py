"""Predictor comparison without the overlay.

Runs the engine's ``ChurnProcess`` and feeds one ``StatusFeed``: each node's
status history is written once per slot and read by every requested predictor
kind, each through its own ``PredictorLayer``.  Per-slot prediction error is
accumulated for every registered node, so the kinds are compared on identical
status traces.  Churn is drawn from the stream ``[seed, topology, 2]``, not
the run's ``[seed, topology, 1]``, so the table scores a different churn
realization than ``run`` does.  No searches run, hence no messages:
predictors that feed on incoming traffic receive none here.

Each topology yields one engine ``Counters`` per kind, the record ``run``
reports from; ``error_table`` reduces each kind's records to its table row.

A bench reads ``capacity``, ``slots``, ``topologies``, ``seed`` and
``churn`` from its ``SimConfig``; the kinds are passed on their own, so the
config's ``predictor``, like its overlay and stabilizer settings, is not
read.
"""

from __future__ import annotations

import numpy as np

# Not called here: perfbench/tracing.py patches these names in this module and
# reports a missing trace target if they are gone.  The draws run in
# engine.ChurnProcess.
from .churn import draw_arrival_count, draw_session_length  # noqa: F401
from .engine import ChurnProcess, Counters, SimConfig, _ratio, topology_map
from .predictors import StatusFeed


def _bench_one_topology(args) -> dict[str, Counters]:
    """One topology's prediction error and wide-end samples, one ``Counters`` per kind.

    A fault is raised again as a ``RuntimeError`` that names the topology.
    """
    config, kinds, topo_index = args
    capacity, slots = config.capacity, config.slots
    rng = np.random.default_rng([config.seed, topo_index, 2])
    # churn only needs node count, not identities: registry indices 0..capacity-1
    churn = ChurnProcess(config.churn, capacity)
    feed = StatusFeed(capacity)
    layers = {k: feed.layer(k) for k in kinds}
    counters = {k: Counters(prediction_samples=slots * capacity) for k in kinds}
    try:
        for slot in range(slots):
            arrivals = churn.arrive(rng)
            for i in arrivals:
                feed.catch_up(i, slot)
            feed.feed_online(churn.online)
            for k, layer in layers.items():
                c = counters[k]
                # one running total per kind: summing each slot first would round differently
                c.sum_prediction_error = layer.error_sum(churn.online, c.sum_prediction_error)
                size_sum, samples = layer.wide_end_sample()
                c.right_size_sum += size_sum
                c.right_size_samples += samples
            churn.depart()
    except Exception as exc:
        raise RuntimeError(f"topology {topo_index} failed: {exc}") from exc
    return counters


def run_predictor_bench(
    config: SimConfig, kinds: tuple[str, ...], workers: int
) -> dict[str, list[Counters]]:
    """Benchmark predictor kinds on shared churn traces: each kind's per-topology counters.

    Deterministic for a fixed ``config``; the worker count does not affect the
    result.  ``workers`` processes share the topologies as in ``run``
    (``engine.topology_map``).
    """
    jobs = [(config, tuple(kinds), t) for t in range(config.topologies)]
    with topology_map(workers, config.topologies) as run:
        raw = list(run(_bench_one_topology, jobs))
    return {k: [topo[k] for topo in raw] for k in kinds}


def error_table(per_topology: dict[str, list[Counters]]) -> list[tuple[str, float, float]]:
    """(kind, mean error, across-topology std), best first.

    The mean is the summed error over the summed samples; the std is the
    unweighted std of the per-topology means.
    """
    rows = []
    for kind, runs in per_topology.items():
        total = Counters.sum_of(runs)
        mean = _ratio(total.sum_prediction_error, total.prediction_samples)
        std = float(np.std([_ratio(t.sum_prediction_error, t.prediction_samples) for t in runs]))
        rows.append((kind, mean, std))
    return sorted(rows, key=lambda r: r[1])
