"""Predictor comparison without the overlay.

Runs the engine's ``ChurnProcess`` and feeds every requested predictor kind
through its own ``PredictorLayer``, accumulating per-slot prediction error for
every registered node, so the kinds are compared on identical status traces.
Churn is drawn from the stream ``[seed, topology, 2]``, not the run's
``[seed, topology, 1]``, so the table scores a different churn realization
than ``run`` does.  No searches run, hence no messages: predictors that feed
on incoming traffic receive none here.

A bench reads ``capacity``, ``slots``, ``topologies``, ``seed`` and
``churn`` from its ``SimConfig``; the kinds are passed on their own, so the
config's ``predictor``, like its overlay and stabilizer settings, is not
read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Not called here: perfbench/tracing.py patches these names in this module and
# reports a missing trace target if they are gone.  The draws run in
# engine.ChurnProcess.
from .churn import draw_arrival_count, draw_session_length  # noqa: F401
from .engine import ChurnProcess, SimConfig, topology_map
from .predictors import PredictorLayer


@dataclass
class PredictorBenchResult:
    kinds: list[str]
    error_sums: dict[str, float] = field(default_factory=dict)
    samples: int = 0
    per_topology_errors: dict[str, list[float]] = field(default_factory=dict)
    right_size_sum: int = 0
    right_size_samples: int = 0

    def mean_error(self, kind: str) -> float:
        return self.error_sums[kind] / self.samples if self.samples else 0.0

    def mean_right_state_size(self) -> float:
        return self.right_size_sum / self.right_size_samples if self.right_size_samples else 0.0

    def table(self) -> list[tuple[str, float, float]]:
        """(kind, mean error, across-topology std), best first."""
        rows = []
        for kind in self.kinds:
            per = self.per_topology_errors[kind]
            mean = self.mean_error(kind)
            std = float(np.std(per)) if per else 0.0
            rows.append((kind, mean, std))
        rows.sort(key=lambda r: r[1])
        return rows


def _bench_one_topology(args) -> tuple[dict[str, float], int, int, int]:
    config, kinds, topo_index = args
    capacity, slots = config.capacity, config.slots
    rng = np.random.default_rng([config.seed, topo_index, 2])
    # churn only needs node count, not identities: registry indices 0..capacity-1
    churn = ChurnProcess(config.churn, capacity)
    layers = {k: PredictorLayer(k, capacity) for k in kinds}
    err = {k: 0.0 for k in kinds}
    right_sum = right_samples = 0
    for slot in range(slots):
        arrivals = churn.arrive(rng)
        for k, layer in layers.items():
            for i in arrivals:
                layer.catch_up(i, slot)
            layer.feed_online(churn.online, slot)
            err[k] = layer.error_sum(churn.online, err[k])
            size_sum, samples = layer.wide_end_sample()
            right_sum += size_sum
            right_samples += samples
        churn.depart()
    return err, slots * capacity, right_sum, right_samples


def run_predictor_bench(
    config: SimConfig, kinds: tuple[str, ...], workers: int
) -> PredictorBenchResult:
    """Benchmark predictor kinds on shared churn traces.

    Deterministic for a fixed ``config``; the worker count does not affect the
    result.  ``workers`` processes share the topologies as in ``run``
    (``engine.topology_map``).
    """
    result = PredictorBenchResult(
        kinds=list(kinds),
        error_sums={k: 0.0 for k in kinds},
        per_topology_errors={k: [] for k in kinds},
    )
    jobs = [(config, tuple(kinds), t) for t in range(config.topologies)]
    with topology_map(workers, config.topologies) as run:
        raw = list(run(_bench_one_topology, jobs))
    for err, samples, right_sum, right_samples in raw:
        for k in kinds:
            result.error_sums[k] += err[k]
            result.per_topology_errors[k].append(err[k] / samples if samples else 0.0)
        result.samples += samples
        result.right_size_sum += right_sum
        result.right_size_samples += right_samples
    return result
