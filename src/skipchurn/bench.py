"""Predictor comparison without the overlay.

Replays the same churn realization through every requested predictor kind and
accumulates per-slot prediction error for every registered node, so the kinds
are compared on identical status traces.  No searches run, hence no messages:
predictors that feed on incoming traffic receive none here.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .churn import ChurnModel, draw_arrival_count, draw_session_length
from .engine import topology_seed
from .predictors import DEFAULT_MAX_STATE_SIZE, PREDICTOR_KINDS, make_predictor


@dataclass
class PredictorBenchResult:
    kinds: list[str]
    capacity: int
    slots: int
    topologies: int
    seed: int
    error_sums: dict[str, float] = field(default_factory=dict)
    samples: int = 0
    per_topology_errors: dict[str, list[float]] = field(default_factory=dict)
    right_size_sum: float = 0.0
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


def _bench_one_topology(args) -> tuple[int, dict[str, float], int, float, int]:
    kinds, capacity, slots, seed, model_fields, max_state_size, error_mode, topo_index = args
    model = ChurnModel(**model_fields)
    rng = np.random.default_rng([seed, topo_index, 2])
    # churn only needs node count, not identities; ids are 0..capacity-1
    predictors = {
        k: [make_predictor(k, capacity, max_state_size, error_mode) for _ in range(capacity)]
        for k in kinds
    }
    online = np.zeros(capacity, dtype=bool)
    session_left = np.zeros(capacity, dtype=np.int64)
    last_slot = np.full(capacity, -1, dtype=np.int64)

    err = {k: 0.0 for k in kinds}
    samples = 0
    right_sum = 0.0
    right_samples = 0
    track_window = "swdbg" in kinds

    for slot in range(slots):
        if model.kind == "debian":
            offline_idx = np.flatnonzero(~online)
            count = min(draw_arrival_count(model, rng), offline_idx.size)
            if count > 0:
                picks = rng.choice(offline_idx.size, size=count, replace=False)
                arrivals = np.sort(offline_idx[picks])
                for i in arrivals.tolist():
                    online[i] = True
                    session_left[i] = draw_session_length(model, rng)
                    for k in kinds:
                        p = predictors[k][i]
                        for _ in range(last_slot[i] + 1, slot):
                            p.update(0)
                    last_slot[i] = slot - 1
        else:
            draws = rng.random(capacity)
            new_online = draws >= model.uniform_q
            arrivals = np.flatnonzero(new_online & ~online)
            online = new_online
            for i in arrivals.tolist():
                for k in kinds:
                    p = predictors[k][i]
                    for _ in range(last_slot[i] + 1, slot):
                        p.update(0)
                last_slot[i] = slot - 1

        on_list = np.flatnonzero(online).tolist()
        for i in on_list:
            for k in kinds:
                predictors[k][i].update(1)
            last_slot[i] = slot

        for i in range(capacity):
            status = 1 if online[i] else 0
            for k in kinds:
                err[k] += abs(predictors[k][i].prediction - status)
            samples += 1
        if track_window:
            wins = predictors["swdbg"]
            right_sum += sum(w.right.state_size for w in wins)
            right_samples += capacity

        if model.kind == "debian":
            for i in on_list:
                session_left[i] -= 1
                if session_left[i] <= 0:
                    online[i] = False

    return topo_index, err, samples, right_sum, right_samples


def run_predictor_bench(
    capacity: int,
    slots: int,
    topologies: int,
    seed: int,
    churn: ChurnModel | None = None,
    kinds: tuple[str, ...] = PREDICTOR_KINDS,
    workers: int = 1,
    max_state_size: int = DEFAULT_MAX_STATE_SIZE,
    error_mode: str = "window",
) -> PredictorBenchResult:
    """Benchmark predictor kinds on shared churn traces.

    Deterministic for a fixed (capacity, slots, topologies, seed, churn,
    max_state_size, error_mode); the worker count does not affect the result.
    ``max_state_size`` and ``error_mode`` reach every predictor as in a run.
    """
    model = churn or ChurnModel()
    result = PredictorBenchResult(
        kinds=list(kinds), capacity=capacity, slots=slots, topologies=topologies, seed=seed
    )
    result.error_sums = {k: 0.0 for k in kinds}
    result.per_topology_errors = {k: [] for k in kinds}
    jobs = [
        (tuple(kinds), capacity, slots, seed, model.__dict__, max_state_size, error_mode, t)
        for t in range(topologies)
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            raw = list(ex.map(_bench_one_topology, jobs))
    else:
        raw = [_bench_one_topology(j) for j in jobs]
    raw.sort(key=lambda r: r[0])
    for _, err, samples, right_sum, right_samples in raw:
        for k in kinds:
            result.error_sums[k] += err[k]
            result.per_topology_errors[k].append(err[k] / samples if samples else 0.0)
        result.samples += samples
        result.right_size_sum += right_sum
        result.right_size_samples += right_samples
    return result
