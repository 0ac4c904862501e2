"""Churn workload generation.

The measured churn profile draws session lengths from a Weibull distribution
and aggregate hourly arrival counts from a Poisson process; the uniform model
flips every node online independently each slot with probability 1 - q and is
used by the analytical cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

CHURN_KINDS = ("debian", "uniform")

SLOT_SECONDS = 3600.0

SESSION_SHAPE = 0.59
SESSION_MEAN_HOURS = 2.71
# Scale chosen so the Weibull mean is exactly SESSION_MEAN_HOURS.
SESSION_SCALE_HOURS = SESSION_MEAN_HOURS / math.gamma(1.0 + 1.0 / SESSION_SHAPE)
DEFAULT_INTERARRIVAL_MEAN_SECONDS = 39.86
# The largest per-slot arrival rate the model accepts: numpy's Poisson sampler
# raises "lam value too large" on a rate above about 9.223e18.
MAX_ARRIVAL_RATE = 9.2e18


@dataclass(frozen=True)
class ChurnModel:
    kind: str = "debian"
    interarrival_mean_seconds: float = DEFAULT_INTERARRIVAL_MEAN_SECONDS
    uniform_q: float = 0.82

    def __post_init__(self) -> None:
        if self.kind not in CHURN_KINDS:
            raise ValueError(f"unknown churn kind: {self.kind}")
        if not self.interarrival_mean_seconds > 0:  # rejects NaN as well
            raise ValueError(f"interarrival mean must be positive, got {self.interarrival_mean_seconds}")
        if SLOT_SECONDS / self.interarrival_mean_seconds > MAX_ARRIVAL_RATE:
            raise ValueError(
                f"interarrival mean must be at least {SLOT_SECONDS / MAX_ARRIVAL_RATE} seconds,"
                f" got {self.interarrival_mean_seconds}"
            )
        if not 0.0 <= self.uniform_q <= 1.0:
            raise ValueError("uniform failure probability must be in [0, 1]")


def draw_session_length(rng: np.random.Generator) -> int:
    """Session length in whole slots: Weibull hours rounded up, at least 1."""
    return max(1, math.ceil(float(rng.weibull(SESSION_SHAPE)) * SESSION_SCALE_HOURS))


def draw_arrival_count(model: ChurnModel, rng: np.random.Generator) -> int:
    """Number of arrivals in one slot."""
    return int(rng.poisson(SLOT_SECONDS / model.interarrival_mean_seconds))
