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

DEFAULT_SESSION_SHAPE = 0.59
DEFAULT_SESSION_MEAN_HOURS = 2.71
DEFAULT_INTERARRIVAL_MEAN_SECONDS = 39.86


@dataclass(frozen=True)
class ChurnModel:
    kind: str = "debian"
    session_shape: float = DEFAULT_SESSION_SHAPE
    session_mean_hours: float = DEFAULT_SESSION_MEAN_HOURS
    interarrival_mean_seconds: float = DEFAULT_INTERARRIVAL_MEAN_SECONDS
    uniform_q: float = 0.82
    arrival_process: str = "poisson"

    def __post_init__(self) -> None:
        if self.kind not in CHURN_KINDS:
            raise ValueError(f"unknown churn kind: {self.kind}")
        if self.session_shape <= 0 or self.session_mean_hours <= 0:
            raise ValueError("session shape and mean must be positive")
        if self.interarrival_mean_seconds <= 0:
            raise ValueError("interarrival mean must be positive")
        if not 0.0 <= self.uniform_q <= 1.0:
            raise ValueError("uniform failure probability must be in [0, 1]")
        if self.arrival_process not in ("poisson", "fixed"):
            raise ValueError(f"unknown arrival process: {self.arrival_process}")

    @property
    def session_scale_hours(self) -> float:
        # Scale chosen so the configured mean is exact for the given shape.
        return self.session_mean_hours / math.gamma(1.0 + 1.0 / self.session_shape)

    @property
    def arrivals_per_slot(self) -> float:
        return SLOT_SECONDS / self.interarrival_mean_seconds


def draw_session_hours(model: ChurnModel, rng: np.random.Generator) -> float:
    return float(rng.weibull(model.session_shape)) * model.session_scale_hours


def draw_session_length(model: ChurnModel, rng: np.random.Generator) -> int:
    """Session length in whole slots: Weibull hours rounded up, at least 1."""
    return max(1, math.ceil(draw_session_hours(model, rng)))


def draw_arrival_count(model: ChurnModel, rng: np.random.Generator) -> int:
    """Number of arrivals in one slot."""
    if model.arrival_process == "fixed":
        return round(model.arrivals_per_slot)
    return int(rng.poisson(model.arrivals_per_slot))

