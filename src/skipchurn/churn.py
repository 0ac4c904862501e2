"""Churn workload generation.

The measured (``debian``) churn profile draws session lengths from a Weibull
distribution and aggregate hourly arrival counts from a Poisson process; the
``uniform`` model flips every node online independently each slot with
probability 1 - q.  Uniform churn drives the analytical cross-checks and, at
q = 0, the benchmark's churn-free self-check (``perfbench/run.py``).  The
settings of both are fields of ``engine.SimConfig``, which checks them.
"""

from __future__ import annotations

import math

import numpy as np

CHURN_KINDS = ("debian", "uniform")

SLOT_SECONDS = 3600.0

SESSION_SHAPE = 0.59
SESSION_MEAN_HOURS = 2.71
# Scale chosen so the Weibull mean is exactly SESSION_MEAN_HOURS.
SESSION_SCALE_HOURS = SESSION_MEAN_HOURS / math.gamma(1.0 + 1.0 / SESSION_SHAPE)
# The largest per-slot arrival rate the model accepts: numpy's Poisson sampler
# raises "lam value too large" on a rate above about 9.223e18.
MAX_ARRIVAL_RATE = 9.2e18


def draw_session_length(rng: np.random.Generator) -> int:
    """Session length in whole slots: Weibull hours rounded up, at least 1."""
    return max(1, math.ceil(float(rng.weibull(SESSION_SHAPE)) * SESSION_SCALE_HOURS))


def draw_arrival_count(interarrival_mean_seconds: float, rng: np.random.Generator) -> int:
    """Number of arrivals in one slot."""
    return int(rng.poisson(SLOT_SECONDS / interarrival_mean_seconds))
