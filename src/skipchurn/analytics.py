"""Closed-form analysis of search survival under uniform churn.

The chain estimates, for a system of n identifiers: the probability p that a
uniformly chosen neighbor is a usable routing candidate for a uniformly chosen
hop, its online version p' = p(1-q), the probability (1-p')^b that none of b
uniformly chosen backup neighbors can rescue a hop, the expected path length
1/p_f until such a total failure, the expected online population (1-q)n, and
the smallest backup budget whose failure-free path expectation covers a target
path length.
"""

from __future__ import annotations

import math


def candidate_probability(n: int) -> float:
    """Average of (t - x)/(n - x + 1) over x in [0, n], t in [x, n], times 1/n^2.

    The inner sum over t collapses to (n - x)/2 and the outer one to
    n(n + 1)/4, so the average is (n + 1)/(4n), which converges to 1/4.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return (n + 1) / (4 * n)


def effective_probability(p: float, q: float) -> float:
    """Candidate probability discounted by the uniform online probability."""
    if not 0.0 <= p <= 1.0 or not 0.0 <= q <= 1.0:
        raise ValueError("p and q must be probabilities")
    return p * (1.0 - q)


def failure_probability(p_effective: float, b: int) -> float:
    """Probability that none of b uniformly chosen backups is usable."""
    if not 0.0 <= p_effective <= 1.0:
        raise ValueError("p' must be a probability")
    if b < 0:
        raise ValueError("b must be >= 0")
    return (1.0 - p_effective) ** b


def expected_failure_path(p_f: float) -> float:
    """Expected number of hops until a non-recoverable failure."""
    if not 0.0 < p_f <= 1.0:
        raise ValueError("p_f must be in (0, 1]")
    return 1.0 / p_f


def expected_online(n: int, q: float) -> float:
    """Expected online population under the uniform model."""
    if n < 0 or not 0.0 <= q <= 1.0:
        raise ValueError("invalid population or failure probability")
    return (1.0 - q) * n


def estimate_search_path_bound(online_count: int) -> int:
    """Ceiling of log2 of the online population."""
    if online_count < 1:
        raise ValueError("online count must be >= 1")
    return math.ceil(math.log2(online_count))


def estimate_backup_size(n: int, q: float, target_e_f: float) -> int:
    """Smallest b up to 10**7 whose expected failure-free path reaches ``target_e_f``."""
    if q >= 1.0:
        raise ValueError("no online candidates possible")
    if not 0 < target_e_f < math.inf:
        raise ValueError(f"target path length must be positive and finite, got {target_e_f}")
    p_eff = effective_probability(candidate_probability(n), q)
    # p_f falls as b grows: if b = 10**7 leaves the path short of the target, no b reaches it.
    p_f = failure_probability(p_eff, 10**7)
    if p_f > 0 and expected_failure_path(p_f) < target_e_f:
        raise ValueError(f"no backup size up to 10,000,000 reaches target path length {target_e_f}")
    # (1 - p')^b = 1/target at b = log(target) / -log(1 - p'); rounding moves
    # the smallest b by a step at most, so step from there
    b = max(0, math.ceil(math.log(target_e_f) / -math.log1p(-p_eff)))
    while b > 0 and expected_failure_path(failure_probability(p_eff, b - 1)) >= target_e_f:
        b -= 1
    while expected_failure_path(failure_probability(p_eff, b)) < target_e_f:
        b += 1
    return b


def analysis_chain(n: int, q: float, b: int | None = None, target_e_f: float | None = None) -> dict:
    """Full chain as a dictionary, for the ``analyze`` CLI subcommand."""
    p = candidate_probability(n)
    p_eff = effective_probability(p, q)
    out: dict = {
        "n": n,
        "q": q,
        "candidate_probability": p,
        "effective_probability": p_eff,
        "expected_online": expected_online(n, q),
    }
    online = expected_online(n, q)
    if online >= 1:
        out["search_path_bound"] = estimate_search_path_bound(int(online))
    if b is not None:
        p_f = failure_probability(p_eff, b)
        if p_f == 0.0:
            raise ValueError(f"b = {b} is too large: the failure probability (1 - p')^b underflows to 0")
        out["b"] = b
        out["failure_probability"] = p_f
        out["expected_failure_path"] = expected_failure_path(p_f)
    if target_e_f is not None:
        out["target_expected_failure_path"] = target_e_f
        out["estimated_backup_size"] = estimate_backup_size(n, q, target_e_f)
    return out
