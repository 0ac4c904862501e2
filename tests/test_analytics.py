import json
import resource

import numpy as np
import pytest

from skipchurn import cli
from skipchurn.analytics import (
    candidate_probability,
    effective_probability,
    estimate_backup_size,
    expected_failure_path,
    failure_probability,
)


def candidate_probability_quadratic(n):
    """The literal double sum that ``candidate_probability`` reduces."""
    total = 0.0
    for x in range(0, n + 1):
        denom = n - x + 1
        for t in range(x, n + 1):
            total += (t - x) / denom
    return total / (n * n)


def candidate_probability_array(n):
    """The double sum with its inner sum collapsed to (n - x)/2, summed as an array."""
    x = np.arange(0, n + 1, dtype=float)
    return float(((n - x) / 2.0).sum() / (n * n))


def test_reduced_candidate_probability_matches_double_sum():
    for n in range(1, 301):
        assert candidate_probability(n) == pytest.approx(candidate_probability_quadratic(n), abs=1e-12)


def test_closed_form_equals_the_array_sum():
    ns = [*range(1, 3001), *np.random.default_rng(3).integers(3001, 10**6, size=20).tolist()]
    for n in ns:
        assert candidate_probability(n) == candidate_probability_array(n), n


def test_candidate_probability_of_a_huge_n_allocates_nothing():
    # an array sum over 10**9 + 1 terms would need about 16 GB
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert candidate_probability(10**9) == (10**9 + 1) / (4 * 10**9)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before < 10_000  # KiB


def backup_size_loop(n, q, target):
    """The smallest b reaching ``target``, found by counting up from 0."""
    p_eff = effective_probability(candidate_probability(n), q)
    b = 0
    while expected_failure_path(failure_probability(p_eff, b)) < target:
        b += 1
    return b


def test_estimated_backup_size_equals_the_loop():
    for n in (1, 2, 16, 1024):
        for q in (0.0, 0.2, 0.5, 0.82, 0.99):
            for target in (0.5, 1.0, 1.5, 5.0, 12.0, 40.0, 1e3, 1e6):
                assert estimate_backup_size(n, q, target) == backup_size_loop(n, q, target), (n, q, target)


@pytest.mark.parametrize("n, q, target", [(64, 0.2, 5.0), (1024, 0.5, 12.0), (1024, 0.82, 40.0), (16, 0.0, 1.0)])
def test_estimated_backup_size_is_smallest_reaching_target(n, q, target):
    p_eff = effective_probability(candidate_probability(n), q)

    def reach(b):
        return expected_failure_path(failure_probability(p_eff, b))

    b = estimate_backup_size(n, q, target)
    assert reach(b) >= target
    assert b == 0 or reach(b - 1) < target


def test_analyze_prints_the_chain(capsys):
    assert cli.main(["analyze", "--n", "1024", "--q", "0.5", "--b", "10", "--target-e-f", "12"]) == 0
    chain = json.loads(capsys.readouterr().out)
    assert chain["candidate_probability"] == candidate_probability(1024)
    assert chain["expected_online"] == 512.0
    assert chain["search_path_bound"] == 9
    assert chain["failure_probability"] == failure_probability(chain["effective_probability"], 10)
    assert chain["estimated_backup_size"] == estimate_backup_size(1024, 0.5, 12.0)


def test_analyze_rejects_a_b_whose_failure_probability_underflows(capsys):
    # (1 - p')^b is about 5e-291 at b = 5000 and 0.0 at b = 6000
    assert cli.main(["analyze", "--n", "1024", "--q", "0.5", "--b", "5000"]) == 0
    assert json.loads(capsys.readouterr().out)["failure_probability"] > 0
    assert cli.main(["analyze", "--n", "1024", "--q", "0.5", "--b", "6000"]) == 2
    assert capsys.readouterr().err == (
        "error: b = 6000 is too large: the failure probability (1 - p')^b underflows to 0\n"
    )


@pytest.mark.parametrize("flags, message", [
    (["--q", "0.9999999", "--target-e-f", "1000"],
     "no backup size up to 10,000,000 reaches target path length 1000.0"),
    (["--q", "0.5", "--target-e-f", "nan"], "target path length must be positive and finite, got nan"),
    (["--q", "0.5", "--target-e-f", "inf"], "target path length must be positive and finite, got inf"),
    (["--q", "0.5", "--target-e-f", "0"], "target path length must be positive and finite, got 0.0"),
], ids=["unreachable", "nan", "inf", "zero"])
def test_analyze_rejects_a_target_no_backup_size_reaches(capsys, flags, message):
    assert cli.main(["analyze", "--n", "1024", *flags]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
