"""Plain restatements that tests compare the package's code against: string-based
name-ID arithmetic, routing one level at a time, and the stationary solve
through ``np.linalg.solve``."""

import numpy as np


def common_prefix_length(a: str, b: str) -> int:
    """Number of leading bits shared by two equal-length name IDs."""
    if len(a) != len(b):
        raise ValueError("name IDs must have equal length")
    n = 0
    for ca, cb in zip(a, b):
        if ca != cb:
            break
        n += 1
    return n


def route_stepwise(node_num_id: int, levels, target: int, level: int):
    """The forward of a search at ``node_num_id``, found as a loop that checks
    one level and descends on no result: ``(neighbor, level)``, or ``(None, 0)``
    when no level from ``level`` down has a neighbor strictly past the node and
    not past the target in the target's direction."""
    side = 1 if target > node_num_id else 0
    lo, hi = (node_num_id + 1, target) if side else (target, node_num_id - 1)
    for lvl in range(level, -1, -1):
        nb = levels[lvl][side]
        if nb is not None and lo <= nb.num_id <= hi:
            return nb, lvl
    return None, 0


def stationary_core(P: np.ndarray) -> np.ndarray:
    """Solve pi = pi P with sum(pi) = 1 for an irreducible stochastic P, with
    the public ``np.linalg.solve``: A is P.T - I with its last row set to ones."""
    m = P.shape[0]
    # P.T - I without building I: off the diagonal p - 0.0 is p, bit for bit
    A = P.T.copy()
    A.flat[:: m + 1] -= 1.0
    A[-1, :] = 1.0
    rhs = np.zeros(m)
    rhs[-1] = 1.0
    return np.linalg.solve(A, rhs)
