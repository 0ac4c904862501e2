import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from oracles import stationary_core
from skipchurn import cli, predictors
from skipchurn.predictors import (
    MAX_STATE_SIZE,
    PREDICTOR_KINDS,
    SHAPE_MEMO_SIZE,
    Dbg,
    _chain_shape,
    _ClassPlan,
    _solve,
    _tarjan_sccs,
    _window_error,
    History,
    LudpPredictor,
    SlidingWindowDbg,
    StatusFeed,
    ludp_online_probability,
    make_predictor,
)


def history_of(predictor):
    """The history a predictor reads; the ``lifetime`` predictor is its own."""
    return predictor if isinstance(predictor, History) else predictor.history


def feed_bits(predictor, bits):
    """Feed ``bits`` in order, each pushed to the predictor's history before
    the predictor updates, as ``StatusFeed`` does; no prediction is read."""
    history = history_of(predictor)
    for b in bits:
        history.push(b)
        predictor.update()


def feed(predictor, bits):
    """``feed_bits``, then the prediction after the last bit."""
    feed_bits(predictor, bits)
    return predictor.prediction


def lifetime():
    """A new ``lifetime`` predictor, which is its node's history."""
    return make_predictor("lifetime", 1, History())


def transition_probability(dbg, state, bit):
    """Empirical probability of ``bit`` after ``state``; None for a state never left."""
    row = dbg._counts.get(state)
    if not row:
        return None
    total = row[0] + row[1]
    return row[bit] / total if total > 0 else None


def sizes(window):
    """The state sizes of a sliding window's three chains, narrow end first."""
    return (window.left.state_size, window.center.state_size, window.right.state_size)


def cycle_sop_oracle(pattern, state_size, steps=30000):
    """Brute force: walk the repeating pattern and count online-ending visits
    of the k-bit state sequence."""
    bits = [pattern[i % len(pattern)] for i in range(steps)]
    online = sum(bits[i] for i in range(state_size - 1, steps))
    return online / (steps - state_size + 1)


class TestDbgUpdate:
    def test_alternating_stream_is_half(self):
        d = Dbg(1, History())
        assert feed(d, [0, 1, 0, 1, 0, 1]) == pytest.approx(0.5)

    def test_all_online_returns_one(self):
        d = Dbg(1, History())
        assert feed(d, [1] * 8) == 1.0

    def test_all_offline_returns_zero(self):
        d = Dbg(2, History())
        assert feed(d, [0] * 8) == 0.0

    def test_three_cycle_matches_brute_force(self):
        d = Dbg(2, History())
        got = feed(d, [1, 1, 0] * 20)
        assert got == pytest.approx(2 / 3, abs=1e-9)
        assert got == pytest.approx(cycle_sop_oracle([1, 1, 0], 2), abs=1e-3)

    def test_warm_up_returns_observed_fraction(self):
        d = Dbg(3, History())
        assert feed(d, [1]) == 1.0
        assert feed(d, [0]) == 0.5
        assert feed(d, [1]) == pytest.approx(2 / 3)

    def test_outgoing_probabilities_normalized(self):
        rng = np.random.default_rng(3)
        d = Dbg(3, History())
        feed(d, rng.integers(0, 2, 500).tolist())
        for state in range(8):
            p0 = transition_probability(d, state, 0)
            p1 = transition_probability(d, state, 1)
            if p0 is not None:
                assert p0 + p1 == pytest.approx(1.0, abs=1e-12)

    def test_bernoulli_convergence(self):
        rng = np.random.default_rng(17)
        theta = 0.3
        bits = (rng.random(10000) < theta).astype(int).tolist()
        for k in (1, 2, 3, 4):
            d = Dbg(k, History())
            got = feed(d, bits)
            assert abs(got - theta) < 0.05


class TestSolveStationary:
    """The oracle's stationary solve, ``stationary_core``, on irreducible chains."""

    def test_uniform_chain(self):
        P = np.full((4, 4), 0.25)
        pi = stationary_core(P)
        assert pi == pytest.approx([0.25] * 4, abs=1e-12)

    def test_two_state_closed_form(self):
        a, b = 0.3, 0.2
        P = np.array([[1 - a, a], [b, 1 - b]])
        pi = stationary_core(P)
        assert pi[1] == pytest.approx(a / (a + b), abs=1e-12)

    def test_matches_chain_walk(self):
        rng = np.random.default_rng(11)
        P = rng.random((4, 4)) + 0.05
        P /= P.sum(axis=1, keepdims=True)
        pi = stationary_core(P)
        # Monte-Carlo oracle: frequency of state visits along a long walk
        steps = 1_000_000
        states = np.zeros(steps, dtype=np.int64)
        cum = P.cumsum(axis=1)
        draws = rng.random(steps)
        s = 0
        for i in range(steps):
            s = int(np.searchsorted(cum[s], draws[i]))
            states[i] = s
        freq = np.bincount(states, minlength=4) / steps
        assert np.max(np.abs(freq - pi)) < 1e-2

    def test_sums_to_one(self):
        rng = np.random.default_rng(2)
        P = rng.random((6, 6)) + 0.01
        P /= P.sum(axis=1, keepdims=True)
        assert stationary_core(P).sum() == pytest.approx(1.0, abs=1e-9)


# 50 systems of each size from 2 to 39 states and 20 each of 128 and 256
SOLVE_SIZES = [(m, 50) for m in range(2, 40)] + [(128, 20), (256, 20)]


def random_systems(rng):
    """Nonsingular systems in turn of the estimates' two kinds: a random
    chain's stationary system (P.T - I with its last row set to ones, and the
    last unit vector), and I - Q of a random substochastic Q with a random
    right-hand side."""
    for m, count in SOLVE_SIZES:
        for k in range(count):
            if k % 2 == 0:
                P = rng.random((m, m))
                P /= P.sum(axis=1, keepdims=True)
                A = P.T - np.eye(m)
                A[-1, :] = 1.0
                b = np.zeros(m)
                b[-1] = 1.0
            else:
                Q = rng.random((m, m))
                Q *= rng.random((m, 1)) / Q.sum(axis=1, keepdims=True)
                A = np.eye(m) - Q
                b = rng.random(m)
            yield A, b


def test_solve_gives_the_bits_of_numpys_solve():
    systems = list(random_systems(np.random.default_rng(1940)))
    assert len(systems) == 1940
    for A, b in systems:
        got = _solve(A, b)
        assert type(got) is list
        assert np.array(got).tobytes() == np.linalg.solve(A, b).tobytes()


def test_solve_raises_on_a_singular_matrix():
    A = np.array([[1.0, 2.0, 0.5], [2.0, 4.0, 1.0], [0.0, 1.0, 3.0]])
    b = np.ones(3)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(A, b)
    # numpy's default errstate warns of the NaN the gufunc writes
    with pytest.warns(RuntimeWarning), pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        _solve(A, b)
    with np.errstate(invalid="ignore"), pytest.raises(np.linalg.LinAlgError):
        _solve(A, b)


@pytest.mark.parametrize("argv", [
    ["predict-bench", "--capacity", "64", "--slots", "48", "--topologies", "1", "--seed", "1",
     "--interarrival-mean-seconds", "300"],
    ["run", "--capacity", "64", "--slots", "24", "--topologies", "1", "--search-cap", "40", "--seed", "1",
     "--interarrival-mean-seconds", "300", "--stabilizer", "interlaced", "--predictor", "swdbg", "--backup-size", "8"],
], ids=["predict-bench", "run-swdbg"])
def test_a_run_raises_no_floating_point_warning(tmp_path, monkeypatch, argv):
    # _solve skips the errstate that np.linalg.solve enters, so an overflow,
    # division or invalid value in a solve would surface here as a warning
    solves = []

    def counted(A, b):
        solves.append(len(b))
        return _solve(A, b)

    monkeypatch.setattr(predictors, "_solve", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv + ["--workers", "1", "--out", str(tmp_path)]) == 0
    assert len(solves) > 1000 and max(solves) >= 128


def reference_sop(dbg):
    """The stationary estimate rebuilt from scratch on every call: reach DFS,
    Tarjan SCCs, then the class solve or the absorption solve.  This is the
    uncached algorithm the chain's cached plans must reproduce bit for bit."""
    if dbg._current is None:
        return dbg.history.prediction
    if dbg.history.ones == dbg.history.seen:
        return 1.0
    if dbg.history.ones == 0:
        return 0.0
    mask = dbg._mask
    counts = dbg._counts
    cur = dbg._current
    reach = {cur}
    stack = [cur]
    while stack:
        s = stack.pop()
        row = counts.get(s)
        if row is None:
            continue
        base = (s << 1) & mask
        if row[0] > 0.0 and base not in reach:
            reach.add(base)
            stack.append(base)
        t1 = base | 1
        if row[1] > 0.0 and t1 not in reach:
            reach.add(t1)
            stack.append(t1)
    if len(reach) == 1:
        return float(cur & 1)

    prob_edges = {}
    succ = {}
    for s in reach:
        row = counts.get(s)
        if row is None:
            succ[s] = ()
            continue
        total = row[0] + row[1]
        base = (s << 1) & mask
        edges = []
        if row[0] > 0.0:
            edges.append((base, row[0] / total))
        if row[1] > 0.0:
            edges.append((base | 1, row[1] / total))
        prob_edges[s] = edges
        succ[s] = tuple(t for t, _ in edges)

    sccs = _tarjan_sccs(sorted(reach), succ)
    comp_id = {}
    for i, comp in enumerate(sccs):
        for s in comp:
            comp_id[s] = i
    terminal = [
        all(comp_id[w] == i for s in comp for w in succ[s]) for i, comp in enumerate(sccs)
    ]

    def class_sop(i):
        comp = sccs[i]
        ones = sum(1 for s in comp if s & 1)
        if ones == 0:
            return 0.0
        if ones == len(comp):
            return 1.0
        if len(comp) == 2:
            a, b = comp
            if a & 1:
                a, b = b, a
            p_up = next(p for t, p in prob_edges[a] if t == b)
            p_down = next(p for t, p in prob_edges[b] if t == a)
            return p_up / (p_up + p_down)
        idx = {s: j for j, s in enumerate(comp)}
        P = np.zeros((len(comp), len(comp)))
        for s in comp:
            for t, p in prob_edges[s]:
                P[idx[s], idx[t]] = p
        pi = stationary_core(P)
        return float(sum(pi[idx[s]] for s in comp if s & 1))

    cur_comp = comp_id[cur]
    if terminal[cur_comp]:
        return class_sop(cur_comp)

    transient = [s for s in reach if not terminal[comp_id[s]]]
    t_idx = {s: j for j, s in enumerate(transient)}
    m = len(transient)
    Q = np.zeros((m, m))
    r = np.zeros(m)
    sop_cache = {}
    for s in transient:
        j = t_idx[s]
        for t, p in prob_edges[s]:
            if t in t_idx:
                Q[j, t_idx[t]] += p
            else:
                ci = comp_id[t]
                if ci not in sop_cache:
                    sop_cache[ci] = class_sop(ci)
                r[j] += p * sop_cache[ci]
    values = np.linalg.solve(np.eye(m) - Q, r)
    return float(min(1.0, max(0.0, values[t_idx[cur]])))


# a chain op: a status bit, or now and then a resize ("enlarge" / "shrink"),
# rare enough that chains live long enough to reuse and outgrow their plans
chain_ops = st_.lists(
    st_.sampled_from([0, 1] * 8 + ["enlarge", "shrink"]),
    min_size=1,
    max_size=250,
)


def made_chain(k, counts, current):
    """A chain of state size ``k`` with the given counts and current state,
    as if it had seen five online and five offline bits."""
    d = Dbg(k, History())
    d._counts = {s: list(row) for s, row in counts.items()}
    d._edges = sum(1 << ((s << 1) | b) for s, row in counts.items() for b in (0, 1) if row[b] > 0.0)
    d._current = current
    d.history.seen, d.history.ones = 10, 5
    return d


# Counts with the edges 0 -> 1 and 1 -> 2; the tests add a row for state 2
# with both edges.  At state size 2 these lead back to 0 and 1, one terminal
# class {0, 1, 2}; at state size 3 they lead to the dead ends 4 and 5, and the
# states 1 and 2 are transient.
SHARED_EDGES = {0: (0.0, 1.0), 1: (1.0, 0.0)}


class TestCachedPlan:
    @given(st_.integers(1, 4), chain_ops)
    @settings(max_examples=300, deadline=None)
    def test_matches_uncached_reference_bitwise(self, k, ops):
        # the ops run twice: on a cold memo, then on the memo the first run filled
        _chain_shape.cache_clear()
        for _ in ("cold", "warm"):
            d = Dbg(k, History())
            expected = 0.0
            for op in ops:
                if op == "enlarge" and d.state_size < MAX_STATE_SIZE:
                    d = d.enlarge()
                    expected = reference_sop(d)
                elif op == "shrink" and d.state_size > 1:
                    d = d.shrink()
                    expected = reference_sop(d)
                elif op in (0, 1):
                    warm = d._current is None
                    feed_bits(d, [op])
                    expected = d.history.prediction if warm else reference_sop(d)
                assert d.prediction == expected
                assert d.stationary_online_probability() == reference_sop(d)

    def test_new_edge_drops_cached_plan(self):
        d = Dbg(2, History())
        feed(d, [0, 1, 0, 1, 0, 1])  # walks the 2-cycle 01 <-> 10
        two_cycle = d.stationary_online_probability()
        assert d._plan is not None and sorted(d._plan.index) == [0b01, 0b10]
        assert feed(d, [1]) == 1.0  # new edge 01 -> 11; 11 has no way out yet
        assert sorted(d._plan.index) == [0b11]  # a terminal class of its own
        got = feed(d, [0])  # new edge 11 -> 10 closes the class {01, 10, 11}
        assert got == reference_sop(d)
        assert got != two_cycle
        assert sorted(d._plan.index) == [0b01, 0b10, 0b11]

    @pytest.mark.parametrize("k", [2, 3])
    def test_chains_with_one_edge_set_and_other_counts_share_the_shape(self, k):
        _chain_shape.cache_clear()
        chains = [made_chain(k, {**SHARED_EDGES, 2: row}, 1) for row in ((1.0, 1.0), (3.0, 1.0))]
        got = [d.stationary_online_probability() for d in chains]
        assert got == [reference_sop(d) for d in chains]
        assert got[0] != got[1]
        info = _chain_shape.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        if k == 2:  # a terminal class's plan is the memo's one object, not a copy per chain
            assert chains[0]._plan is not None and chains[0]._plan is chains[1]._plan

    def test_equal_edge_bits_at_other_state_sizes_are_other_shapes(self):
        _chain_shape.cache_clear()
        narrow, wide = (made_chain(k, {**SHARED_EDGES, 2: (1.0, 1.0)}, 1) for k in (2, 3))
        assert (narrow._edges, narrow._current) == (wide._edges, wide._current)
        assert narrow.stationary_online_probability() == reference_sop(narrow) == pytest.approx(0.4)
        assert wide.stationary_online_probability() == reference_sop(wide) == pytest.approx(0.5)
        assert _chain_shape.cache_info().misses == 2

    def test_transient_shape_keeps_a_dead_end_as_its_mass_and_a_mixed_class_as_its_plan(self):
        # state size 3: from 001 a 0 leads to 010, never left, and a 1 into
        # the cycle 011 -> 110 -> 101, whose members end 1, 0 and 1
        counts = {0b001: (1.0, 1.0), 0b011: (1.0, 0.0), 0b110: (0.0, 1.0), 0b101: (0.0, 1.0)}
        d = made_chain(3, counts, 0b001)
        _chain_shape.cache_clear()
        place, rows, classes = _chain_shape(d._mask, d._edges, d._current)
        assert (place, list(rows)) == (0, [0b001, 1, 2])
        dead_end, cycle = classes
        assert type(dead_end) is float and dead_end == 0.0
        assert type(cycle) is _ClassPlan and sorted(cycle.index) == [0b011, 0b101, 0b110]
        assert d.stationary_online_probability() == reference_sop(d) == pytest.approx(1 / 3)

    def test_the_shape_memo_is_bounded(self):
        assert _chain_shape.cache_info().maxsize == SHAPE_MEMO_SIZE < float("inf")

    def test_resized_chain_starts_without_a_plan(self):
        d = Dbg(2, History())
        feed(d, [0, 1, 1, 0, 1, 1, 0, 1])
        assert d._plan is not None
        for resized in (d.enlarge(), d.shrink()):
            assert resized._plan is None and resized._prediction is None


BLAS_PROBE = """
import sys
if sys.argv[1] == "numpy-first":
    import numpy
import skipchurn
import numpy as np
from skipchurn.predictors import Dbg, History

# a 256-state chain with every state seen: one terminal class of 256 states;
# each bit is pushed before the chain counts it
dbg = Dbg(8, History())
for bit in np.random.default_rng(9).integers(0, 2, 6000).tolist():
    dbg.history.push(bit)
    dbg.update()
P = np.zeros((256, 256))
for s, (c0, c1) in dbg._counts.items():
    P[s, (s << 1) & 255] = c0 / (c0 + c1)
    P[s, ((s << 1) & 255) | 1] = c1 / (c0 + c1)
A = P.T - np.eye(256)
A[-1, :] = 1.0
rhs = np.zeros(256)
rhs[-1] = 1.0
print(np.linalg.solve(A, rhs).tobytes().hex(), dbg.stationary_online_probability().hex())
"""

NO_OPENBLAS_PROBE = """
import tempfile
import warnings

import numpy

# numpy as if built without the wheel's bundled OpenBLAS
numpy.__file__ = tempfile.mkdtemp() + "/numpy/__init__.py"
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    import skipchurn
print(*(w.category.__name__ for w in caught))
"""

BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_probe(probe, *args, threads=None):
    """Run ``probe`` in a fresh interpreter with none of the BLAS thread
    variables set, or with ``OPENBLAS_NUM_THREADS`` set to ``threads``."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    run = subprocess.run(
        [sys.executable, "-c", probe, *args],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return run.stdout


def test_blas_thread_count_does_not_change_the_bits():
    # OpenBLAS solves a 256-state system to other bits with two threads than
    # with one; the package pins one thread, also when numpy came first and
    # would otherwise start one thread per core
    outputs = {
        (threads, order): run_probe(BLAS_PROBE, order, threads=threads)
        for threads in ("1", "2", None)
        for order in ("package-first", "numpy-first")
    }
    assert len(set(outputs.values())) == 1, outputs
    # the probe's chain reached all 256 states, so both bit strings come from
    # a full solve: every state carries mass and the estimate is not a fraction
    # of warm-up bits
    solved, sop = outputs["1", "package-first"].split()
    assert np.frombuffer(bytes.fromhex(solved)).min() > 0.0
    assert 0.0 < float.fromhex(sop) < 1.0


def test_warns_when_loaded_blas_cannot_be_pinned():
    assert run_probe(NO_OPENBLAS_PROBE).split() == ["RuntimeWarning"]


@pytest.mark.parametrize("kind", PREDICTOR_KINDS)
def test_every_kind_follows_the_predictor_protocol(kind):
    pred = make_predictor(kind, 64, History())
    assert {"update", "prediction", "record_incoming"} <= set(vars(type(pred)))
    assert pred.prediction == 0.0
    history_of(pred).push(1)
    assert pred.update() is None
    assert pred.record_incoming() is None


class TestLazyFixedPrediction:
    @given(
        st_.integers(1, 4),
        st_.lists(
            st_.tuples(st_.integers(0, 1), st_.integers(0, 4), st_.booleans()),
            min_size=1,
            max_size=80,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_reads_the_uncached_estimate_or_the_warm_fraction(self, k, steps):
        lazy = make_predictor(f"dbg{k}", 64, History())
        expected = 0.0
        assert lazy.prediction == expected
        for status, gap, read in steps:
            # an offline gap replayed as zeros before the status bit, as the
            # engine and the bench do when a node comes back
            for bit in [0] * gap + [status]:
                warm = lazy._current is None
                feed_bits(lazy, [bit])
                expected = lazy.history.prediction if warm else reference_sop(lazy)
                if read:
                    assert lazy.prediction == expected
            assert lazy.prediction == expected

    def test_warm_fill_step_reads_the_warm_fraction(self):
        p = make_predictor("dbg3", 64, History())
        assert feed(p, (1, 0, 1)) == 2 / 3
        assert p.stationary_online_probability() == 1.0


class TestEnlargeShrink:
    def test_enlarge_copies_probabilities_to_extensions(self):
        d = Dbg(1, History())
        feed(d, [0, 0, 1, 0, 0, 1, 0, 1, 0, 0])
        p = transition_probability(d, 0, 1)
        e = d.enlarge()
        assert e.state_size == 2
        assert transition_probability(e, 0b00, 1) == pytest.approx(p)
        assert transition_probability(e, 0b01, 1) == pytest.approx(p)

    def test_enlarge_respects_cap(self):
        with pytest.raises(ValueError):
            Dbg(MAX_STATE_SIZE, History()).enlarge()

    def test_shrink_merges_by_probability_mean(self):
        d = Dbg(2, History())
        d._counts[0b10] = [8.0, 2.0]
        d._counts[0b11] = [4.0, 6.0]
        d.history.seen, d.history.ones = 20, 10
        d.history.recent = 0b10
        d._current = 0b10
        s = d.shrink()
        assert s._current == 0
        assert transition_probability(s, 1, 1) == pytest.approx(0.4)
        assert sum(s._counts[1]) == pytest.approx(20.0)

    def test_shrink_below_one_rejected(self):
        with pytest.raises(ValueError):
            Dbg(1, History()).shrink()

    @given(st_.lists(st_.integers(0, 1), min_size=10, max_size=120), st_.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_preserves_probabilities(self, bits, k):
        d = Dbg(k, History())
        feed(d, bits)
        back = d.enlarge().shrink()
        assert back.state_size == d.state_size
        for state in range(1 << k):
            for bit in (0, 1):
                p0 = transition_probability(d, state, bit)
                p1 = transition_probability(back, state, bit)
                if p0 is None:
                    assert p1 is None
                else:
                    assert p1 == pytest.approx(p0, abs=1e-12)
        assert back._current == d._current


class TestSlidingWindow:
    def test_first_update_keeps_initial_sizes(self):
        w = SlidingWindowDbg(History())
        feed_bits(w, [1])
        assert sizes(w) == (1, 2, 3)

    def test_worked_error_example(self):
        # each chain has seen the bits 1, 0, 1 (newest last)
        chains = {3: Dbg(3, History()), 2: Dbg(2, History())}
        for d in chains.values():
            feed_bits(d, (1, 0, 1))
        h3, h2 = chains[3].history, chains[2].history
        err = _window_error(0.2, 3, h3.recent, h3.seen)
        assert err == pytest.approx(abs(0.2 - 2 / 3), abs=1e-12)
        assert _window_error(0.2, 2, h2.recent, h2.seen) == pytest.approx(0.3, abs=1e-12)

    def test_chains_share_the_recent_bits(self):
        # every chain reads the window's one history, which must hold the
        # bits fed, across every enlarge and shrink
        rng = np.random.default_rng(5)
        w = SlidingWindowDbg(History())
        fed = []
        windows = set()
        for b in rng.integers(0, 2, 300).tolist():
            feed_bits(w, [b])
            fed.append(b)
            windows.add(sizes(w))
            want = int("".join(map(str, fed[-(MAX_STATE_SIZE + 1):])), 2)
            assert (w.history.recent, w.history.seen, w.history.ones) == (want, len(fed), sum(fed))
            for d in (w.left, w.center, w.right):
                assert d.history is w.history
        assert len(windows) > 1

    def test_periodic_trace_settles_near_duty_cycle(self):
        w = SlidingWindowDbg(History())
        for _ in range(40):
            got = feed(w, (1, 1, 1, 0))
        assert abs(got - 0.75) < 0.05
        assert w.center.state_size >= 3 or w.right.state_size >= 3

    def test_always_in_unit_interval_with_consecutive_sizes(self):
        rng = np.random.default_rng(23)
        w = SlidingWindowDbg(History())
        for b in rng.integers(0, 2, 400).tolist():
            got = feed(w, [b])
            assert 0.0 <= got <= 1.0
            left, center, right = sizes(w)
            assert center == left + 1 and right == center + 1
            assert left >= 1

    def test_size_capped_at_maximum(self):
        # seeded so the window reaches the cap and the enlarge refusal runs
        w = SlidingWindowDbg(History())
        widest = 0
        for b in np.random.default_rng(5).integers(0, 2, 2000).tolist():
            feed_bits(w, [b])
            widest = max(widest, w.right.state_size)
            assert w.right.state_size <= MAX_STATE_SIZE
        assert widest == MAX_STATE_SIZE


class TestBaselines:
    def test_lifetime_fraction(self):
        assert lifetime().prediction == 0.0
        assert feed(lifetime(), [1] * 7) == 1.0
        assert feed(lifetime(), [0] * 9) == 0.0
        assert feed(lifetime(), [1] * 5 + [0] * 15) == 0.25

    def test_lifetime_predictor_accumulates(self):
        p = lifetime()
        feed_bits(p, [1, 0, 0, 1])
        assert p.prediction == 0.5

    def test_ludp_formula(self):
        assert ludp_online_probability(100, 1024, 100, 1024) == 1.0
        assert ludp_online_probability(20, 512, 100, 1024) == pytest.approx(0.1)
        assert ludp_online_probability(20, 0, 100, 1024) == 0.0

    def test_ludp_clamps(self):
        assert ludp_online_probability(100, 10**6, 100, 16) == 1.0

    def test_ludp_predictor_counts_incoming(self):
        p = LudpPredictor(capacity=16, history=History())
        assert feed(p, [1]) == 0.0
        p.record_incoming()
        assert p.prediction == pytest.approx(1 / 16)


class TestOfflineReplay:
    def test_offline_gap_replayed_as_zeros(self):
        # same trace fed two ways must agree: explicit zeros vs gap replay
        direct = SlidingWindowDbg(History())
        feed_bits(direct, [1, 1, 0, 0, 0, 1])
        gap = SlidingWindowDbg(History())
        feed_bits(gap, [1, 1])
        for _ in range(3):
            feed_bits(gap, [0])
        got = feed(gap, [1])
        assert got == pytest.approx(direct.prediction)
        assert sizes(gap) == sizes(direct)

    @pytest.mark.parametrize("kind", PREDICTOR_KINDS)
    def test_layer_catches_up_on_return_only(self, kind):
        # node 0 is online in slots 0, 1 and 5 and away in 2-4; node 1 never
        # comes online
        direct = make_predictor(kind, 2, History())
        feed_bits(direct, [1, 1, 0, 0, 0, 1])
        status = StatusFeed(2)
        layer = status.layer(kind)
        for _ in range(2):
            status.feed_online([True, False])
        kept = layer.predictors[0].prediction
        for _ in range(3):
            status.feed_online([False, False])
            # away, node 0 keeps the prediction of its last online slot
            assert layer.predictors[0].prediction == kept
            assert layer.error_sum([False, False], 0.25) == 0.25 + kept + 0.0
        status.catch_up(0, 5)
        status.feed_online([True, False])
        assert layer.predictors[0].prediction == direct.prediction
        assert [history.seen for history in status.histories] == [6, 0]
        status.catch_up(0, 6)  # nothing missed
        assert layer.predictors[0].prediction == direct.prediction
        assert layer.error_sum([True, False], 0.0) == abs(direct.prediction - 1)


def status_trace(nodes, slots, seed):
    """Each slot's online list: every node flips its status with chance 0.3
    a slot, so sessions and offline gaps last a few slots each."""
    rng = np.random.default_rng(seed)
    online = [False] * nodes
    trace = []
    for _ in range(slots):
        online = [on != (rng.random() < 0.3) for on in online]
        trace.append(online)
    return trace


def feed_trace(kinds, trace):
    """Feed ``trace`` to a ``StatusFeed`` with a layer per entry of ``kinds``
    as a run does (each returning node's missed slots, then the slot's 1s),
    every online node answering one message a slot; yields the feed and its
    layers after each slot."""
    status = StatusFeed(len(trace[0]))
    layers = [status.layer(kind) for kind in kinds]
    before = trace[0]
    for slot, online in enumerate(trace):
        for i, (was, on) in enumerate(zip(before, online)):
            if on and not was:
                status.catch_up(i, slot)
        status.feed_online(online)
        for layer in layers:
            for pred, on in zip(layer.predictors, online):
                if on:
                    pred.record_incoming()
        before = online
        yield status, layers


def test_kinds_fed_together_predict_as_each_kind_fed_alone():
    # every kind reads the one history per node, which must not change a bit
    # of any prediction: each bit is pushed once, then every layer updates.
    # Alone, a node's predictor of each kind gets its missed 0s and its 1 one
    # bit at a time through ``feed_bits``.
    nodes = 12
    trace = status_trace(nodes, 80, seed=4)
    assert sum(on and not was for before, now in zip(trace, trace[1:]) for was, on in zip(before, now)) > 50
    kinds = PREDICTOR_KINDS + ("ludp",)
    alone = {kind: [make_predictor(kind, nodes, History()) for _ in range(nodes)] for kind in PREDICTOR_KINDS}
    for slot, (status, layers) in enumerate(feed_trace(kinds, trace)):
        assert [layer.kind for layer in status.layers] == list(kinds)
        for preds in alone.values():
            for pred, on in zip(preds, trace[slot]):
                if on:
                    feed_bits(pred, [0] * (slot - history_of(pred).seen) + [1])
                    pred.record_incoming()
        for layer in layers:
            got = [pred.prediction.hex() for pred in layer.predictors]
            assert got == [pred.prediction.hex() for pred in alone[layer.kind]], (slot, layer.kind)
            assert all(history_of(pred) is h for pred, h in zip(layer.predictors, status.histories, strict=True))
    assert {pred.right.state_size for pred in layers[0].predictors} != {3}


class TestFactory:
    def test_kinds(self):
        history = History()
        assert isinstance(make_predictor("swdbg", 64, history), SlidingWindowDbg)
        assert isinstance(make_predictor("dbg3", 64, history), Dbg)
        assert make_predictor("dbg3", 64, history).state_size == 3
        assert make_predictor("lifetime", 64, history) is history
        assert isinstance(make_predictor("ludp", 64, history), LudpPredictor)

    @pytest.mark.parametrize("kind", PREDICTOR_KINDS)
    def test_per_node_objects_have_no_instance_dict(self, kind):
        # a run holds one predictor per node and kind; slots keep them small
        pred = make_predictor(kind, 4, History())
        assert not hasattr(pred, "__dict__")
        assert not hasattr(history_of(pred), "__dict__")

    def test_unknown_kind_rejected(self):
        for kind in ("dbg9", "dbg0", "dbg", "markov"):
            with pytest.raises(ValueError):
                make_predictor(kind, 64, History())
