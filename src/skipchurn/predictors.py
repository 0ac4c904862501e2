"""Availability predictors.

Every predictor kind follows one protocol.  A predictor reads its node's
``history``, the one record of the node's status bits (1 online, 0 offline,
one per time slot), which every kind of the node shares.  ``update()`` takes
in the bit just pushed to it and returns nothing; ``prediction`` is the
estimate of the node's availability probability in [0, 1] after the last bit,
0.0 before any; ``record_incoming()`` counts one message the node answers,
which only ``ludp`` reads, so the engine calls it only for the kinds in
``TRAFFIC_FED_KINDS``.

The De Bruijn graph predictor keeps empirical transition counts between k-bit
uptime histories and reports the stationary probability mass of the states
whose newest bit is 1.  The chain built from a finite trace is rarely ergodic
over the full state space, so the estimate is computed on the terminal
strongly-connected class reachable from the current state; when several
terminal classes are reachable (possible after a state-size change) their
stationary values are mixed by absorption probability.  A class consisting
solely of online-ending or offline-ending states degenerates to 1 or 0.  A
chain solves lazily, when its ``prediction`` is read, not on every bit.

An estimate's structure (reach search, SCC pass, terminal test, transient
order, member order of each terminal class) depends only on the state size,
the set of transitions seen and the current state; one bounded memo shared by
every chain keys it on those three.  Equal keys give the same insertion order
into the reach set, hence the same Tarjan order and fill order of the solve,
and the counts enter only in the probabilities, the matrix and the solve, so
memoized and uncached estimates are the same floats.

Every estimate solves its linear system through ``_solve``, which calls
numpy's solve gufunc (``numpy.linalg._umath_linalg.solve1``, the one under
``np.linalg.solve``) directly: the same bits at about a third of the cost,
since it skips the ``errstate`` that ``np.linalg.solve`` enters on each call.
On a singular system the gufunc fills the solution with NaN and sets the
invalid flag (a ``RuntimeWarning`` under numpy's default ``errstate``);
``_solve`` sees the NaN and raises ``LinAlgError``, as ``np.linalg.solve``
does.  Each system's matrix is filled in one ``put`` of (flat place, value)
pairs into fresh zeros or a fresh identity.  The put writes each cell at most
once, so every cell holds the bits an element-by-element fill gave.

The sliding-window predictor holds three De Bruijn graphs of consecutive state
sizes and shifts the window towards whichever size currently tracks the recent
uptime fraction best.

``StatusFeed`` holds every registered node's ``History`` and, per kind, a
``PredictorLayer`` of one predictor per node; a run and ``predict-bench`` both
feed predictors through it, and it is the one writer of a history.  A node is
fed a 1 for each slot it is online.  The slots it missed are replayed as 0s
only when it returns, so an offline node keeps its last prediction until that
catch-up.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from typing import Optional

import numpy as np
from numpy.linalg import LinAlgError
from numpy.linalg._umath_linalg import solve1 as _solve1

PREDICTOR_KINDS = ("swdbg", "dbg1", "dbg2", "dbg3", "dbg4", "lifetime", "ludp")
# Kinds whose estimate counts the messages a node answers, so it depends on
# the overlay's traffic and not on churn alone.
TRAFFIC_FED_KINDS = ("ludp",)
# The widest chain SW-DBG may grow to, and the state-size bound of every chain.
MAX_STATE_SIZE = 8


def _solve(A: np.ndarray, b) -> list[float]:
    """x with A x = b, as a list; a singular A raises ``LinAlgError``."""
    x = _solve1(A, b, signature="dd->d").tolist()
    if x[0] != x[0]:
        raise LinAlgError("Singular matrix")
    return x


def _tarjan_sccs(nodes: list[int], succ: dict[int, tuple[int, ...]]) -> list[list[int]]:
    """Strongly connected components (iterative Tarjan) in reverse topological
    order: successors of a component appear before it in the result."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0
    for root in nodes:
        if root in index:
            continue
        work: list[list] = [[root, 0]]
        while work:
            frame = work[-1]
            v = frame[0]
            if frame[1] == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack.add(v)
            descended = False
            children = succ[v]
            i = frame[1]
            while i < len(children):
                w = children[i]
                i += 1
                if w not in index:
                    frame[1] = i
                    work.append([w, 0])
                    descended = True
                    break
                if w in on_stack and index[w] < low[v]:
                    low[v] = index[w]
            if descended:
                continue
            frame[1] = i
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(comp)
            if work:
                u = work[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
    return sccs


class _ClassPlan:
    """A terminal class of a chain.

    ``index`` maps each member to its place in the class's Tarjan order and
    iterates in that order; ``online`` lists the places of online-ending
    members.
    """

    __slots__ = ("index", "online")

    def __init__(self, comp: list[int]):
        self.index = {s: j for j, s in enumerate(comp)}
        self.online = tuple(j for j, s in enumerate(comp) if s & 1)


def _class_sop(plan: _ClassPlan, counts: dict[int, list[float]], mask: int) -> float:
    """Stationary online mass of a terminal class under the current counts.

    Probabilities are ``count / (count0 + count1)`` and the online mass is
    added up one float at a time in Tarjan order (not by ``sum``, which
    compensates its rounding from Python 3.12), so a plan built once and
    reused gives the same float as one built afresh.
    """
    idx = plan.index
    m = len(idx)
    ones = len(plan.online)
    if ones == 0:
        return 0.0
    if ones == m:
        return 1.0
    if m == 2:
        a, b = idx
        if a & 1:
            a, b = b, a
        ra = counts[a]
        rb = counts[b]
        p_up = ra[1] / (ra[0] + ra[1])
        p_down = rb[0] / (rb[0] + rb[1])
        return p_up / (p_up + p_down)
    # pi = pi P with sum(pi) = 1, solved as A pi = e_last: A is P.T - I with
    # its last row set to ones.  P[j, k] goes to the flat place k * m + j of
    # P.T; off the diagonal p - 0.0 is p, so no I is built
    places = []
    probs = []
    for s, j in idx.items():
        row = counts[s]
        total = row[0] + row[1]
        base = (s << 1) & mask
        if row[0] > 0.0:
            places.append(idx[base] * m + j)
            probs.append(row[0] / total)
        if row[1] > 0.0:
            places.append(idx[base | 1] * m + j)
            probs.append(row[1] / total)
    A = np.zeros((m, m))
    A.put(places, probs)
    A.flat[:: m + 1] -= 1.0
    A[-1] = 1.0
    rhs = np.zeros(m)
    rhs[-1] = 1.0
    pi = _solve(A, rhs)
    sop = 0.0
    for j in plan.online:
        sop += pi[j]
    return sop


# Unbounded, the shape memo grows with every new edge set of a run.
SHAPE_MEMO_SIZE = 1024


@lru_cache(maxsize=SHAPE_MEMO_SIZE)
def _chain_shape(mask: int, edges: int, cur: int):
    """The structure of the estimate from ``cur`` (see ``Dbg._edges``): the
    ``_ClassPlan`` of the terminal class holding ``cur``, or, for a transient
    ``cur``, ``(place of cur, rows, classes)``.  ``rows`` holds three ints per
    transient state in solve order: the state, then where its 0 and 1 edges
    lead (a transient place, the transient count plus a place in ``classes``,
    or -1 for an unseen edge).  ``classes`` holds each reached terminal class
    once: its online mass, 0.0 or 1.0, when all its members end alike (most
    are single dead-end states), otherwise its ``_ClassPlan``; ``rows`` is an
    int array, a fraction of the memory of a tuple."""
    reach = {cur}
    stack = [cur]
    succ: dict[int, tuple[int, ...]] = {}
    while stack:
        s = stack.pop()
        out = (edges >> (s << 1)) & 3
        base = (s << 1) & mask
        succ[s] = ((base,) if out & 1 else ()) + ((base | 1,) if out & 2 else ())
        for t in succ[s]:
            if t not in reach:
                reach.add(t)
                stack.append(t)
    sccs = _tarjan_sccs(sorted(reach), succ)
    comp_id = {}
    for i, comp in enumerate(sccs):
        for s in comp:
            comp_id[s] = i
    terminal = [all(comp_id[w] == i for s in comp for w in succ[s]) for i, comp in enumerate(sccs)]
    if terminal[comp_id[cur]]:
        return _ClassPlan(sccs[comp_id[cur]])
    # the solve numbers transient states in the reach set's iteration order
    transient = [s for s in reach if not terminal[comp_id[s]]]
    t_idx = {s: j for j, s in enumerate(transient)}
    m = len(transient)
    class_at: dict[int, int] = {}
    rows = []
    for s in transient:
        out = (edges >> (s << 1)) & 3
        base = (s << 1) & mask
        rows.append(s)
        for b, t in enumerate((base, base | 1)):
            if not out >> b & 1:
                rows.append(-1)
            elif t in t_idx:
                rows.append(t_idx[t])
            else:
                rows.append(m + class_at.setdefault(comp_id[t], len(class_at)))
    classes = []
    for i in class_at:
        comp = sccs[i]
        ones = sum(s & 1 for s in comp)
        classes.append(_ClassPlan(comp) if 0 < ones < len(comp) else 1.0 if ones else 0.0)
    return t_idx[cur], array("i", rows), tuple(classes)


def _transient_sop(shape: tuple, counts: dict[int, list[float]], mask: int) -> float:
    """Online mass reached from a transient state (a ``_chain_shape`` tuple):
    the absorption solve over the transient states, each terminal class
    weighted by its stationary online mass under the current counts."""
    cur, rows, classes = shape
    m = len(rows) // 3
    sops = [c if type(c) is float else _class_sop(c, counts, mask) for c in classes]
    # I - Q: 1.0 - p and 0.0 - p are the bits that subtracting a filled Q gave
    places = []
    cells = []
    r = [0.0] * m
    it = iter(rows)
    for j, (s, t0, t1) in enumerate(zip(it, it, it)):
        row = counts[s]
        total = row[0] + row[1]
        for t, c in ((t0, row[0]), (t1, row[1])):
            if t < 0:
                continue
            p = c / total
            if t < m:
                places.append(j * m + t)
                cells.append((1.0 if t == j else 0.0) - p)
            else:
                r[j] += p * sops[t - m]
    A = np.eye(m)
    A.put(places, cells)
    values = _solve(A, r)
    return min(1.0, max(0.0, values[cur]))


class History:
    """The status bits a node has been fed: how many (``seen``), how many
    were 1 (``ones``), and the newest ``MAX_STATE_SIZE + 1`` of them, newest
    lowest (``recent``).  It is also the ``lifetime`` predictor, whose whole
    state it is, so its ``update`` and ``record_incoming`` do nothing."""

    __slots__ = ("seen", "ones", "recent")

    def __init__(self):
        self.seen = 0
        self.ones = 0
        self.recent = 0

    def push(self, status: int) -> None:
        """Record one bit, 0 or 1."""
        self.seen += 1
        self.ones += status
        self.recent = ((self.recent << 1) | status) & ((2 << MAX_STATE_SIZE) - 1)

    @property
    def prediction(self) -> float:
        """The share of 1s among the bits seen; 0.0 before any."""
        return self.ones / self.seen if self.seen else 0.0

    def update(self) -> None:
        pass

    def record_incoming(self) -> None:
        pass


class Dbg:
    """Empirical De Bruijn graph over k-bit uptime histories; the ``dbg1`` to
    ``dbg4`` predictors are one chain each.

    Transition counts are kept as floats: merging two states during a shrink
    averages their probabilities while preserving total transition mass, which
    is generally not representable with integers.

    ``_edges`` has bit ``(s << 1) | b`` set when the count of bit ``b`` after
    state ``s`` is positive; with the mask and the current state it keys the
    shared shape memo (``_chain_shape``).  When the current state lies in a
    terminal class, the chain keeps that class's plan, the memo's object,
    until a transition count goes from 0 to positive, the only time
    ``_edges`` changes: without a new edge the walk cannot leave a terminal
    class.  A chain made by ``enlarge`` or ``shrink`` derives ``_edges`` from
    its counts and starts without a plan.

    ``_prediction`` caches the estimate after the last bit: ``update`` sets
    it to the warm-up fraction while fewer than ``state_size`` bits preceded
    the last one (the step that fills the warm-up window included), and
    clears it otherwise, so ``prediction`` solves once when it is read.  A new
    chain holds 0.0; one made by ``enlarge`` or ``shrink`` starts uncached.
    """

    __slots__ = ("state_size", "history", "_mask", "_counts", "_current", "_edges", "_plan", "_prediction")

    def __init__(self, state_size: int, history: History):
        if not 1 <= state_size <= MAX_STATE_SIZE:
            raise ValueError(f"state size must be in 1..{MAX_STATE_SIZE}, got {state_size}")
        self.state_size = state_size
        self.history = history
        self._mask = (1 << state_size) - 1
        self._counts: dict[int, list[float]] = {}
        self._current: Optional[int] = None
        self._edges = 0
        self._plan: Optional[_ClassPlan] = None
        self._prediction: Optional[float] = 0.0

    def update(self) -> None:
        """Count the transition into the bit just pushed to ``history``."""
        history = self.history
        prev = self._current
        if prev is None:
            if history.seen == self.state_size:
                self._current = history.recent & self._mask
            self._prediction = history.prediction
            return
        status = history.recent & 1
        row = self._counts.get(prev)
        if row is None:
            row = [0.0, 0.0]
            self._counts[prev] = row
        if row[status] == 0.0:
            self._edges |= 1 << ((prev << 1) | status)
            self._plan = None
        row[status] += 1.0
        self._current = ((prev << 1) & self._mask) | status
        self._prediction = None

    @property
    def prediction(self) -> float:
        if self._prediction is None:
            self._prediction = self.stationary_online_probability()
        return self._prediction

    def record_incoming(self) -> None:
        pass

    def stationary_online_probability(self) -> float:
        """Long-run probability of an online slot under the observed chain."""
        history = self.history
        if self._current is None:
            return history.prediction
        if history.ones == history.seen:
            return 1.0
        if history.ones == 0:
            return 0.0
        mask = self._mask
        counts = self._counts
        plan = self._plan
        if plan is None or self._current not in plan.index:
            shape = _chain_shape(mask, self._edges, self._current)
            if type(shape) is _ClassPlan:
                self._plan = plan = shape
            else:
                return _transient_sop(shape, counts, mask)
        return _class_sop(plan, counts, mask)

    def _seed_from_counts(self) -> None:
        """Take the current state from the history, and the edges from the
        counts just set; the estimate starts uncached."""
        self._prediction = None
        if self.history.seen >= self.state_size:
            self._current = self.history.recent & self._mask
        for s, row in self._counts.items():
            self._edges |= (row[0] > 0.0) << (s << 1) | (row[1] > 0.0) << ((s << 1) | 1)

    def enlarge(self) -> "Dbg":
        """Copy into a chain one bit wider.

        Every state maps to its two one-bit extensions; both inherit the
        parent's transition counts.  A chain at ``MAX_STATE_SIZE`` raises.
        """
        child = Dbg(self.state_size + 1, self.history)
        for s, row in self._counts.items():
            child._counts[s << 1] = [row[0], row[1]]
            child._counts[(s << 1) | 1] = [row[0], row[1]]
        child._seed_from_counts()
        return child

    def shrink(self) -> "Dbg":
        """Copy into a chain one bit narrower.

        States differing only in their newest bit merge; the merged transition
        probabilities are the arithmetic mean of the sources' probabilities,
        rescaled so total transition mass is preserved.
        """
        child = Dbg(self.state_size - 1, self.history)
        parents = {s >> 1 for s in self._counts}
        for m in parents:
            r0 = self._counts.get(m << 1)
            r1 = self._counts.get((m << 1) | 1)
            if r0 is None or r1 is None:
                src = r0 if r0 is not None else r1
                child._counts[m] = [src[0], src[1]]
                continue
            t0 = r0[0] + r0[1]
            t1 = r1[0] + r1[1]
            mass = t0 + t1
            p0 = (r0[0] / t0 + r1[0] / t1) / 2.0
            p1 = (r0[1] / t0 + r1[1] / t1) / 2.0
            child._counts[m] = [p0 * mass, p1 * mass]
        child._seed_from_counts()
        return child


def _window_error(sop: float, state_size: int, recent: int, seen: int) -> float:
    """|sop - the online fraction of the newest min(state_size, seen) bits of
    ``recent``|: a window chain's prediction error."""
    n = min(state_size, seen)
    return abs(sop - (recent & ((1 << n) - 1)).bit_count() / n)


class SlidingWindowDbg:
    """Window of three consecutive-size De Bruijn graphs, sliding adaptively.

    After feeding a status bit to all three chains, each chain's prediction
    error is the absolute gap between its stationary estimate and the online
    fraction over its own state-size window of recent bits.  Strictly
    improving errors towards the wide end grow the window, up to
    ``MAX_STATE_SIZE``; strictly improving errors towards the narrow end
    shrink it, clamped at state size 1.  The prediction is the estimate of
    the chain with the smallest error.
    """

    __slots__ = ("history", "left", "center", "right", "_prediction")

    def __init__(self, history: History):
        self.history = history
        self.left = Dbg(1, history)
        self.center = Dbg(2, history)
        self.right = Dbg(3, history)
        self._prediction = 0.0

    @property
    def prediction(self) -> float:
        return self._prediction

    def update(self) -> None:
        left, center, right = self.left, self.center, self.right
        left.update()
        center.update()
        right.update()
        history = self.history
        recent = history.recent
        seen = history.seen
        dbgs = [left, center, right]
        sops = [left.prediction, center.prediction, right.prediction]
        errs = [
            _window_error(sops[0], left.state_size, recent, seen),
            _window_error(sops[1], center.state_size, recent, seen),
            _window_error(sops[2], right.state_size, recent, seen),
        ]

        while errs[0] > errs[1] > errs[2]:
            if dbgs[2].state_size == MAX_STATE_SIZE:
                break
            grown = dbgs[2].enlarge()
            dbgs = [dbgs[1], dbgs[2], grown]
            sop = grown.prediction
            sops = [sops[1], sops[2], sop]
            errs = [errs[1], errs[2], _window_error(sop, grown.state_size, recent, seen)]

        while errs[0] < errs[1] < errs[2]:
            if dbgs[0].state_size == 1:
                break
            shrunk = dbgs[0].shrink()
            dbgs = [shrunk, dbgs[0], dbgs[1]]
            sop = shrunk.prediction
            sops = [sop, sops[0], sops[1]]
            errs = [_window_error(sop, shrunk.state_size, recent, seen), errs[0], errs[1]]

        self.left, self.center, self.right = dbgs
        # the first of equal errors wins
        self._prediction = sops[errs.index(min(errs))]

    def record_incoming(self) -> None:
        pass


def ludp_online_probability(uptime: int, incoming: int, slots: int, capacity: int) -> float:
    """Age-and-degree availability estimate over ``slots`` fed slots, ``uptime``
    of them online, clamped to [0, 1]."""
    if slots < 1 or capacity < 1:
        raise ValueError("slots and capacity must be >= 1")
    value = (uptime * incoming) / (slots * capacity)
    return min(1.0, max(0.0, value))


class LudpPredictor:
    """Estimates availability from accumulated uptime and incoming contacts.

    ``record_incoming`` counts every message or ping the node answers; without
    overlay traffic the estimate stays at 0.
    """

    __slots__ = ("capacity", "history", "incoming")

    def __init__(self, capacity: int, history: History):
        self.capacity = capacity
        self.history = history
        self.incoming = 0

    @property
    def prediction(self) -> float:
        history = self.history
        if history.seen == 0:
            return 0.0
        return ludp_online_probability(history.ones, self.incoming, history.seen, self.capacity)

    def update(self) -> None:
        pass

    def record_incoming(self) -> None:
        self.incoming += 1


def make_predictor(kind: str, capacity: int, history: History):
    if kind not in PREDICTOR_KINDS:
        raise ValueError(f"unknown predictor kind: {kind}")
    if kind == "swdbg":
        return SlidingWindowDbg(history)
    if kind == "lifetime":
        return history
    if kind == "ludp":
        return LudpPredictor(capacity, history)
    return Dbg(int(kind[3:]), history)  # dbg1 to dbg4


class PredictorLayer:
    """One predictor of one kind per registry index, predictor ``i`` reading
    ``histories[i]``.  Until its catch-up an offline node keeps the prediction
    of its last online slot, and ``error_sum`` scores that prediction."""

    def __init__(self, kind: str, histories: list[History]):
        self.kind = kind
        self.predictors = [make_predictor(kind, len(histories), h) for h in histories]

    def error_sum(self, online: list[bool], total: float) -> float:
        """``total`` plus every node's |prediction - status|, in index order."""
        for pred, up in zip(self.predictors, online):
            total += abs(pred.prediction - (1 if up else 0))
        return total

    def wide_end_sample(self) -> tuple[int, int]:
        """(sum of the SW-DBG windows' wide-end state sizes, nodes summed), or
        (0, 0) for a kind without a window."""
        if self.kind != "swdbg":
            return 0, 0
        return sum(pred.right.state_size for pred in self.predictors), len(self.predictors)


class StatusFeed:
    """Every registered node's ``History``, by registry index, and the layers
    reading them.  Each bit is pushed once, and every layer's predictor of the
    node updates before the node's next bit, so ``histories[i].seen`` is the
    number of slots node ``i`` has been fed."""

    def __init__(self, size: int):
        self.histories = [History() for _ in range(size)]
        self.layers: list[PredictorLayer] = []

    def layer(self, kind: str) -> PredictorLayer:
        """The kind's one layer, made on first use; a kind fed by traffic gets
        a new layer on each call, since each cell's traffic is its own."""
        if kind not in TRAFFIC_FED_KINDS:
            for layer in self.layers:
                if layer.kind == kind:
                    return layer
        layer = PredictorLayer(kind, self.histories)
        self.layers.append(layer)
        return layer

    def catch_up(self, index: int, slot: int) -> None:
        """Feed node ``index`` a 0 for each slot it missed before ``slot``."""
        history = self.histories[index]
        preds = [layer.predictors[index] for layer in self.layers]
        for _ in range(history.seen, slot):
            history.push(0)
            for pred in preds:
                pred.update()

    def feed_online(self, online: list[bool]) -> None:
        """Feed every node online in this slot its 1."""
        for history, up in zip(self.histories, online):
            if up:
                history.push(1)
        for layer in self.layers:
            for pred, up in zip(layer.predictors, online):
                if up:
                    pred.update()
