"""Discrete time-slot simulation loop.

A topology run advances every sweep cell (stabilizer x predictor x backup
size) of one topology together, slot by slot.  Each slot:
``ChurnProcess.arrive`` draws the slot's churn; arrivals replay the status
bits they missed while away and build their lookup tables and stores anew,
since a departure is a crash that keeps nothing; a workload of
searches routes through the overlay with latency, timeout and piggyback
accounting; nodes online during the slot feed their predictors; prediction
error is sampled for every registered node, an offline one scored on its last
prediction; finally ``ChurnProcess.depart`` ends expired sessions silently,
and every offline node's lookup table and stores are dropped.

What cannot differ between cells runs once per slot, in ``SimulationState``:
the churn, the search count and every (initiator, target) pair, each joiner's
lookup table, and the ``StatusFeed``: one status history per node, which every
predictor kind reads, and one ``PredictorLayer`` per kind.  The registry is
``topology.nodes``.  One online set, built after arrivals, serves the joins and
every ping of the slot, since departures come last.  Each ``Cell`` holds only
what its config shapes: one stabilizer store per node, ``None`` while the
node is offline, and for a kind fed by traffic (``ludp``) its own predictor
layer.  The searches run once per cell, in cell order, between the joins and
the predictor feed, so every cell routes against the same overlay and the same
predictions as it would alone.  Predictions not fed by traffic therefore hold
still through a slot's searches, and a cell builds each node's piggyback entry
once per slot.  A search step is one :func:`route_step` call, which descends
to the level it forwards at.

``ChurnProcess`` is the package's one churn law; ``predict-bench`` runs it
without the overlay.  A run draws churn and searches from the stream
``[seed, topology, 1]``, ``predict-bench`` from ``[seed, topology, 2]``, so
the two score different churn realizations.  No stabilizer or predictor
draws from the stream, so every cell sees the same draws.  ``Counters`` is
the one per-topology result record: a run keeps one per topology and cell
in the cell's ``RunMetrics``, and ``predict-bench`` one per topology and
predictor kind.

Topology runs are pure functions of (cells, topology index) and may execute
in parallel; ``topology_map`` is the one rule for how ``run`` and
``predict-bench`` spread them over processes.  A fault names where it
happened: ``run_topology`` raises any fault again as ``topology <t> failed:
...``, and ``run_slot`` names a fault in one cell's searches first, as in
``topology 0 failed: combination dks/swdbg/b=8 failed: ...``.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Callable, ClassVar, Iterator, Optional, Sequence

import numpy as np

from .churn import ChurnModel, draw_arrival_count, draw_session_length
from .overlay import (
    ConfigError,
    LookupTable,
    NodeIdentity,
    PiggybackEntry,
    SearchMessage,
    TopologySnapshot,
    _is_power_of_two,
    generate_topology,
    join_node,
    route_step,
)
from .predictors import PREDICTOR_KINDS, TRAFFIC_FED_KINDS, PredictorLayer, StatusFeed
from .stabilizers import STABILIZER_KINDS, make_stabilizer

DEFAULT_SEARCH_CAP = 2000

# The latency model: a round trip is RTT_BASE_MS plus RTT_PER_UNIT_MS per unit
# of unit-square distance, and a timeout waits TIMEOUT_MULTIPLIER round trips.
RTT_BASE_MS = 10.0
RTT_PER_UNIT_MS = 100.0
TIMEOUT_MULTIPLIER = 2.0


@dataclass(frozen=True)
class SimConfig:
    """The settings of one sweep cell; a field is a value some experiment varies.

    The model's fixed numbers are module constants beside the code that reads
    them, since no experiment varies them:

    - the latency model, here: ``RTT_BASE_MS``, ``RTT_PER_UNIT_MS`` and
      ``TIMEOUT_MULTIPLIER``;
    - the SW-DBG state-size cap, ``predictors.MAX_STATE_SIZE``;
    - the Debian session law the paper measured, ``churn.SESSION_SHAPE`` and
      ``churn.SESSION_MEAN_HOURS``, with Poisson arrivals.  Their rate stays
      a field of ``churn``, because the offline fraction it sets depends on
      the capacity.
    """

    capacity: int = 1024
    slots: int = 168
    topologies: int = 100
    backup_size: int = 40
    stabilizer: str = "interlaced"
    predictor: str = "swdbg"
    search_cap: int = DEFAULT_SEARCH_CAP
    seed: int = 1
    churn: ChurnModel = field(default_factory=ChurnModel)

    def __post_init__(self) -> None:
        if not _is_power_of_two(self.capacity) or self.capacity < 2:
            raise ConfigError(f"capacity must be a power of two >= 2, got {self.capacity}")
        if self.slots < 1:
            raise ConfigError("slots must be >= 1")
        if self.topologies < 1:
            raise ConfigError("topologies must be >= 1")
        if self.backup_size < 0:
            raise ConfigError("backup-size must be >= 0")
        if self.stabilizer not in STABILIZER_KINDS:
            raise ConfigError(f"unknown stabilizer: {self.stabilizer}")
        if self.predictor not in PREDICTOR_KINDS:
            raise ConfigError(f"unknown predictor: {self.predictor}")
        if self.search_cap < 0:
            raise ConfigError("search-cap must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def rtt_ms(a: NodeIdentity, b: NodeIdentity) -> float:
    """Synthetic symmetric round trip time from unit-square coordinates."""
    return RTT_BASE_MS + RTT_PER_UNIT_MS * math.hypot(a.coords[0] - b.coords[0], a.coords[1] - b.coords[1])


@dataclass
class Counters:
    """Additive run counters; every average in a report is a ratio of two."""

    online_count: int = 0
    searches_initiated: int = 0
    searches_succeeded: int = 0
    sum_latency_ms: float = 0.0
    sum_prediction_error: float = 0.0
    prediction_samples: int = 0
    resolve_invocations: int = 0
    resolve_messages: int = 0
    backup_entries_sum: int = 0
    backup_samples: int = 0
    right_size_sum: int = 0
    right_size_samples: int = 0

    def add(self, other: Counters) -> None:
        for f in fields(Counters):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    @classmethod
    def sum_of(cls, parts) -> Counters:
        """The sum of ``parts``, added in order onto zero counters."""
        total = cls()
        for part in parts:
            total.add(part)
        return total


@dataclass
class SlotMetrics(Counters):
    slot_index: int = 0


@dataclass(slots=True)
class SearchOutcome:
    success: bool
    latency_ms: float
    hops: int
    resolve_invocations: int
    resolve_messages: int


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


@dataclass
class RunMetrics:
    """One cell's topology runs: each topology's counters and the slot series.

    ``per_topology`` holds one ``Counters`` per topology run, in topology
    order; ``slot_series`` holds each slot's counters summed over them.
    ``figures`` derives every report figure from them: each average in
    ``FIGURES`` is the ratio of its two counters summed over the topologies in
    topology order, each std weights the topologies by the denominator, and
    ``topologies`` and ``slots`` are the two lengths.
    """

    levels: int
    slot_series: list[SlotMetrics]
    per_topology: list[Counters]

    # Each averaged figure: (numerator counter, denominator counter, whether
    # its across-topology std is reported), in report column order.
    FIGURES: ClassVar[dict[str, tuple[str, str, bool]]] = {
        "success_ratio": ("searches_succeeded", "searches_initiated", True),
        "search_latency_ms": ("sum_latency_ms", "searches_initiated", True),
        "prediction_error": ("sum_prediction_error", "prediction_samples", True),
        "resolve_messages": ("resolve_messages", "resolve_invocations", False),
        "backup_neighbors_per_level": ("backup_entries_sum", "backup_samples", False),
    }

    def figures(self) -> dict:
        """Every report figure by column name, in column order."""
        totals = Counters.sum_of(self.per_topology)
        out = {}
        for name, (num, den, std) in self.FIGURES.items():
            out[f"avg_{name}"] = _ratio(getattr(totals, num), getattr(totals, den))
            if std:
                out[f"std_{name}"] = self._weighted_std(num, den)
        out["avg_backup_neighbors_per_level"] /= self.levels
        out.update(topologies=len(self.per_topology), slots=len(self.slot_series))
        return out

    def _weighted_std(self, num: str, den: str) -> float:
        """Across-topology std of num/den, each topology weighted by its den."""
        runs = [t for t in self.per_topology if getattr(t, den)]
        if not runs:
            return 0.0
        v = np.asarray([getattr(t, num) / getattr(t, den) for t in runs])
        w = np.asarray([getattr(t, den) for t in runs], dtype=float)
        mean = float(np.average(v, weights=w))
        return float(math.sqrt(np.average((v - mean) ** 2, weights=w)))


class ChurnProcess:
    """Online status and Debian session counts, by registry index.

    ``arrive`` draws one slot: under ``debian`` an arrival count, that many
    offline nodes without replacement, then one Weibull session per arrival
    in ascending order; under ``uniform`` one draw per node, online when it
    is at least ``uniform_q``.  ``depart`` ends Debian sessions after their
    last slot, so a session of s slots is online exactly s slots.
    """

    __slots__ = ("model", "online", "session_left")

    def __init__(self, model: ChurnModel, size: int):
        self.model = model
        self.online = [False] * size
        self.session_left = [0] * size

    def arrive(self, rng: np.random.Generator) -> list[int]:
        """Draw one slot's churn; returns the arrivals in ascending index order."""
        model = self.model
        online = self.online
        if model.kind == "uniform":
            q = model.uniform_q
            arrivals = []
            for i, u in enumerate(rng.random(len(online)).tolist()):
                up = u >= q
                if up and not online[i]:
                    arrivals.append(i)
                online[i] = up
            return arrivals
        offline = [i for i, up in enumerate(online) if not up]
        count = min(draw_arrival_count(model, rng), len(offline))
        if count <= 0:
            return []
        picks = rng.choice(len(offline), size=count, replace=False)
        arrivals = sorted(offline[j] for j in picks.tolist())
        for i in arrivals:
            online[i] = True
            self.session_left[i] = draw_session_length(rng)
        return arrivals

    def depart(self) -> None:
        """End the Debian sessions that expire with this slot."""
        if self.model.kind != "debian":
            return
        left = self.session_left
        for i, up in enumerate(self.online):
            if up:
                left[i] -= 1
                if left[i] <= 0:
                    self.online[i] = False


@dataclass(slots=True)
class Cell:
    """One sweep cell of a topology run: its config, stores and predictions.

    ``stabilizers`` and ``layer.predictors`` are indexed by registry position;
    a store is ``None`` while its node is offline.
    Cells of one predictor kind share one ``PredictorLayer``, except kinds
    fed by traffic, whose layer is the cell's own.  ``entries`` holds the
    piggyback entries built in the current slot, by registry position, for a
    kind that traffic does not feed; ``run_slot`` empties it.
    """

    config: SimConfig
    stabilizers: list
    layer: PredictorLayer
    trace_sink: Optional[Callable[[dict], None]] = None
    entries: dict[int, PiggybackEntry] = field(default_factory=dict)


# The sweep axes: the only fields in which the cells of one topology run differ.
SWEEP_FIELDS = ("stabilizer", "predictor", "backup_size")


def _shared_settings(cfg: SimConfig) -> tuple:
    return tuple(getattr(cfg, f.name) for f in fields(SimConfig) if f.name not in SWEEP_FIELDS)


class SimulationState:
    """Mutable state of one topology run, shared by all its cells.

    A node is its index in ``topology.nodes``, the one registry: ``churn``,
    the status histories and predictors of ``feed``, ``lookups`` and each
    cell's stabilizers are lists by that index, the last two ``None`` while
    the node is offline, and ``topology.index_of`` turns the numerical IDs
    that searches, lookup tables and stores speak in back into it.
    ``online_ids`` is the set of online numerical IDs, derived from ``churn``
    once per slot, after arrivals.  ``config`` is the first cell's, and holds
    every setting the cells share.
    """

    def __init__(self, cells: Sequence[SimConfig], topology: TopologySnapshot, rng: np.random.Generator):
        if not cells:
            raise ValueError("a topology run needs at least one cell")
        config = cells[0]
        if any(_shared_settings(c) != _shared_settings(config) for c in cells):
            raise ValueError("cells of one topology run may differ only in " + ", ".join(SWEEP_FIELDS))
        self.config = config
        self.topology = topology
        self.rng = rng
        idents = topology.nodes
        self.churn = ChurnProcess(config.churn, len(idents))
        self.lookups: list[Optional[LookupTable]] = [None] * len(idents)
        self.feed = StatusFeed(len(idents))
        self.cells = [Cell(cfg, [None] * len(idents), self.feed.layer(cfg.predictor)) for cfg in cells]
        self.online_ids: set[int] = set()
        self.slot_index = 0

    def bring_online(self, index: int, slot: int) -> None:
        """Replay the slots an arriving node missed as offline bits, in every layer."""
        self.feed.catch_up(index, slot)

    def join(self, index: int) -> None:
        """Build the node's lookup table and each cell's store anew.

        Departing is a crash, so a returning node joins like a new one.
        """
        topology = self.topology
        ident = topology.nodes[index]
        self.lookups[index] = join_node(topology, ident, self.online_ids)
        for cell in self.cells:
            cfg = cell.config
            cell.stabilizers[index] = make_stabilizer(cfg.stabilizer, ident, topology, cfg.backup_size)


def _piggyback_entry(ident: NodeIdentity, predictor) -> PiggybackEntry:
    sop = min(1.0, max(0.0, predictor.prediction))
    return PiggybackEntry(ident.num_id, ident.name_bits, sop)


def run_search(state: SimulationState, cell: Cell, initiator: int, target: int) -> SearchOutcome:
    """Route one search of ``cell`` for ``target`` starting at ``initiator``,
    both numerical IDs.

    The message carries the target and level only.  Until it reaches the
    target, each step forwards to the eligible level neighbor on the target's
    side, which :func:`route_step` finds by descending in one call, so the
    path moves strictly towards the target and no node sends twice.  A
    forward to an online neighbor costs one round trip; one to an offline
    neighbor costs a timeout and then consults the cell's stabilizer, whose
    contact trace is charged per attempt (a timeout per offline candidate,
    one round trip for the online one, which also carries the redirect).
    When the cell's stores read the search path, each forward and redirect
    appends the sender's entry to the piggyback and updates the receiver's
    store.  An entry of a kind that traffic does not feed is built once per
    node and slot and then reused, since that prediction holds still while
    the searches run; only a traffic-fed kind counts the messages a node
    answers.  With no candidate the search descends a level; with no
    eligible neighbor at any level, or no candidate at level 0, it ends with
    the executor as result.  A search for its own initiator succeeds at once
    with no hop and no latency.
    """
    nodes = state.topology.nodes
    index_of = state.topology.index_of
    lookups = state.lookups
    stabilizers = cell.stabilizers
    predictors = cell.layer.predictors
    online = state.churn.online
    ping = state.online_ids.__contains__
    current = index_of[initiator]
    current_id = initiator
    # a cell's stores are all of one kind, and an online initiator has joined
    reads_path = stabilizers[current].reads_path
    traffic_fed = cell.layer.kind in TRAFFIC_FED_KINDS
    # a traffic-fed entry changes from search to search, and within one
    # search each node sends at most once
    entries = {} if traffic_fed else cell.entries
    trace_hops: Optional[list] = [] if cell.trace_sink else None

    msg = SearchMessage(target_num_id=target, level=state.topology.name_length - 1)
    latency = 0.0
    hops = 0
    resolve_inv = 0
    resolve_msgs = 0
    step_guard = 40 * cell.config.capacity + 100

    while current_id != target:
        step_guard -= 1
        if step_guard <= 0:
            raise RuntimeError("search did not terminate; routing invariant broken")
        nb = route_step(current_id, lookups[current], msg)
        if nb is None:
            break
        here = nodes[current]
        hop_rtt = rtt_ms(here, nb)
        hop = index_of[nb.num_id]
        if online[hop]:
            latency += hop_rtt
            if traffic_fed:
                predictors[hop].record_incoming()
            kind = "forward"
        else:
            # timeout failure on the lookup neighbor
            latency += TIMEOUT_MULTIPLIER * hop_rtt
            candidate, contacts = stabilizers[current].resolve(msg, ping)
            resolve_inv += 1
            resolve_msgs += len(contacts)
            for num_id, answered in contacts:
                other = index_of[num_id]
                ping_rtt = rtt_ms(here, nodes[other])
                if answered:
                    latency += ping_rtt
                    if traffic_fed:
                        predictors[other].record_incoming()
                else:
                    latency += TIMEOUT_MULTIPLIER * ping_rtt
            if trace_hops is not None:
                trace_hops.append(
                    {
                        "from": current_id,
                        "level": msg.level,
                        "kind": "resolve",
                        "failed_neighbor": nb.num_id,
                        "contacts": [[num_id, answered] for num_id, answered in contacts],
                    }
                )
            if candidate is None:
                # no candidate: descend, or end at level 0
                if msg.level == 0:
                    break
                msg.level -= 1
                continue
            hop = index_of[candidate]
            kind = "redirect"
        hops += 1
        hop_id = nodes[hop].num_id
        if reads_path:
            entry = entries.get(current)
            if entry is None:
                entry = entries[current] = _piggyback_entry(here, predictors[current])
            msg.piggyback.append(entry)
            stabilizers[hop].update(lookups[hop], msg.piggyback)
        if trace_hops is not None:
            trace_hops.append({"from": current_id, "to": hop_id, "level": msg.level, "kind": kind})
        current, current_id = hop, hop_id

    outcome = SearchOutcome(
        success=current_id == target,
        latency_ms=latency,
        hops=hops,
        resolve_invocations=resolve_inv,
        resolve_messages=resolve_msgs,
    )
    if cell.trace_sink is not None:
        cell.trace_sink(
            {
                "slot": state.slot_index,
                "initiator": initiator,
                "target": target,
                "success": outcome.success,
                "latency_ms": outcome.latency_ms,
                "hops": trace_hops,
                "result": current_id,
            }
        )
    return outcome


def run_slot(state: SimulationState) -> list[SlotMetrics]:
    """Advance every cell by one slot; returns each cell's metrics, in cell order.

    Churn, joins, the search pairs, the status feed and each shared predictor
    layer run once; only the searches and the backup sampling run per cell.
    The search pairs come from one draw of the slot's endpoint indices.
    """
    slot = state.slot_index
    cfg = state.config
    rng = state.rng
    churn = state.churn
    nodes = state.topology.nodes

    arrivals = churn.arrive(rng)
    up = churn.online
    online = [ident.num_id for ident, on in zip(nodes, up) if on]
    state.online_ids = set(online)
    for i in arrivals:
        state.bring_online(i, slot)
    for i in arrivals:
        state.join(i)
    n_o = len(online)

    pairs: list[tuple[int, int]] = []
    if n_o >= 1:
        max_pairs = n_o * (n_o - 1) // 2
        count = int(rng.integers(0, max_pairs + 1)) if max_pairs > 0 else 0
        count = min(count, cfg.search_cap)
        # One draw of 2 * count indices, paired as (even, odd) positions: the
        # same stream as drawing each initiator and then its target in turn.
        drawn = iter(rng.integers(n_o, size=2 * count).tolist())
        pairs = [(online[i], online[j]) for i, j in zip(drawn, drawn)]

    series = []
    for cell in state.cells:
        cell.entries.clear()
        metrics = SlotMetrics(slot_index=slot, online_count=n_o)
        try:
            for initiator, target in pairs:
                outcome = run_search(state, cell, initiator, target)
                metrics.searches_initiated += 1
                metrics.searches_succeeded += 1 if outcome.success else 0
                metrics.sum_latency_ms += outcome.latency_ms
                metrics.resolve_invocations += outcome.resolve_invocations
                metrics.resolve_messages += outcome.resolve_messages
        except Exception as exc:
            c = cell.config
            raise RuntimeError(f"combination {c.stabilizer}/{c.predictor}/b={c.backup_size} failed: {exc}") from exc
        series.append(metrics)

    # end-of-slot status updates for every node online during this slot
    # (departures come last, so ``up`` is still the slot's status), then
    # prediction error sampled for every registered node
    state.feed.feed_online(up)
    scores = {layer: (layer.error_sum(up, 0.0), *layer.wide_end_sample()) for layer in state.feed.layers}
    for cell, metrics in zip(state.cells, series):
        metrics.sum_prediction_error, metrics.right_size_sum, metrics.right_size_samples = scores[cell.layer]
        metrics.prediction_samples = len(nodes)
        if cell.config.stabilizer != "none":
            metrics.backup_entries_sum = sum(s.total_entries() for s, on in zip(cell.stabilizers, up) if on)
            metrics.backup_samples = n_o

    churn.depart()
    # a departure is a crash: nothing reads an offline node's table or stores
    for i, on in enumerate(churn.online):
        if not on and state.lookups[i] is not None:
            state.lookups[i] = None
            for cell in state.cells:
                cell.stabilizers[i] = None
    state.slot_index += 1
    return series


@contextmanager
def topology_map(workers: int, topologies: int) -> Iterator[Callable]:
    """A ``map`` for one task per topology, in task order: in this process for
    one worker or one topology, else on a spawn-context pool of
    ``min(workers, topologies)`` processes, closed on exit."""
    if workers > 1 and topologies > 1:
        # Imported here: a serial run never loads the pool's modules.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=min(workers, topologies), mp_context=context) as pool:
            yield pool.map
    else:
        yield map


def topology_seed(seed: int, topology_index: int) -> int:
    ss = np.random.SeedSequence([seed, topology_index, 0])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def run_topology(
    cells: Sequence[SimConfig],
    topology_index: int,
    sinks: Optional[Sequence[Callable[[dict], None]]] = None,
) -> list[RunMetrics]:
    """Simulate one topology for every cell in lockstep; one ``RunMetrics`` per cell.

    ``sinks``, when given, holds one per-search trace sink per cell.  Any
    fault is raised again as a ``RuntimeError`` that names the topology.
    """
    cfg = cells[0]
    try:
        topo = generate_topology(cfg.capacity, topology_seed(cfg.seed, topology_index))
        rng = np.random.default_rng([cfg.seed, topology_index, 1])
        state = SimulationState(cells, topo, rng)
        for cell, sink in zip(state.cells, sinks or ()):
            cell.trace_sink = sink
        per_slot = [run_slot(state) for _ in range(cfg.slots)]
    except Exception as exc:
        raise RuntimeError(f"topology {topology_index} failed: {exc}") from exc
    return [
        RunMetrics(levels=topo.name_length, slot_series=list(series), per_topology=[Counters.sum_of(series)])
        for series in zip(*per_slot)
    ]


def aggregate(runs: list[RunMetrics]) -> RunMetrics:
    """Merge topology runs; per-topology counters concatenate, slot series add index-wise."""
    if not runs:
        raise ValueError("nothing to aggregate")
    slots = len(runs[0].slot_series)
    levels = runs[0].levels
    if any(len(r.slot_series) != slots or r.levels != levels for r in runs):
        raise ValueError("runs must share slot count and level count")
    slot_series = [SlotMetrics(slot_index=i) for i in range(slots)]
    for r in runs:
        for tgt, sm in zip(slot_series, r.slot_series):
            tgt.add(sm)
    return RunMetrics(levels, slot_series, [t for r in runs for t in r.per_topology])
