import json
import math
import os
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import pytest

from skipchurn import cli, engine
from skipchurn.churn import (
    MAX_ARRIVAL_RATE, SESSION_SCALE_HOURS, SESSION_SHAPE, SLOT_SECONDS, draw_arrival_count, draw_session_length,
)
from skipchurn.engine import (
    SWEEP_FIELDS, ChurnProcess, Counters, RunMetrics, SearchOutcome, SimConfig, SimulationState, SlotMetrics,
    run_search,
)
from skipchurn.overlay import PiggybackEntry, SearchMessage, generate_topology, join_node
from skipchurn.stabilizers import STABILIZER_KINDS, BackupTable, KademliaBuckets, make_stabilizer

SRC = Path(__file__).resolve().parents[1] / "src"


def test_churn_free_run_succeeds_without_resolves(tmp_path):
    # With uniform churn at q = 0 every node is online from the first slot and
    # every lookup table is exact, so every search must reach its target and no
    # timeout may ever reach a stabilizer.  Run under -O so that the checks the
    # engine relies on are not asserts.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    subprocess.run(
        [sys.executable, "-O", "-m", "skipchurn.cli", "run",
         "--churn-kind", "uniform", "--uniform-q", "0", "--capacity", "64", "--slots", "4",
         "--topologies", "1", "--workers", "1", "--stabilizer", ",".join(STABILIZER_KINDS),
         "--out", str(tmp_path)],
        env=env, check=True, capture_output=True,
    )
    rows = json.loads((tmp_path / "results.json").read_text(encoding="utf-8"))["rows"]
    assert sorted(row["stabilizer"] for row in rows) == sorted(STABILIZER_KINDS)
    for row in rows:
        series = row["slot_series"]
        assert sum(s["searches_initiated"] for s in series) > 0
        assert row["avg_success_ratio"] == 1.0
        assert sum(s["resolve_invocations"] for s in series) == 0
        assert all(s["online_count"] == 64 for s in series)


def test_search_for_its_initiator_succeeds_at_once():
    topo = generate_topology(16, seed=3)
    state = SimulationState([SimConfig(capacity=16)], topo, np.random.default_rng(0))
    cell = state.cells[0]
    records = []
    cell.trace_sink = records.append
    nid = topo.nodes[5].num_id
    state.join(5)
    assert run_search(state, cell, nid, nid) == SearchOutcome(True, 0.0, 0, 0, 0)
    assert len(records) == 1
    assert records[0]["hops"] == [] and records[0]["success"] and records[0]["result"] == nid


def test_run_figures_are_ratios_of_the_summed_counters(tmp_path):
    # The second topology has no resolves and no backup samples, as in a none cell.
    a = Counters(searches_initiated=10, searches_succeeded=7, sum_latency_ms=250.0, sum_prediction_error=3.5,
                 prediction_samples=20, resolve_invocations=4, resolve_messages=9, backup_entries_sum=60,
                 backup_samples=5)
    b = Counters(searches_initiated=30, searches_succeeded=24, sum_latency_ms=900.0, sum_prediction_error=12.0,
                 prediction_samples=40)
    metrics = RunMetrics(levels=4, slot_series=[SlotMetrics(slot_index=i) for i in range(3)], per_topology=[a, b])

    def weighted_std(v, w):
        mean = (v[0] * w[0] + v[1] * w[1]) / (w[0] + w[1])
        return math.sqrt((w[0] * (v[0] - mean) ** 2 + w[1] * (v[1] - mean) ** 2) / (w[0] + w[1]))

    assert metrics.figures() == {
        "avg_success_ratio": 31 / 40,
        "std_success_ratio": pytest.approx(weighted_std([7 / 10, 24 / 30], [10, 30]), rel=1e-12),
        "avg_search_latency_ms": 1150.0 / 40,
        "std_search_latency_ms": pytest.approx(weighted_std([25.0, 30.0], [10, 30]), rel=1e-12),
        "avg_prediction_error": 15.5 / 60,
        "std_prediction_error": pytest.approx(weighted_std([3.5 / 20, 12.0 / 40], [20, 40]), rel=1e-12),
        "avg_resolve_messages": 9 / 4,
        "avg_backup_neighbors_per_level": 60 / 5 / 4,
        "topologies": 2,
        "slots": 3,
    }
    argv = ["run", "--capacity", "16", "--slots", "1", "--topologies", "1", "--workers", "1", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    header = (tmp_path / "results.csv").read_text(encoding="utf-8").splitlines()[0].split(",")
    assert header == [*SWEEP_FIELDS, *metrics.figures(), "seed"]


# Per-slot counters that depend only on churn, the search workload draws and
# status-fed predictors, never on routing or the stabilizer.
CHURN_COUNTERS = ("online_count", "searches_initiated", "sum_prediction_error", "right_size_sum")


def test_common_random_numbers_across_stabilizers_and_backup_sizes(tmp_path):
    # ludp is left out: it feeds on traffic, which the stabilizer shapes.
    argv = [
        "run", "--capacity", "64", "--slots", "12", "--topologies", "2", "--search-cap", "40",
        "--interarrival-mean-seconds", "300", "--seed", "4", "--workers", "1",
        "--stabilizer", ",".join(STABILIZER_KINDS), "--backup-size", "8,40",
        "--predictor", "swdbg,dbg3", "--out", str(tmp_path),
    ]
    assert cli.main(argv) == 0
    rows = json.loads((tmp_path / "results.json").read_text(encoding="utf-8"))["rows"]
    series = defaultdict(list)
    for row in rows:
        series[row["predictor"]].append(
            [[s[c] for c in CHURN_COUNTERS] for s in row["slot_series"]]
        )
    assert sorted(series) == ["dbg3", "swdbg"]
    for cells in series.values():
        assert len(cells) == 2 * len(STABILIZER_KINDS)
        assert all(cell == cells[0] for cell in cells)
    # the sweep did churn: online counts (summed over both topologies) vary
    # and stay below the 128 registered nodes, and some error was made
    online = [slot[0] for slot in series["swdbg"][0]]
    assert len(set(online)) > 1 and 0 < min(online) and max(online) < 2 * 64
    assert any(slot[2] > 0 for slot in series["swdbg"][0])


# A 2-topology Debian sweep small enough to run every cell again on its own.
ORACLE_RUN = [
    "run", "--capacity", "64", "--slots", "12", "--topologies", "2", "--search-cap", "40",
    "--interarrival-mean-seconds", "300", "--seed", "6", "--workers", "1",
]


def _rows(out: Path) -> list[dict]:
    return json.loads((out / "results.json").read_text(encoding="utf-8"))["rows"]


@pytest.mark.parametrize("variant", [[], ["--churn-kind", "uniform", "--uniform-q", "0.3"]],
                         ids=["debian-fresh", "uniform"])
def test_lockstep_cells_equal_each_cell_run_alone(tmp_path, variant):
    # One run advances all 24 cells of a topology together over shared churn,
    # joins and predictions; each cell run on its own must give the same row.
    sweep = ["--stabilizer", ",".join(STABILIZER_KINDS), "--predictor", "swdbg,ludp",
             "--backup-size", "0,8,40"]
    assert cli.main(ORACLE_RUN + variant + sweep + ["--out", str(tmp_path / "all")]) == 0
    rows = _rows(tmp_path / "all")
    assert len(rows) == 2 * 3 * len(STABILIZER_KINDS)
    # the cells differ, so sharing could have mixed them up
    assert len({row["avg_success_ratio"] for row in rows}) > 4
    for row in rows:
        out = tmp_path / f"{row['stabilizer']}-{row['predictor']}-{row['backup_size']}"
        alone = ["--stabilizer", row["stabilizer"], "--predictor", row["predictor"],
                 "--backup-size", str(row["backup_size"]), "--out", str(out)]
        assert cli.main(ORACLE_RUN + variant + alone) == 0
        assert _rows(out) == [row]


def _towards(origin, num_id, target):
    """Whether ``num_id`` lies strictly past ``origin`` towards ``target``, and not past it."""
    return origin < num_id <= target if target > origin else target <= num_id < origin


def test_every_hop_and_contact_moves_towards_the_target(tmp_path):
    # A search only moves towards its target, which is why its message needs
    # no side and no visited set: every forward and redirect lands strictly
    # past its sender and not past the target, and so does every node a
    # store contacts.
    sweep = ["--stabilizer", ",".join(STABILIZER_KINDS), "--predictor", "swdbg,ludp",
             "--backup-size", "2,40", "--trace"]
    assert cli.main(ORACLE_RUN + sweep + ["--out", str(tmp_path)]) == 0
    seen = Counter()
    with (tmp_path / "trace.ndjson").open(encoding="utf-8") as lines:
        for line in lines:
            record = json.loads(line)
            target = record["target"]
            for hop in record["hops"]:
                seen[hop["kind"]] += 1
                if hop["kind"] == "resolve":
                    for num_id, _ in hop["contacts"]:
                        seen["contact"] += 1
                        assert _towards(hop["from"], num_id, target), (record, hop)
                else:
                    assert _towards(hop["from"], hop["to"], target), (record, hop)
    assert min(seen[kind] for kind in ("forward", "redirect", "resolve", "contact")) > 100, seen


# Per-slot counters that routing and the stabilizer store decide.
SEARCH_COUNTERS = ("searches_initiated", "searches_succeeded", "sum_latency_ms",
                   "resolve_invocations", "resolve_messages")


def test_cells_that_ignore_b_or_the_predictor_search_alike(tmp_path):
    # none holds nothing, so neither b nor the predictor reaches its
    # searches; kademlia and dks never read piggybacked availability, so the
    # predictor does not reach theirs.  Both must hold slot by slot, ludp
    # (fed by the traffic itself) included.
    sweep = ["--stabilizer", "none,kademlia,dks", "--predictor", "swdbg,dbg3,lifetime,ludp",
             "--backup-size", "0,8,40"]
    assert cli.main(ORACLE_RUN + sweep + ["--out", str(tmp_path)]) == 0
    rows = _rows(tmp_path)
    assert len(rows) == 3 * 4 * 3
    signatures = defaultdict(set)
    resolves = 0
    for row in rows:
        series = row["slot_series"]
        group = "none" if row["stabilizer"] == "none" else (row["stabilizer"], row["backup_size"])
        signatures[group].add(tuple(tuple(s[c] for c in SEARCH_COUNTERS) for s in series))
        resolves += sum(s["resolve_invocations"] for s in series)
    assert len(signatures) == 1 + 2 * 3
    assert all(len(found) == 1 for found in signatures.values())
    # at b = 0 kademlia and dks hold as little as none; the other four groups
    # differ from it and from each other, and timeouts reached the stores
    assert len(set().union(*signatures.values())) == 5
    assert resolves > 10_000


def test_only_stores_that_read_the_path_get_piggybacks_and_updates(tmp_path, monkeypatch):
    # dks ignores piggybacks, and none and a kademlia store of b = 0 hold
    # nothing, so their searches build no piggyback entry and call no update.
    # A store that reads the path gets one update per hop.  A swdbg
    # prediction holds still while a slot's searches run, so each node's
    # entry is built at most once per slot; a ludp prediction counts the
    # messages its node answers, so a ludp entry is built for every hop.
    calls = defaultdict(int)
    built = defaultdict(int)  # (slot run, sender) -> entries built
    slots_run = [0]

    def counting(kind, fn):
        def wrapper(*args, **kwargs):
            calls[kind] += 1
            return fn(*args, **kwargs)
        return wrapper

    def counting_search(*args):
        outcome = search(*args)
        calls["hop"] += outcome.hops
        return outcome

    def counting_slot(state):
        slots_run[0] += 1
        return slot(state)

    def counting_entry(ident, predictor):
        built[slots_run[0], ident.num_id] += 1
        return entry(ident, predictor)

    search, slot, entry = engine.run_search, engine.run_slot, engine._piggyback_entry
    monkeypatch.setattr(engine, "run_search", counting_search)
    monkeypatch.setattr(engine, "run_slot", counting_slot)
    monkeypatch.setattr(engine, "_piggyback_entry", counting_entry)
    # a dks store has no update, so a call would raise
    for store in (BackupTable, KademliaBuckets):
        monkeypatch.setattr(store, "update", counting("update", store.update))
    cases = [(kind, 8, "swdbg") for kind in STABILIZER_KINDS] + [("kademlia", 0, "swdbg")]
    cases += [(kind, 8, "ludp") for kind in ("interlaced", "kademlia")]
    for kind, b, predictor in cases:
        calls.clear()
        built.clear()
        argv = ORACLE_RUN + ["--stabilizer", kind, "--backup-size", str(b), "--predictor", predictor,
                             "--out", str(tmp_path / f"{kind}-{b}-{predictor}")]
        assert cli.main(argv) == 0
        hops = calls.pop("hop")
        assert hops > 1000
        entries = sum(built.values())
        if not (kind in ("interlaced", "kademlia") and b > 0):
            assert calls == {} and entries == 0
            continue
        # every hop of a path-reading store carries one update
        assert calls == {"update": hops}
        if predictor == "ludp":
            assert entries == hops
        else:
            assert max(built.values()) == 1
            assert entries < hops / 2


def test_cells_share_one_predictor_layer_per_kind_except_traffic_fed():
    cells = [SimConfig(capacity=16, stabilizer=s, predictor=p, backup_size=b)
             for s in ("kademlia", "dks") for p in ("swdbg", "ludp", "dbg2") for b in (8, 40)]
    state = SimulationState(cells, generate_topology(16, seed=3), np.random.default_rng(0))
    layers = {}
    for cell in state.cells:
        layers.setdefault(cell.config.predictor, set()).add(id(cell.layer))
    assert {kind: len(ids) for kind, ids in layers.items()} == {"swdbg": 1, "dbg2": 1, "ludp": 4}
    assert len(state.feed.layers) == 6
    assert {id(cell.layer) for cell in state.cells} == {id(layer) for layer in state.feed.layers}
    # every layer reads the one history per node
    for layer in state.feed.layers:
        assert all(pred.history is h for pred, h in zip(layer.predictors, state.feed.histories, strict=True))
    state.join(0)
    assert len({id(cell.stabilizers[0]) for cell in state.cells}) == len(cells)


@pytest.mark.parametrize("kind", STABILIZER_KINDS)
def test_a_returning_node_builds_its_lookup_table_and_store_anew(kind):
    # Departing is a crash: whatever the store learned, or lost to failures,
    # and whoever was online at the last join, a rejoin starts from scratch.
    topo = generate_topology(16, seed=3)
    state = SimulationState([SimConfig(capacity=16, stabilizer=kind, backup_size=8)], topo, np.random.default_rng(0))
    cell = state.cells[0]
    i = 5
    ident = topo.nodes[i]
    assert state.lookups[i] is None and cell.stabilizers[i] is None
    state.online_ids = {n.num_id for n in topo.nodes}
    state.join(i)
    store, first_lookup = cell.stabilizers[i], state.lookups[i]
    fresh = make_stabilizer(kind, ident, topo, 8).total_entries()
    assert store.total_entries() == fresh
    if store.reads_path:
        store.update(first_lookup, [PiggybackEntry(n.num_id, n.name_bits, 0.5) for n in topo.nodes])
    else:
        store.resolve(SearchMessage(topo.nodes[-1].num_id, 0), lambda _: False)
    assert (store.total_entries() != fresh) == (kind != "none")
    state.online_ids = {n.num_id for n in topo.nodes[::2]}
    state.join(i)
    assert cell.stabilizers[i] is not store
    assert cell.stabilizers[i].total_entries() == fresh
    assert state.lookups[i] == join_node(topo, ident, state.online_ids) != first_lookup


@pytest.mark.parametrize(
    "churn", [{"interarrival_mean_seconds": 300.0}, {"churn_kind": "uniform", "uniform_q": 0.5}],
    ids=["debian", "uniform"],
)
def test_a_node_holds_its_table_and_stores_exactly_while_online(churn):
    # Departing is a crash: an offline node keeps no lookup table and no store.
    cells = [SimConfig(capacity=32, search_cap=20, stabilizer=kind, backup_size=8, **churn)
             for kind in STABILIZER_KINDS]
    state = SimulationState(cells, generate_topology(32, seed=3), np.random.default_rng(5))
    left = 0
    for _ in range(12):
        before = list(state.churn.online)
        engine.run_slot(state)
        online = state.churn.online
        left += sum(b and not on for b, on in zip(before, online))
        assert [lookup is not None for lookup in state.lookups] == online
        for cell in state.cells:
            assert [store is not None for store in cell.stabilizers] == online
    assert left > 0 and 0 < sum(online) < len(online)


def test_every_layer_has_fed_each_online_node_every_slot_so_far():
    # a node online at a slot's end was fed that slot and every one before it,
    # its missed slots caught up on return; an offline node waits for its return
    cells = [SimConfig(capacity=32, search_cap=20, stabilizer="interlaced", backup_size=8, predictor=kind,
                       interarrival_mean_seconds=300.0)
             for kind in ("swdbg", "ludp")]
    state = SimulationState(cells, generate_topology(32, seed=3), np.random.default_rng(5))
    assert [layer.kind for layer in state.feed.layers] == ["swdbg", "ludp"]
    behind = 0
    for _ in range(12):
        engine.run_slot(state)
        for history, on in zip(state.feed.histories, state.churn.online, strict=True):
            if on:
                assert history.seen == state.slot_index
            else:
                assert history.seen <= state.slot_index
                behind += history.seen < state.slot_index
    assert behind > 0


def test_cells_of_one_run_differ_only_in_the_sweep_axes():
    for other in (SimConfig(capacity=16, seed=2), SimConfig(capacity=16, churn_kind="uniform")):
        cells = [SimConfig(capacity=16), other]
        with pytest.raises(ValueError, match="may differ only in"):
            SimulationState(cells, generate_topology(16, seed=3), np.random.default_rng(0))


def test_churn_constants_are_the_measured_debian_profile():
    # No setting guards these any longer: sessions average 2.71 h, and
    # arrivals come every 39.86 s, about 90.3 per one-hour slot.
    assert SESSION_SCALE_HOURS * math.gamma(1.0 + 1.0 / SESSION_SHAPE) == pytest.approx(2.71, rel=1e-12)
    hours = np.random.default_rng(1).weibull(SESSION_SHAPE, 200_000) * SESSION_SCALE_HOURS
    assert float(hours.mean()) == pytest.approx(2.71, rel=0.01)
    assert SLOT_SECONDS / SimConfig().interarrival_mean_seconds == pytest.approx(90.3, abs=0.05)


def test_mean_session_length_in_slots_is_the_rounded_up_weibull_mean():
    # A session is its Weibull hours rounded up to whole slots, so its mean is
    # sum over j >= 0 of P(hours > j) = exp(-(j / scale) ** shape): 3.32 slots,
    # 23% above the 2.71 h the paper measured.
    closed_form = float(np.exp(-((np.arange(20_000) / SESSION_SCALE_HOURS) ** SESSION_SHAPE)).sum())
    assert closed_form == pytest.approx(3.32, abs=0.005)
    rng = np.random.default_rng(1)
    sample = [draw_session_length(rng) for _ in range(200_000)]
    assert sum(sample) / len(sample) == pytest.approx(closed_form, rel=0.01)


def test_the_smallest_accepted_arrival_mean_draws():
    # the bound is numpy's: the largest accepted rate draws, and a mean just
    # below the smallest accepted one is refused before any draw
    smallest = SLOT_SECONDS / MAX_ARRIVAL_RATE
    SimConfig(interarrival_mean_seconds=smallest)
    assert draw_arrival_count(smallest, np.random.default_rng(0)) > 0
    with pytest.raises(ValueError, match="interarrival mean must be at least"):
        SimConfig(interarrival_mean_seconds=smallest * (1 - 1e-9))
    with pytest.raises(ValueError):
        np.random.default_rng(0).poisson(MAX_ARRIVAL_RATE * 1.01)



@pytest.mark.parametrize("n", [1, 2, 3, 7, 301, 1024])
@pytest.mark.parametrize("k", [0, 1, 500])
def test_one_pair_draw_is_the_stream_of_scalar_draws(n, k):
    # run_slot draws a slot's 2k search endpoints in one call; it must give
    # the scalar draws' values and leave the stream where they leave it.
    one, scalar = np.random.default_rng([5, n, k]), np.random.default_rng([5, n, k])
    assert one.integers(n, size=2 * k).tolist() == [int(scalar.integers(n)) for _ in range(2 * k)]
    assert int(one.integers(n)) == int(scalar.integers(n))
    assert one.random() == scalar.random()


def test_a_serial_run_does_not_load_the_process_pool():
    # topology_map imports the pool only when it spreads work over processes.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    probe = ("import sys, skipchurn.cli; "
             "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", probe], env=env, check=True, capture_output=True, text=True)
    assert done.stdout.strip() == "[]"

def _run_slots(process, rng, slots):
    """(online before, arrivals, online after arrive, online after depart) per slot."""
    out = []
    for _ in range(slots):
        before = list(process.online)
        arrivals = process.arrive(rng)
        during = list(process.online)
        process.depart()
        out.append((before, arrivals, during, list(process.online)))
    return out


def test_debian_session_stays_online_exactly_its_length():
    process = ChurnProcess(SimConfig(interarrival_mean_seconds=600.0), 40)
    rng = np.random.default_rng(11)
    slots = 60
    during, after, sessions = [], [], []  # sessions: (index, first slot, length)
    for slot in range(slots):
        sessions += [(i, slot, process.session_left[i]) for i in process.arrive(rng)]
        during.append(list(process.online))
        process.depart()
        after.append(list(process.online))
    ended = [(i, start, length) for i, start, length in sessions if start + length <= slots]
    assert len(ended) > 40 and len({length for _, _, length in ended}) > 2
    for i, start, length in sessions:
        last = min(start + length, slots) - 1
        assert all(during[t][i] for t in range(start, last + 1))
        assert all(after[t][i] for t in range(start, last))
    for i, start, length in ended:
        assert not after[start + length - 1][i]


@pytest.mark.parametrize("kind", ["debian", "uniform"])
def test_arrivals_are_ascending_and_were_offline(kind):
    process = ChurnProcess(SimConfig(churn_kind=kind, uniform_q=0.5, interarrival_mean_seconds=300.0), 64)
    for before, arrivals, during, _ in _run_slots(process, np.random.default_rng(12), 30):
        assert arrivals == sorted(set(arrivals))
        assert all(not before[i] and during[i] for i in arrivals)
        assert [i for i in range(64) if during[i] and not before[i]] == arrivals


def test_uniform_q_zero_keeps_everyone_online():
    process = ChurnProcess(SimConfig(churn_kind="uniform", uniform_q=0.0), 16)
    slots = _run_slots(process, np.random.default_rng(13), 5)
    assert slots[0][1] == list(range(16))
    for _, arrivals, during, after in slots[1:]:
        assert arrivals == [] and all(during) and all(after)


def test_uniform_q_one_keeps_everyone_offline():
    process = ChurnProcess(SimConfig(churn_kind="uniform", uniform_q=1.0), 16)
    for _, arrivals, during, after in _run_slots(process, np.random.default_rng(14), 5):
        assert arrivals == [] and not any(during) and not any(after)
