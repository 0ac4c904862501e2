import copy
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from skipchurn.overlay import (
    LookupTable,
    NodeIdentity,
    PiggybackEntry,
    SearchMessage,
    generate_topology,
)
from skipchurn.stabilizers import (
    STABILIZER_KINDS,
    BackupTable,
    DksPointers,
    KademliaBuckets,
    _score,
    kademlia_capacity,
    make_stabilizer,
)

from oracles import ListBuckets, ListSuccessors, common_prefix_length, kademlia_capacity_loop

OWNER = NodeIdentity(num_id=100, name_bits=0b1000, coords=(0.5, 0.5))
HEIGHT = 4
# A 16-node registry: four name-ID levels, as HEIGHT
TOPOLOGY = generate_topology(16, seed=13)


def entry(num_id, name_id, sop=0.5):
    return PiggybackEntry(num_id=num_id, name_bits=int(name_id, 2), sop=sop)


def name_of(e):
    """The 4-bit name ID string of an entry or node, for the string-based oracles."""
    return format(e.name_bits, f"0{HEIGHT}b")


OWNER_NAME = name_of(OWNER)


def msg(target, level=0):
    return SearchMessage(target_num_id=target, level=level)


def contacted(trace):
    """The numerical IDs of a resolve's contacts, in contact order."""
    return [nid for nid, _ in trace]


def empty_lookup(height=HEIGHT):
    return LookupTable([[None, None] for _ in range(height)])


def always_online(_):
    return True


def online_set(ids):
    ids = set(ids)
    return lambda nid: nid in ids


def slot(table, num_id):
    """The ``(rank, cpl, entry)`` a backup table keeps for ``num_id``."""
    return table._sides[num_id > table.owner.num_id][num_id]


def stored(table):
    """Every entry of a backup table by numerical ID: the union of its two side dicts."""
    left, right = table._sides
    return {nid: e for nid, (_, _, e) in [*left.items(), *right.items()]}


def recency(buckets, level, side):
    """The num_ids of a Kademlia bucket, newest first."""
    return list(reversed(buckets.buckets[level][side]))


def pointers(dks, level, side):
    """The num_ids of a DKS successor list, head first."""
    head, end = dks._spans[level][side]
    group = dks._groups[level]
    return [group[i].num_id for i in range(head, end, 1 if side else -1)]


def members(table, level, side):
    """Ids a resolve at (level, side) contacts when nobody answers, on a copy."""
    target = 10**6 if side else 0
    _, trace = copy.deepcopy(table).resolve(msg(target, level), lambda _: False)
    return set(contacted(trace))


class TestCandCheck:
    """The candidate test of ``KademliaBuckets.resolve``: a level-0 bucket
    entry is contacted only if it does not lie past the target."""

    def contacts(self, ids, target):
        buckets = KademliaBuckets(OWNER, HEIGHT, max_size=16)  # cap 2 a side at level 0
        buckets.update(empty_lookup(), [entry(nid, "0001") for nid in ids])
        return contacted(buckets.resolve(msg(target), lambda _: False)[1])

    def test_right_overshoot(self):
        assert self.contacts([130, 150], 140) == [130]

    def test_left_in_range(self):
        assert self.contacts([60, 80], 70) == [80]

    def test_exact_target_allowed(self):
        assert self.contacts([140, 130], 140) == [140, 130]


class TestBackupUpdate:
    def test_scoring_substitution(self):
        # sop 0.8, shared prefix 3, numerical distance 6
        table = BackupTable(OWNER, HEIGHT, max_size=8)
        table.update(empty_lookup(), [PiggybackEntry(106, 0b1001, 0.8)])
        assert slot(table, 106)[0][0] == pytest.approx(0.8 * 3 / 6)

    def test_score_at_zero_distance_raises(self):
        with pytest.raises(ValueError, match="distance must be nonzero"):
            _score(0.8, 3, 0)

    def test_evicting_from_empty_table_raises(self):
        with pytest.raises(RuntimeError, match="empty table"):
            BackupTable(OWNER, HEIGHT, max_size=8)._evict_minimum()

    def test_lookup_neighbor_not_duplicated(self):
        table = BackupTable(OWNER, HEIGHT, max_size=8)
        levels = [[None, None] for _ in range(HEIGHT)]
        levels[0][1] = NodeIdentity(106, 0b0001, (0.0, 0.0))
        table.update(LookupTable(levels), [entry(106, "0001")])
        assert table.total_entries() == 0

    def test_self_not_inserted(self):
        table = BackupTable(OWNER, HEIGHT, max_size=8)
        table.update(empty_lookup(), [entry(100, "1000")])
        assert table.total_entries() == 0

    def test_placement_by_prefix_level_and_direction(self):
        table = BackupTable(OWNER, HEIGHT, max_size=8)
        table.update(empty_lookup(), [entry(106, "1011"), entry(90, "0111")])
        assert slot(table, 106)[1] == 2
        assert slot(table, 90)[1] == 0
        # an entry serves its own side at its level and below, nowhere else
        assert members(table, 2, 1) == {106}
        assert members(table, 3, 1) == set()
        assert members(table, 0, 0) == {90}
        assert members(table, 1, 0) == set()

    def test_prefix_level_capped_at_top(self):
        table = BackupTable(OWNER, HEIGHT, max_size=8)
        table.update(empty_lookup(), [entry(106, "1000")])
        # the whole name is shared; as a level that is the top one
        assert slot(table, 106)[1] == HEIGHT
        assert members(table, HEIGHT - 1, 1) == {106}
        assert members(table, HEIGHT - 1, 0) == set()

    def test_newest_version_overwrites(self):
        table = BackupTable(OWNER, HEIGHT, max_size=8)
        table.update(empty_lookup(), [entry(106, "1011", sop=0.2)])
        table.update(empty_lookup(), [entry(106, "1011", sop=0.9)])
        assert table.total_entries() == 1
        assert stored(table)[106].sop == 0.9
        assert members(table, 2, 1) == {106}

    def test_full_table_evicts_minimum_score(self):
        table = BackupTable(OWNER, HEIGHT, max_size=2)
        lookup = empty_lookup()
        table.update(lookup, [entry(106, "1011", sop=0.9), entry(90, "0111", sop=0.9)])
        # prefix-0 entry scores zero and is dropped first
        table.update(lookup, [entry(110, "1001", sop=0.9)])
        assert table.total_entries() == 2
        assert 90 not in stored(table)
        assert {106, 110} <= set(stored(table))

    def test_zero_capacity_accepts_nothing(self):
        table = BackupTable(OWNER, HEIGHT, max_size=0)
        table.update(empty_lookup(), [entry(106, "1011")])
        assert table.total_entries() == 0

    def test_eviction_matches_full_sort_oracle(self):
        rng = np.random.default_rng(8)
        for trial in range(30):
            size = int(rng.integers(2, 50))
            table = BackupTable(OWNER, HEIGHT, max_size=size)
            lookup = empty_lookup()
            used = {OWNER.num_id}
            items = []
            while len(items) < size:
                nid = int(rng.integers(1, 1000))
                if nid in used:
                    continue
                used.add(nid)
                name = "".join(rng.choice(["0", "1"], size=4).tolist())
                items.append(entry(nid, name, sop=float(rng.random())))
            table.update(lookup, items)
            assert table.total_entries() == size
            # oracle: worst = min score, ties to the farther then larger name
            def rank(e):
                cpl = common_prefix_length(OWNER_NAME, name_of(e))
                score = e.sop * cpl / abs(e.num_id - OWNER.num_id)
                inv = "".join("1" if c == "0" else "0" for c in name_of(e))
                return (score, -abs(e.num_id - OWNER.num_id), inv)
            expected_evict = min(stored(table).values(), key=rank).num_id
            newcomer = entry(1001, "1100", sop=0.5)
            table.update(lookup, [newcomer])
            assert table.total_entries() == size
            assert expected_evict not in stored(table)
            assert 1001 in stored(table)
            # each entry sits on its own side, once
            left, right = table._sides
            assert all(nid < OWNER.num_id for nid in left)
            assert all(nid > OWNER.num_id for nid in right)
            assert not left.keys() & right.keys()
            assert len(left) + len(right) == table.total_entries()

    @given(st_.lists(st_.tuples(st_.integers(0, 5000), st_.floats(0, 1)), min_size=1, max_size=400))
    @settings(max_examples=40, deadline=None)
    def test_size_never_exceeds_bound(self, items):
        table = BackupTable(OWNER, HEIGHT, max_size=13)
        lookup = empty_lookup()
        rng = np.random.default_rng(1)
        batch = []
        for nid, sop in items:
            if nid == OWNER.num_id:
                continue
            name = format(nid % 16, "04b")
            batch.append(entry(nid, name, sop=sop))
        for i in range(0, len(batch), 7):
            table.update(lookup, batch[i : i + 7])
            assert table.total_entries() <= 13


def oracle_rank(num_id, name, sop):
    """Eviction order from scratch: string prefix score, then farther, then
    larger name; a full tie (equal names either side of the owner) evicts the
    left entry."""
    distance = abs(num_id - OWNER.num_id)
    score = sop * common_prefix_length(OWNER_NAME, name) / distance
    inv = "".join("1" if c == "0" else "0" for c in name)
    return (score, -distance, inv, num_id)


class RecordingTable(BackupTable):
    """A BackupTable that logs the id of every entry it evicts."""

    def __init__(self, *args):
        super().__init__(*args)
        self.evicted = []

    def _evict_minimum(self):
        worst = super()._evict_minimum()
        self.evicted.append(worst.num_id)
        return worst


_NAMES = st_.sampled_from([format(i, "04b") for i in range(16)])
_SOPS = st_.sampled_from([0.0, 0.25, 0.5, 1.0])
_IDS = st_.integers(80, 120).filter(lambda n: n != OWNER.num_id)
_UPDATE = st_.tuples(st_.just("update"), st_.lists(st_.tuples(_IDS, _SOPS), max_size=8))
_RESOLVE = st_.tuples(
    st_.just("resolve"),
    st_.tuples(
        st_.one_of(_IDS, st_.integers(60, 140)),  # often the id of an entry
        st_.integers(0, HEIGHT - 1),
        st_.frozensets(_IDS),
    ),
)


def resolve_oracle(model, names, target, level, online):
    """The (num_id, online) contacts of a resolve, computed from scratch.

    Eligible: on the target's side of the owner, capped string prefix with
    the owner at least ``level``, and on the owner's side of the target.  The
    exact target goes first; the rest by best target-relative score, then
    nearer, then smaller name; contacts stop at the first online one.
    """
    right = target > OWNER.num_id

    def eligible(nid):
        cpl = common_prefix_length(OWNER_NAME, names[nid])
        return (
            (nid > OWNER.num_id) == right
            and min(cpl, HEIGHT - 1) >= level
            and (nid <= target if right else nid >= target)
        )

    def rank(nid):
        distance = abs(nid - target)
        score = model[nid] * common_prefix_length(OWNER_NAME, names[nid]) / distance
        return (-score, distance, names[nid])

    order = sorted((n for n in model if n != target and eligible(n)), key=rank)
    if target in model and eligible(target):
        order.insert(0, target)
    contacts = []
    for nid in order:
        contacts.append((nid, nid in online))
        if nid in online:
            break
    return contacts


class TestCachedScores:
    def test_score_zero_ties_evict_farther_then_larger_name(self):
        # owner 100 named 1000: every 0-prefixed entry scores zero, and so
        # does the 1-prefixed entry 101 with sop 0
        table = RecordingTable(OWNER, HEIGHT, 6)
        table.update(empty_lookup(), [
            entry(90, "0111"), entry(110, "0001"), entry(80, "0000"),
            entry(120, "0011"), entry(101, "1001", sop=0.0), entry(105, "1001", sop=0.5),
        ])
        for nid in range(111, 116):
            table.update(empty_lookup(), [entry(nid, "1010", sop=1.0)])
        assert table.evicted == [120, 80, 90, 110, 101]
        assert set(stored(table)) == {105, 111, 112, 113, 114, 115}

    def test_full_tie_evicts_left_entry(self):
        # equal scores, distances and names either side of the owner
        table = RecordingTable(OWNER, HEIGHT, 2)
        table.update(empty_lookup(), [entry(105, "0101"), entry(95, "0101")])
        table.update(empty_lookup(), [entry(111, "1010"), entry(112, "1010")])
        assert table.evicted == [95, 105]

    @given(st_.lists(st_.one_of(_UPDATE, _RESOLVE), max_size=40), st_.integers(1, 12),
           st_.lists(_NAMES, min_size=41, max_size=41))
    @settings(max_examples=150, deadline=None)
    def test_cached_scores_never_go_stale(self, steps, size, name_list):
        names = dict(zip(range(80, 121), name_list))
        table = RecordingTable(OWNER, HEIGHT, size)
        model = {}  # num_id -> latest sop the table was given
        for kind, arg in steps:
            table.evicted.clear()
            if kind == "update":
                expected = []
                for nid, sop in arg:
                    if nid not in model and len(model) >= size:
                        worst = min(model, key=lambda n: oracle_rank(n, names[n], model[n]))
                        expected.append(worst)
                        del model[worst]
                    model[nid] = sop
                table.update(empty_lookup(), [entry(nid, names[nid], sop) for nid, sop in arg])
                assert table.evicted == expected
            else:
                target, level, online = arg
                got, trace = table.resolve(msg(target, level), online.__contains__)
                expected = resolve_oracle(model, names, target, level, online)
                assert trace == expected
                assert got == (expected[-1][0] if expected and expected[-1][1] else None)
                for nid, answered in trace:
                    if not answered:
                        del model[nid]
            assert {nid: e.sop for nid, e in stored(table).items()} == model
            ranks = {r[3]: r for r in table._order}
            assert len(ranks) == len(table._order)
            for e in stored(table).values():
                assert e.name_bits == int(names[e.num_id], 2)
                cpl = common_prefix_length(OWNER_NAME, names[e.num_id])
                assert ranks[e.num_id][0] == e.sop * cpl / abs(e.num_id - OWNER.num_id)
                assert slot(table, e.num_id)[:2] == (ranks[e.num_id], cpl)
            assert table.total_entries() == len(model)
            # the index holds exactly the model's entries, in eviction order
            assert [r[3] for r in table._order] == sorted(model, key=lambda n: oracle_rank(n, names[n], model[n]))


class TestBackupResolve:
    def make_table(self, items, max_size=20):
        table = BackupTable(OWNER, HEIGHT, max_size=max_size)
        table.update(empty_lookup(), items)
        return table

    def test_exact_target_returned_with_single_contact(self):
        table = self.make_table([entry(140, "1011"), entry(120, "1001")])
        got, trace = table.resolve(msg(140, 1), always_online)
        assert got == 140
        assert contacted(trace) == [140]

    def test_offline_exact_target_removed_then_fallback(self):
        table = self.make_table([entry(140, "1011"), entry(120, "1011")])
        got, trace = table.resolve(msg(140, 1), online_set({120}))
        assert got == 120
        assert contacted(trace) == [140, 120]
        assert 140 not in stored(table)

    def test_exact_target_is_contacted_only_from_its_side(self):
        table = self.make_table([entry(90, "1001")])
        got, trace = table.resolve(msg(150), always_online)
        assert got is None and trace == []
        got, trace = table.resolve(msg(90), always_online)
        assert got == 90 and contacted(trace) == [90]

    def test_empty_set_returns_none(self):
        table = self.make_table([])
        got, trace = table.resolve(msg(140, 1), always_online)
        assert got is None and trace == []

    def test_contacts_follow_score_order_and_purge(self):
        # three candidates; the best is offline and must be dropped from the
        # table before the runner-up is contacted
        items = [
            entry(149, "1001", sop=0.9),
            entry(120, "1001", sop=0.4),
            entry(130, "1001", sop=0.1),
        ]
        table = self.make_table(items)
        got, trace = table.resolve(msg(150, 1), online_set({120, 130}))
        assert contacted(trace)[0] == 149
        assert trace[0][1] is False
        assert got == 120
        assert 149 not in stored(table)

    def test_contact_order_non_increasing_in_score(self):
        rng = np.random.default_rng(4)
        items = []
        used = {OWNER.num_id}
        for _ in range(30):
            nid = int(rng.integers(101, 400))
            if nid in used:
                continue
            used.add(nid)
            name = "".join(rng.choice(["0", "1"], size=4).tolist())
            items.append(entry(nid, name, sop=float(rng.random())))
        table = self.make_table(items, max_size=40)
        target = 400
        got, trace = table.resolve(msg(target), lambda _: False)
        assert got is None
        def rscore(nid):
            e = next(x for x in items if x.num_id == nid)
            cpl = common_prefix_length(OWNER_NAME, name_of(e))
            return e.sop * cpl / abs(e.num_id - target)
        scores = [rscore(nid) for nid in contacted(trace)]
        assert scores == sorted(scores, reverse=True)

    def test_resolution_uses_levels_at_and_above(self):
        # prefix-3 entry rescues a level-0 failure; prefix-0 entry cannot
        # rescue a level-1 failure
        table = self.make_table([entry(140, "1001"), entry(90, "0001")])
        got, _ = table.resolve(msg(150), always_online)
        assert got == 140
        got_left, _ = table.resolve(msg(80, 1), always_online)
        assert got_left is None


class TestKademlia:
    def test_capacity_distribution_example(self):
        caps = kademlia_capacity(50, 4)
        assert [sum(pair) for pair in caps] == [14, 12, 12, 12]

    def test_capacity_zero(self):
        assert kademlia_capacity(0, 4) == ((0, 0),) * 4

    def test_capacity_matches_the_loop(self):
        for levels in range(1, 20):
            for b in range(300):
                assert kademlia_capacity(b, levels) == kademlia_capacity_loop(b, levels), (b, levels)

    def test_capacity_exact_division(self):
        caps = kademlia_capacity(8, 4)
        assert caps == ((1, 1),) * 4

    def test_odd_shares_favor_left(self):
        caps = kademlia_capacity(7, 4)
        assert [sum(pair) for pair in caps] == [3, 2, 1, 1]
        assert all(left >= right for left, right in caps)
        assert sum(sum(p) for p in caps) == 7

    def test_insert_at_head_evict_tail(self):
        owner = NodeIdentity(num_id=100, name_bits=0b1000, coords=(0, 0))
        buckets = KademliaBuckets(owner, 4, max_size=8)  # cap 1 a side
        lookup = empty_lookup(4)
        buckets.update(lookup, [entry(106, "1011")])
        buckets.update(lookup, [entry(108, "1010")])
        assert recency(buckets, 2, 1) == [108]

    def test_reinsert_moves_to_head(self):
        owner = NodeIdentity(num_id=100, name_bits=0b1000, coords=(0, 0))
        buckets = KademliaBuckets(owner, 4, max_size=16)  # cap 2 a side
        lookup = empty_lookup(4)
        buckets.update(lookup, [entry(106, "1011"), entry(108, "1010")])
        buckets.update(lookup, [entry(106, "1011")])
        bucket = recency(buckets, 2, 1)
        assert bucket == [106, 108]
        assert len(bucket) == 2

    def test_resolve_scans_recency_order(self):
        owner = NodeIdentity(num_id=100, name_bits=0b1000, coords=(0, 0))
        buckets = KademliaBuckets(owner, 4, max_size=16)
        lookup = empty_lookup(4)
        buckets.update(lookup, [entry(106, "1011"), entry(108, "1011")])
        got, trace = buckets.resolve(msg(150, 2), online_set({106}))
        assert contacted(trace) == [108, 106]
        assert got == 106
        assert all(nid != 108 for nid in recency(buckets, 2, 1))


def dks_fixture(max_size=8):
    topo = TOPOLOGY
    ids = sorted(n.num_id for n in topo.nodes)
    owner = topo.nodes[5]
    dks = make_stabilizer("dks", owner, topo, max_size)
    return topo, ids, owner, dks


class TestDks:
    def test_level_groups_match_string_prefixes(self):
        topo = generate_topology(32, seed=13)
        length = topo.name_length
        for owner in topo.nodes:
            name = format(owner.name_bits, f"0{length}b")
            expected = [
                sorted(
                    (n for n in topo.nodes
                     if common_prefix_length(format(n.name_bits, f"0{length}b"), name) >= lvl),
                    key=lambda n: n.num_id,
                )
                for lvl in range(length)
            ]
            assert topo.level_groups(owner) == expected

    def test_init_lists_are_consecutive(self):
        topo, ids, owner, dks = dks_fixture()
        pos = ids.index(owner.num_id)
        right = pointers(dks, 0, 1)
        cap = kademlia_capacity(8, topo.name_length)[0][1]
        assert right == ids[pos + 1 : pos + 1 + cap]
        left = pointers(dks, 0, 0)
        cap_l = kademlia_capacity(8, topo.name_length)[0][0]
        assert left == list(reversed(ids[max(0, pos - cap_l) : pos]))

    def test_all_online_head_returned(self):
        topo, ids, owner, dks = dks_fixture()
        target = ids[-1]
        got, trace = dks.resolve(msg(target), always_online)
        assert got == (pointers(dks, 0, 1)[0] if pointers(dks, 0, 1) else None)
        assert len(trace) == 1

    def test_offline_head_shifts_window(self):
        topo, ids, owner, dks = dks_fixture(max_size=16)
        pos = ids.index(owner.num_id)
        first, second = ids[pos + 1], ids[pos + 2]
        target = ids[-1]
        ping = online_set(set(ids) - {first})
        before = pointers(dks, 0, 1)
        got, trace = dks.resolve(msg(target), ping)
        assert contacted(trace) == [first, second]
        assert got == second
        after = pointers(dks, 0, 1)
        assert first not in after
        assert len(after) == len(before)  # tail was extended

    def test_single_member_list_dies_on_failure(self):
        # with head == tail there is nobody left to ask for an extension
        topo, ids, owner, dks = dks_fixture(max_size=8)  # one pointer a side
        target = ids[-1]
        before = len(pointers(dks, 0, 1))
        assert before == 1
        got, trace = dks.resolve(msg(target), lambda _: False)
        assert got is None and len(trace) == 1
        assert len(pointers(dks, 0, 1)) == 0

    def test_concurrent_failures_starve_the_list(self):
        topo, ids, owner, dks = dks_fixture()
        target = ids[-1]
        got, trace = dks.resolve(msg(target), lambda _: False)
        assert got is None
        assert dks.total_entries() < 8  # lists shrank, not refilled

    def test_overshoot_returns_none_without_contact(self):
        topo, ids, owner, dks = dks_fixture()
        target = owner.num_id + 1  # below the first right successor
        assert pointers(dks, 0, 1)[0] > target
        got, trace = dks.resolve(msg(target), always_online)
        assert got is None and trace == []


@lru_cache(maxsize=None)
def small_topology(capacity, seed):
    return generate_topology(capacity, seed=seed)


def node_subsets(nodes):
    return st_.lists(st_.sampled_from(nodes), max_size=len(nodes)).map(lambda ns: {n.num_id for n in ns})


@pytest.mark.parametrize("kind", ["kademlia", "dks"])
@given(data=st_.data())
@settings(max_examples=120, deadline=None)
def test_store_matches_its_list_model(kind, data):
    # Random update and resolve sequences through a store and its list model
    # in tests/oracles.py: every resolve and every size must agree.
    topo = small_topology(data.draw(st_.sampled_from([8, 16, 32, 64])), data.draw(st_.integers(0, 3)))
    height = topo.name_length
    nodes = topo.nodes
    owner = data.draw(st_.sampled_from(nodes))
    b = data.draw(st_.sampled_from([0, 1, 2, 3, 8, 16, 40]))
    store = make_stabilizer(kind, owner, topo, b)
    capacities = kademlia_capacity(b, height)
    if kind == "kademlia":
        model = ListBuckets(owner, capacities)
    else:
        model = ListSuccessors(owner, topo.level_groups(owner), capacities)
    others = sorted(n.num_id for n in nodes if n is not owner)
    for _ in range(data.draw(st_.integers(1, 30))):
        if kind == "kademlia" and data.draw(st_.booleans()):
            fed = data.draw(st_.lists(st_.sampled_from(nodes), max_size=12))
            piggyback = [PiggybackEntry(n.num_id, n.name_bits, 0.5) for n in fed]
            neighbors = data.draw(st_.lists(st_.sampled_from(nodes), max_size=2 * height))
            lookup = LookupTable([(neighbors[2 * l : 2 * l + 2] + [None, None])[:2] for l in range(height)])
            store.update(lookup, piggyback)
            model.update(lookup.neighbor_ids, piggyback)
        else:
            target = data.draw(st_.sampled_from(others) | st_.integers(0, 2**32 - 1))
            m = msg(target, data.draw(st_.integers(0, height - 1)))
            online = data.draw(node_subsets(nodes))
            assert store.resolve(m, online.__contains__) == model.resolve(m, online.__contains__)
        assert store.total_entries() == model.total_entries()


class TestLifecycle:
    def test_none_stabilizer_resolves_nothing(self):
        # none is a scored table that may hold nothing, whatever its budget
        stab = make_stabilizer("none", OWNER, TOPOLOGY, 40)
        assert isinstance(stab, BackupTable) and stab.max_size == 0
        stab.update(empty_lookup(), [entry(106, "1011")])
        got, trace = stab.resolve(msg(150), always_online)
        assert got is None and trace == [] and stab.total_entries() == 0

    def test_factory(self):
        assert isinstance(make_stabilizer("interlaced", OWNER, TOPOLOGY, 8), BackupTable)
        assert isinstance(make_stabilizer("kademlia", OWNER, TOPOLOGY, 8), KademliaBuckets)
        assert isinstance(make_stabilizer("dks", OWNER, TOPOLOGY, 8), DksPointers)
        with pytest.raises(ValueError):
            make_stabilizer("chord", OWNER, TOPOLOGY, 8)

    def test_zero_budget_resolves_nothing(self):
        for kind in ("interlaced", "kademlia"):
            stab = make_stabilizer(kind, OWNER, TOPOLOGY, 0)
            assert not stab.reads_path
            stab.update(empty_lookup(), [entry(106, "1011"), entry(90, "0111")])
            got, trace = stab.resolve(msg(150), always_online)
            assert got is None and trace == []


@pytest.mark.parametrize("kind", STABILIZER_KINDS)
def test_every_kind_answers_resolve_in_num_ids(kind):
    # resolve returns (num_id or None, [(num_id, was_online), ...]); a
    # candidate is the last contact, and it answered
    rng = np.random.default_rng(17)
    height = TOPOLOGY.name_length
    piggyback = [PiggybackEntry(n.num_id, n.name_bits, 0.5) for n in TOPOLOGY.nodes]
    hits = 0
    for owner in TOPOLOGY.nodes:
        store = make_stabilizer(kind, owner, TOPOLOGY, 8)
        if store.reads_path:
            store.update(empty_lookup(height), piggyback)
        online = {n.num_id for n in TOPOLOGY.nodes if rng.random() < 0.5}
        for target in (n.num_id for n in TOPOLOGY.nodes if n is not owner):
            for level in range(height):
                got, trace = store.resolve(msg(target, level), online.__contains__)
                assert type(trace) is list
                for contact in trace:
                    assert type(contact) is tuple and len(contact) == 2
                    nid, answered = contact
                    assert type(nid) is int and type(answered) is bool
                    assert answered == (nid in online)
                if got is None:
                    assert not any(answered for _, answered in trace)
                else:
                    assert type(got) is int and trace[-1] == (got, True)
                    hits += 1
    assert (hits == 0) == (kind == "none")
