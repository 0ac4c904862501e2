import math
import random

import numpy as np
import pytest

from skipchurn.overlay import (
    ConfigError,
    LookupTable,
    NodeIdentity,
    SearchMessage,
    TopologySnapshot,
    assign_name_ids,
    generate_topology,
    join_node,
    route_step,
)

from oracles import common_prefix_length, cpl_ints, route_stepwise


def make_topology(pairs):
    """Build a snapshot from (num_id, name ID string) pairs; coords are synthetic."""
    n = len(pairs)
    nodes = [
        NodeIdentity(num_id=nid, name_bits=int(name, 2), coords=(i / n, i / n))
        for i, (nid, name) in enumerate(pairs)
    ]
    capacity = 1
    while capacity < n:
        capacity *= 2
    return TopologySnapshot(capacity=max(2, capacity), nodes=nodes)


# A 10-node, 4-level overlay: six name IDs under the 0-prefix, four under 10
# (none under 11), node 43 named 1001.
def sample_topology():
    return make_topology(
        [
            (2, "0010"),
            (5, "0110"),
            (13, "0001"),
            (21, "0111"),
            (33, "0000"),
            (36, "0011"),
            (41, "1010"),
            (43, "1001"),
            (50, "1000"),
            (59, "1011"),
        ]
    )


def node(topo, num_id):
    """The registry record of ``num_id``."""
    return topo.nodes[topo.index_of[num_id]]


def name_str(name_bits, length):
    """A name ID as its bit string, for the string-based oracles."""
    return format(name_bits, f"0{length}b")


def name_strings(coords):
    length = max(1, len(coords).bit_length() - 1)
    return [name_str(n, length) for n in assign_name_ids(coords)]


class TestNameIds:
    def test_two_points_split_on_first_bit(self):
        assert assign_name_ids([(0.1, 0.5), (0.9, 0.5)]) == [0, 1]

    def test_four_corners_share_side_prefix(self):
        corners = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
        names = name_strings(corners)
        assert names[0][0] == names[1][0] == "0"
        assert names[2][0] == names[3][0] == "1"
        assert len(set(names)) == 4

    def test_duplicate_coordinates_break_ties_by_index(self):
        assert assign_name_ids([(0.5, 0.5), (0.5, 0.5)]) == [0, 1]

    def test_lengths_and_uniqueness(self):
        rng = np.random.default_rng(5)
        coords = [tuple(v) for v in rng.random((64, 2)).tolist()]
        names = name_strings(coords)
        assert all(len(n) == 6 for n in names)
        assert len(set(names)) == 64
        assert assign_name_ids([(0.3, 0.7)]) == [0]  # one node: no split

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigError):
            assign_name_ids([(0.1, 0.1)] * 3)

    def test_locality_prefix_tracks_distance(self):
        topo = generate_topology(1024, seed=11)
        nodes = topo.nodes
        length = topo.name_length
        rng = np.random.default_rng(0)
        close, far = [], []
        for _ in range(40000):
            i, j = rng.integers(0, 1024, size=2).tolist()
            if i == j:
                continue
            a, b = nodes[i], nodes[j]
            d = math.hypot(a.coords[0] - b.coords[0], a.coords[1] - b.coords[1])
            cpl = cpl_ints(a.name_bits, b.name_bits, length)
            if cpl >= 9:
                close.append(d)
            elif cpl == 0:
                far.append(d)
        assert close and far
        assert float(np.mean(close)) < float(np.mean(far))


class TestCommonPrefix:
    def test_level_one_coexistence(self):
        assert common_prefix_length("0010", "0110") == 1

    def test_level_two_coexistence(self):
        assert common_prefix_length("0010", "0001") == 2

    def test_identity(self):
        assert common_prefix_length("0110", "0110") == 4

    def test_int_encoding_agrees(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = "".join(rng.choice(["0", "1"], size=8).tolist())
            b = "".join(rng.choice(["0", "1"], size=8).tolist())
            assert cpl_ints(int(a, 2), int(b, 2), 8) == common_prefix_length(a, b)
            assert cpl_ints(int(a, 2), int(a, 2), 8) == 8

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError):
            common_prefix_length("01", "011")


class TestGenerateTopology:
    def test_capacity_two(self):
        topo = generate_topology(2, seed=1)
        assert len(topo.nodes) == 2
        names = sorted(name_str(n.name_bits, 1) for n in topo.nodes)
        assert names == ["0", "1"]

    def test_capacity_1024_name_length(self):
        topo = generate_topology(1024, seed=2)
        assert len(topo.nodes) == 1024
        assert topo.name_length == 10
        assert all(len(name_str(n.name_bits, 10)) == 10 for n in topo.nodes)
        assert len({n.num_id for n in topo.nodes}) == 1024

    def test_deterministic(self):
        a = generate_topology(64, seed=123)
        b = generate_topology(64, seed=123)
        assert a.nodes == b.nodes
        assert a.nodes != generate_topology(64, seed=124).nodes

    def test_rejects_bad_capacity(self):
        with pytest.raises(ConfigError):
            generate_topology(100, seed=0)

    def test_registry_order_is_ascending_num_id(self):
        topo = generate_topology(64, seed=8)
        shuffled = list(topo.nodes)
        random.Random(0).shuffle(shuffled)
        snapshot = TopologySnapshot(capacity=64, nodes=shuffled)
        assert [n.num_id for n in snapshot.nodes] == sorted(n.num_id for n in shuffled)
        assert snapshot.nodes == topo.nodes
        for i, n in enumerate(snapshot.nodes):
            assert snapshot.index_of[n.num_id] == i
            assert snapshot.level_groups(n)[0] == snapshot.nodes
        assert len(snapshot.index_of) == 64


class TestJoin:
    def test_sole_online_node_has_empty_table(self):
        topo = sample_topology()
        table = join_node(topo, node(topo, 43), [43])
        assert all(ref is None for pair in table.levels for ref in pair)

    def test_level0_neighbors_are_numeric_adjacents(self):
        topo = sample_topology()
        all_ids = sorted(n.num_id for n in topo.nodes)
        table = join_node(topo, node(topo, 43), all_ids)
        left, right = table.levels[0]
        assert (left.num_id, right.num_id) == (41, 50)

    def test_invariants_hold_for_every_node(self):
        topo = generate_topology(64, seed=9)
        ids = sorted(n.num_id for n in topo.nodes)
        length = topo.name_length
        for ident in topo.nodes:
            table = join_node(topo, ident, ids)
            for lvl in range(length):
                left, right = table.levels[lvl]
                if left is not None:
                    left_node = node(topo, left.num_id)
                    assert left is left_node  # the topology's own record
                    assert left.num_id < ident.num_id
                    assert common_prefix_length(
                        name_str(left_node.name_bits, length), name_str(ident.name_bits, length)
                    ) >= lvl
                if right is not None:
                    right_node = node(topo, right.num_id)
                    assert right is right_node
                    assert right.num_id > ident.num_id
                    assert common_prefix_length(
                        name_str(right_node.name_bits, length), name_str(ident.name_bits, length)
                    ) >= lvl

    # "joiner": the joiner alone is online.  The sparse sets make the walk run
    # off both ends of a level group.
    @pytest.mark.parametrize("online_set", ["empty", "joiner", "5pct", "half", "all"])
    @pytest.mark.parametrize("capacity", [32, 256])
    def test_neighbors_are_nearest_online(self, capacity, online_set):
        topo = generate_topology(capacity, seed=4)
        length = topo.name_length
        share = {"empty": 0.0, "joiner": 0.0, "5pct": 0.05, "half": 0.5, "all": 1.0}[online_set]
        rng = np.random.default_rng(capacity)
        drawn = {n.num_id for n in topo.nodes if rng.random() < share}
        for joiner in topo.nodes:
            joiner_id = joiner.num_id
            online = {joiner_id} if online_set == "joiner" else drawn
            table = join_node(topo, joiner, online)
            name = name_str(joiner.name_bits, length)
            cpl = {
                i: common_prefix_length(name_str(node(topo, i).name_bits, length), name)
                for i in online
            }
            for lvl in range(length):
                group = [i for i in online if i != joiner_id and cpl[i] >= lvl]
                lefts = [i for i in group if i < joiner_id]
                rights = [i for i in group if i > joiner_id]
                left, right = table.levels[lvl]
                assert (left.num_id if left else None) == (max(lefts) if lefts else None)
                assert (right.num_id if right else None) == (min(rights) if rights else None)


def empty_table(height):
    return LookupTable([[None, None] for _ in range(height)])


def _msg(target, level):
    return SearchMessage(target_num_id=target, level=level)


class TestRouteStep:
    def test_forward_within_interval(self):
        table = empty_table(2)
        neighbor = NodeIdentity(50, 0b10, (0.0, 0.0))
        table.levels[1][1] = neighbor
        msg = _msg(59, 1)
        assert route_step(43, table, msg) is neighbor
        assert msg.level == 1

    def test_overshoot_descends(self):
        # the level-1 neighbor lies past the target: the call descends and
        # forwards to the level-0 neighbor, lowering the message's level
        table = empty_table(2)
        table.levels[1][1] = NodeIdentity(50, 0b10, (0.0, 0.0))
        near = table.levels[0][1] = NodeIdentity(44, 0b01, (0.0, 0.0))
        msg = _msg(45, 1)
        assert route_step(43, table, msg) is near
        assert msg.level == 0

    def test_overshoot_at_every_level_ends_at_level_zero(self):
        table = empty_table(2)
        table.levels[1][1] = NodeIdentity(50, 0b10, (0.0, 0.0))
        msg = _msg(45, 1)
        assert route_step(43, table, msg) is None
        assert msg.level == 0

    def test_level_zero_without_neighbor_terminates(self):
        table = empty_table(2)
        assert route_step(43, table, _msg(45, 0)) is None

    def test_never_forwards_across_target(self):
        # one call reaches the neighbor and level that a descent of one level
        # per step reaches, and that neighbor never lies past the target
        rng = np.random.default_rng(21)
        topo = generate_topology(64, seed=21)
        ids = sorted(n.num_id for n in topo.nodes)
        outcomes = {"same level": 0, "descended": 0, "ended": 0}
        for _ in range(300):
            nid = int(rng.choice(ids))
            target = int(rng.choice(ids))
            if nid == target:
                continue
            # half the nodes online, so that some levels overshoot or are empty
            online = set(rng.choice(ids, size=len(ids) // 2, replace=False).tolist())
            table = join_node(topo, node(topo, nid), online)
            right = target > nid
            lvl = int(rng.integers(0, topo.name_length))
            msg = _msg(target, lvl)
            got = route_step(nid, table, msg)
            assert (got, msg.level) == route_stepwise(nid, table.levels, target, lvl)
            if got is None:
                outcomes["ended"] += 1
                continue
            outcomes["same level" if msg.level == lvl else "descended"] += 1
            assert got is table.levels[msg.level][right]
            if right:
                assert nid < got.num_id <= target
            else:
                assert target <= got.num_id < nid
        assert all(outcomes.values()), outcomes
