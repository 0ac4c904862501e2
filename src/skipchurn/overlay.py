"""Skip Graph overlay: identities, topology generation, lookup tables, routing.

A topology is a fixed registry of nodes (the system capacity), each carrying a
numerical ID (the sort key of the bottom list), a name ID (a bit string whose
prefixes govern membership in the higher-level lists) and a pair of synthetic
coordinates used by the latency model.  Name IDs are assigned by recursive
median bisection of the coordinates so that spatial proximity shows up as
longer common prefixes.  From assignment on, a name ID is an integer
(``name_bits``) of ``name_length`` bits, and two of them share
``name_length - (a ^ b).bit_length()`` leading bits.  The topology's prefix
groups (per level, the nodes sharing that many name-ID bits) are the one
membership structure that joins and the DKS store both read.

A search only ever moves towards its target, so the side it takes at a node
is ``target > node``: False (0) for left, True (1) for right, which indexes
every (left, right) pair directly, and no node handles a search twice.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Container, Optional, Sequence

import numpy as np


class ConfigError(ValueError):
    """Raised for invalid configuration values."""


NUM_ID_SPACE = 1 << 32


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class NodeIdentity:
    """A registered peer: unique numerical ID, integer name ID, coordinates."""

    num_id: int
    name_bits: int
    coords: tuple[float, float]


@dataclass
class LookupTable:
    """Per-level left/right neighbor pointers of one node, to registry records.

    ``neighbor_ids`` is the set of the neighbors' numerical IDs, built once:
    a join builds a new table, and nothing changes ``levels`` afterwards.
    """

    levels: list[list[Optional[NodeIdentity]]]
    neighbor_ids: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.neighbor_ids = frozenset(ref.num_id for pair in self.levels for ref in pair if ref is not None)


@dataclass(frozen=True, slots=True)
class PiggybackEntry:
    num_id: int
    name_bits: int
    sop: float


@dataclass
class SearchMessage:
    """A search for a numerical ID in flight.

    ``piggyback`` holds the entry of each node that sent the message, in path
    order.  ``level`` only ever decreases while the message is routed.
    """

    target_num_id: int
    level: int
    piggyback: list[PiggybackEntry] = field(default_factory=list)


@dataclass
class TopologySnapshot:
    """An immutable node registry, reproducible from (capacity, seed); ``nodes``
    is kept in registry order (ascending ``num_id``) whatever order it came in,
    and ``index_of`` maps a ``num_id`` to its position there."""

    capacity: int
    nodes: list[NodeIdentity]

    def __post_init__(self) -> None:
        if not _is_power_of_two(self.capacity):
            raise ConfigError(f"capacity must be a power of two, got {self.capacity}")
        self.nodes = sorted(self.nodes, key=attrgetter("num_id"))
        self.index_of = {n.num_id: i for i, n in enumerate(self.nodes)}
        length = self.name_length
        # per level, prefix -> nodes with that prefix
        self._prefix_groups: list[dict[int, list[NodeIdentity]]] = [{} for _ in range(length)]
        for n in self.nodes:
            for level, groups in enumerate(self._prefix_groups):
                groups.setdefault(n.name_bits >> (length - level), []).append(n)

    @property
    def name_length(self) -> int:
        return max(1, self.capacity.bit_length() - 1)

    def level_groups(self, ident: NodeIdentity) -> list[list[NodeIdentity]]:
        """Per level, every registered node sharing that many name-ID prefix bits
        with ``ident`` (``ident`` included), in registry order.

        The groups are shared, never copied: every node of the topology with
        the same ``level``-bit prefix gets the same list.
        """
        length = self.name_length
        return [self._prefix_groups[lvl][ident.name_bits >> (length - lvl)] for lvl in range(length)]


def assign_name_ids(coords: Sequence[tuple[float, float]]) -> list[int]:
    """Assign integer name IDs by alternating-axis median bisection of the unit square.

    Each split appends one low bit (0 for the lower half, 1 for the upper
    half), so points that stay together through many splits share long
    prefixes; every ID has ``log2(len(coords))`` bits (at least one).  Ties on
    a coordinate are broken by input index, which keeps the result
    deterministic for duplicate points.
    """
    count = len(coords)
    if not _is_power_of_two(count):
        raise ConfigError(f"coordinate count must be a power of two, got {count}")
    for x, y in coords:
        if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
            raise ConfigError("coordinates must lie in the unit square")

    names = [0] * count

    def split(indices: list[int], depth: int, prefix: int) -> None:
        if len(indices) == 1:
            names[indices[0]] = prefix
            return
        axis = depth % 2
        ordered = sorted(indices, key=lambda i: (coords[i][axis], i))
        half = len(ordered) // 2
        split(ordered[:half], depth + 1, prefix << 1)
        split(ordered[half:], depth + 1, prefix << 1 | 1)

    split(list(range(count)), 0, 0)
    return names


def generate_topology(capacity: int, seed: int) -> TopologySnapshot:
    """Create ``capacity`` nodes with unique random numerical IDs.

    Numerical IDs are drawn uniformly from [0, 2**32) without replacement,
    coordinates uniformly from the unit square, and name IDs from
    :func:`assign_name_ids`.  Deterministic for a fixed seed.
    """
    if not _is_power_of_two(capacity) or capacity < 2:
        raise ConfigError(f"capacity must be a power of two >= 2, got {capacity}")
    rng = np.random.default_rng(seed)
    num_ids: list[int] = []
    seen: set[int] = set()
    while len(num_ids) < capacity:
        draw = rng.integers(0, NUM_ID_SPACE, size=capacity - len(num_ids))
        for v in draw.tolist():
            if v not in seen:
                seen.add(v)
                num_ids.append(v)
    xy = rng.random(size=(capacity, 2))
    coords = [(float(x), float(y)) for x, y in xy]
    names = assign_name_ids(coords)
    nodes = [
        NodeIdentity(num_id=n, name_bits=name, coords=c)
        for n, name, c in zip(num_ids, names, coords)
    ]
    return TopologySnapshot(capacity=capacity, nodes=nodes)


def join_node(
    topology: TopologySnapshot,
    joiner: NodeIdentity,
    online: Container[int],
) -> LookupTable:
    """Build the lookup table a correct join would produce.

    For every level the left and right neighbors are the nearest online nodes
    by numerical ID among those sharing at least that many name-ID prefix bits
    with the joiner: the walk starts at the joiner's place in its level group
    and steps outward until it meets a member of ``online``.  The joiner
    itself is ignored; an empty online set yields an empty table.
    """
    levels: list[list[Optional[NodeIdentity]]] = []
    for group in topology.level_groups(joiner):
        pos = bisect_left(group, joiner.num_id, key=attrgetter("num_id"))
        left = pos - 1
        while left >= 0 and group[left].num_id not in online:
            left -= 1
        right = pos + 1
        while right < len(group) and group[right].num_id not in online:
            right += 1
        levels.append([group[left] if left >= 0 else None, group[right] if right < len(group) else None])
    return LookupTable(levels)


def route_step(node_num_id: int, lookup: LookupTable, msg: SearchMessage) -> Optional[NodeIdentity]:
    """The level neighbor a node other than the target forwards ``msg`` to,
    found by descending from ``msg.level`` in one call.

    At each level, from ``msg.level`` down, the candidate is the neighbor on
    the target's side; it is eligible when it lies in (node, target] (right)
    or [target, node) (left).  The first eligible one is returned and
    ``msg.level`` is lowered to its level.  With none, the result is ``None``
    and ``msg.level`` is 0: the search ends at this node.
    """
    target = msg.target_num_id
    right = target > node_num_id
    levels = lookup.levels
    level = msg.level
    while level >= 0:
        nb = levels[level][right]
        if nb is not None and (node_num_id < nb.num_id <= target if right else target <= nb.num_id < node_num_id):
            msg.level = level
            return nb
        level -= 1
    msg.level = 0
    return None
