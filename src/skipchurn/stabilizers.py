"""Timeout-failure recovery strategies.

Every stabilizer is one node's store behind one protocol: ``reads_path``,
``update``, ``resolve`` and ``total_entries``; the engine never asks which kind
it holds.  A store is built when its node joins, a return included, since a
departure is a crash that keeps nothing.  ``reads_path`` declares whether the
store reads the search path: the piggyback in ``update`` or the visited set in
``resolve``.  For a store that does, ``update(lookup, piggyback)`` runs on each
search message the node handles and feeds the piggybacked availability entries
into the store; for one that does not, the engine builds neither and calls no
``update``.  ``resolve(msg, ping)`` runs after a timeout failure on the lookup
neighbor at the level and direction of ``msg``; it pings candidates from the
store until one answers and returns ``(candidate, contacts)``: the answering
candidate's numerical ID, or ``None`` when none answered, and the ordered
contacts as ``(num_id, was_online)`` pairs, used for latency accounting.  A
candidate is always the last contact.  A ``None`` candidate tells the caller
to descend a level, or to end the whole search when already at level 0.
``total_entries()`` counts what the store holds.

Strategies:

* scored backup table (``interlaced``): a bounded set of the piggybacked
  entries, split by side into one dict per search direction and kept beside
  ``_order``, their eviction order; eviction drops the globally lowest-scored
  entry, resolution scans only the search side's dict and contacts
  candidates by score.
* recency buckets (``kademlia``): per-level fixed-capacity lists, newest at
  the head, oldest evicted, contacted head first.
* successor pointers (``dks``): per-level lists of the immediately following
  topology nodes, refilled from the identifier space as heads fail.
* ``none``: a scored backup table of size 0, which keeps nothing and
  resolves nothing.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from functools import lru_cache
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Iterator, Optional

from .overlay import (
    Direction,
    LookupTable,
    NodeIdentity,
    PiggybackEntry,
    SearchMessage,
    TopologySnapshot,
    cpl_ints,
)

STABILIZER_KINDS = ("interlaced", "kademlia", "dks", "none")

PingFn = Callable[[int], bool]


ResolveResult = tuple[Optional[int], list[tuple[int, bool]]]


def cand_check(num_id: int, msg: SearchMessage) -> bool:
    """A routing candidate must not overshoot the target of ``msg`` and must
    not already have handled it."""
    target = msg.target_num_id
    within = num_id <= target if msg.direction is Direction.RIGHT else num_id >= target
    return within and num_id not in msg.piggyback


def _first_online(candidates: Iterable, ping: PingFn, drop: Callable) -> ResolveResult:
    """Ping ``candidates`` (entries with a ``num_id``) in order until one
    answers; ``drop`` each that does not."""
    trace: list[tuple[int, bool]] = []
    for e in candidates:
        online = ping(e.num_id)
        trace.append((e.num_id, online))
        if online:
            return e.num_id, trace
        drop(e)
    return None, trace


def _entry_level(owner: NodeIdentity, name_bits: int, height: int) -> int:
    """The highest level an entry shares with ``owner``: its capped common prefix."""
    return min(cpl_ints(owner.name_bits, name_bits, height), height - 1)


def _score(sop: float, cpl: int, distance: int) -> float:
    if distance == 0:
        raise ValueError("scoring distance must be nonzero")
    return (sop * cpl) / distance


class BackupTable:
    """Score-managed backup neighbors, at most ``max_size`` of them.

    ``_sides`` holds two dicts indexed by :class:`Direction` value: the left
    one maps each numerical ID below the owner's to its piggybacked entry, the
    right one each ID above it.  An entry is immutable; a newer piggyback with
    another ``sop`` replaces it.  An entry's level is its capped common prefix
    with the owner (:func:`_entry_level`), derived when needed, never stored.

    ``_order`` is the eviction order: every entry's :meth:`_rank`, ascending,
    so its length is the table's size.  A full table drops the first, the
    entry whose owner-relative score is minimal, before accepting a new one;
    ties evict the farther entry, then the larger name ID, then the left one.
    A rank changes only with the entry's ``sop``; resolution ranks candidates
    by their target-relative score without storing it.
    """

    def __init__(self, owner: NodeIdentity, height: int, max_size: int):
        if max_size < 0:
            raise ValueError("backup size must be >= 0")
        self.owner = owner
        self.height = height
        self.max_size = max_size
        self.reads_path = max_size > 0
        self._sides: tuple[dict[int, PiggybackEntry], dict[int, PiggybackEntry]] = ({}, {})
        self._order: list[tuple[float, int, int, int]] = []

    def _rank(self, e: PiggybackEntry) -> tuple[float, int, int, int]:
        """``(owner score, -distance, -name_bits, num_id)``; num_id makes it unique."""
        distance = abs(e.num_id - self.owner.num_id)
        cpl = cpl_ints(self.owner.name_bits, e.name_bits, self.height)
        return (_score(e.sop, cpl, distance), -distance, -e.name_bits, e.num_id)

    def update(self, lookup: LookupTable, piggyback: Iterable[PiggybackEntry]) -> None:
        """Insert piggybacked elements, skipping lookup neighbors and self."""
        if self.max_size == 0:
            return
        owner_id = self.owner.num_id
        owner_bits = self.owner.name_bits
        height = self.height
        sides = self._sides
        order = self._order
        lookup_ids = lookup.neighbor_ids
        for item in piggyback:
            num_id = item.num_id
            if num_id == owner_id or num_id in lookup_ids:
                continue
            entries = sides[num_id > owner_id]
            old = entries.get(num_id)
            if old is not None:
                if old.sop == item.sop:
                    continue
                self._unrank(old)
            elif len(order) >= self.max_size:
                self._evict_minimum()
            entries[num_id] = item
            # :meth:`_rank`, inlined
            distance = abs(num_id - owner_id)
            cpl = height - (owner_bits ^ item.name_bits).bit_length()
            insort(order, (_score(item.sop, cpl, distance), -distance, -item.name_bits, num_id))

    def _unrank(self, e: PiggybackEntry) -> None:
        order = self._order
        del order[bisect_left(order, self._rank(e))]

    def _evict_minimum(self) -> PiggybackEntry:
        if not self._order:
            raise RuntimeError("eviction requested on an empty table")
        num_id = self._order.pop(0)[3]
        return self._sides[num_id > self.owner.num_id].pop(num_id)

    def resolve(self, msg: SearchMessage, ping: PingFn) -> ResolveResult:
        """Pick an online routing candidate eligible at the level and side of ``msg``.

        Mirroring lookup-table structure, an entry is a member of every level
        up to its own (capped common-prefix) level, so resolution at
        ``level`` draws on the entries of the search side whose level is at
        least ``level``.  An entry holding the exact target is contacted
        first.  Remaining eligible entries are contacted best target-relative
        score first, then nearer to the target, then smaller name ID; offline
        contacts are purged from the table.  The candidate is None when no
        online eligible entry exists.
        """
        entries = self._sides[msg.direction]
        if not entries:
            return None, []
        return _first_online(self._candidates(msg, entries), ping, self._drop)

    def _drop(self, e: PiggybackEntry) -> None:
        del self._sides[e.num_id > self.owner.num_id][e.num_id]
        self._unrank(e)

    def _candidates(self, msg: SearchMessage, entries: dict[int, PiggybackEntry]) -> Iterator[PiggybackEntry]:
        """The eligible entries of the search side's ``entries``, in contact
        order; ranked only if the exact target fails."""
        target = msg.target_num_id
        level = msg.level
        owner_bits = self.owner.name_bits
        height = self.height
        # Every entry of the side lies past the owner; eligible ones reach no
        # further than the target, which the exact target does by construction.
        exact = entries.get(target)
        if exact is not None and _entry_level(self.owner, exact.name_bits, height) >= level:
            yield exact
        # An offline exact target is gone by now; an ineligible one fails the
        # same tests below.
        right = msg.direction is Direction.RIGHT
        visited = msg.piggyback
        ranked = []
        for num_id, e in entries.items():
            if (num_id > target if right else num_id < target) or num_id in visited:
                continue
            cpl = cpl_ints(owner_bits, e.name_bits, height)
            # level < height, so capping cpl at height - 1 changes nothing here
            if cpl < level:
                continue
            distance = abs(num_id - target)
            ranked.append((-_score(e.sop, cpl, distance), distance, e.name_bits, e))
        ranked.sort(key=itemgetter(0, 1, 2))
        yield from map(itemgetter(3), ranked)

    def total_entries(self) -> int:
        return len(self._order)


@lru_cache(maxsize=None)
def kademlia_capacity(b: int, levels: int) -> tuple[tuple[int, int], ...]:
    """Distribute a backup budget over levels and directions.

    Each level receives floor(b / levels), split between (left, right) with an
    odd slot going left.  The remainder is handed out two at a time (one per
    direction) starting at level 0; an odd final slot also goes left.  The
    table is immutable, so every store shares the one per (b, levels).
    """
    if b < 0:
        raise ValueError("backup size must be >= 0")
    if levels < 1:
        raise ValueError("levels must be >= 1")
    base = b // levels
    shares = [base] * levels
    remainder = b % levels
    lvl = 0
    while remainder > 0:
        add = min(2, remainder)
        shares[lvl % levels] += add
        remainder -= add
        lvl += 1
    result = []
    for share in shares:
        right = share // 2
        left = share - right
        result.append((left, right))
    return tuple(result)


class KademliaBuckets:
    """Recency-ordered backup lists with per-bucket capacity; a bucket holds
    the piggybacked entries themselves, which are immutable."""

    def __init__(self, owner: NodeIdentity, height: int, max_size: int):
        self.owner = owner
        self.height = height
        self.max_size = max_size
        self.reads_path = max_size > 0
        self.capacities = kademlia_capacity(max_size, height)
        # Plain lists: a bucket holds a few entries, and an empty list is far
        # smaller than an empty deque.
        self.buckets: list[list[list[PiggybackEntry]]] = [[[], []] for _ in range(height)]

    def update(self, lookup: LookupTable, piggyback: Iterable[PiggybackEntry]) -> None:
        owner_id = self.owner.num_id
        owner_bits = self.owner.name_bits
        height = self.height
        lookup_ids = lookup.neighbor_ids
        capacities = self.capacities
        buckets = self.buckets
        for item in piggyback:
            num_id = item.num_id
            if num_id == owner_id or num_id in lookup_ids:
                continue
            # :func:`_entry_level`, inlined: the common prefix with the owner, capped
            level = height - (owner_bits ^ item.name_bits).bit_length()
            if level == height:
                level -= 1
            slot = 1 if num_id > owner_id else 0
            cap = capacities[level][slot]
            if cap == 0:
                continue
            bucket = buckets[level][slot]
            for i, e in enumerate(bucket):
                if e.num_id == num_id:
                    del bucket[i]
                    break
            bucket.insert(0, item)
            del bucket[cap:]

    def resolve(self, msg: SearchMessage, ping: PingFn) -> ResolveResult:
        """The exact target first, then a head-to-tail scan of the bucket."""
        bucket = self.buckets[msg.level][msg.direction]
        target = msg.target_num_id
        order = [e for e in bucket if e.num_id == target]
        order += [e for e in bucket if e.num_id != target and cand_check(e.num_id, msg)]
        return _first_online(order, ping, bucket.remove)

    def total_entries(self) -> int:
        return sum(len(b) for pair in self.buckets for b in pair)


class DksPointers:
    """Per-level lists of the immediately succeeding topology nodes.

    Lists are filled when the store is built, with the owner's nearest nodes
    of each level group (:meth:`TopologySnapshot.level_groups`), ignoring
    online status, and carry no availability information.  When a head fails it is
    dropped and the list is extended with the node beyond the current tail in
    the identifier space; the appended node may itself be offline.  Learning
    that next node requires asking the current tail, so no extension happens
    while the tail is offline, which is how runs of concurrent failures starve
    the list.

    The tail ping is not in the contact trace that ``resolve`` returns, so it
    adds no latency, no ``resolve_messages`` and no ``record_incoming`` to the
    tail.  Whether to charge it is left to the next re-pin of the run outputs,
    since charging it moves every DKS result.
    """

    reads_path = False

    def __init__(self, owner: NodeIdentity, level_groups: list[list[NodeIdentity]], max_size: int):
        """``level_groups[level]`` is the numerically sorted list of all registry
        nodes whose name ID shares at least ``level`` prefix bits with the
        owner (the owner included).  The groups are kept, not copied: every
        node of a topology shares them and nothing changes them."""
        self.owner = owner
        self.height = len(level_groups)
        self.max_size = max_size
        self.capacities = kademlia_capacity(max_size, self.height)
        self._groups = level_groups
        # per (level, slot): list of NodeIdentity plus the group frontier index
        self.lists: list[list[list[NodeIdentity]]] = []
        self._frontier: list[list[int]] = []
        owner_id = owner.num_id
        for group, (cap_left, cap_right) in zip(level_groups, self.capacities):
            pos = bisect_left(group, owner_id, key=attrgetter("num_id"))
            left = group[max(0, pos - cap_left) : pos]
            left.reverse()
            right = group[pos + 1 : pos + 1 + cap_right]
            self.lists.append([left, right])
            self._frontier.append([pos - len(left) - 1, pos + len(right) + 1])

    def resolve(self, msg: SearchMessage, ping: PingFn) -> ResolveResult:
        target = msg.target_num_id
        level = msg.level
        direction = msg.direction
        right = direction is Direction.RIGHT
        pointers = self.lists[level][direction]
        group = self._groups[level]
        trace: list[tuple[int, bool]] = []
        while pointers:
            head = pointers[0].num_id
            if head > target if right else head < target:
                return None, trace
            online = ping(head)
            trace.append((head, online))
            if online:
                return head, trace
            tail_online = ping(pointers[-1].num_id) if len(pointers) > 1 else False
            del pointers[0]
            if tail_online:
                idx = self._frontier[level][direction]
                if 0 <= idx < len(group):
                    pointers.append(group[idx])
                    self._frontier[level][direction] = idx + (1 if right else -1)
        return None, trace

    def total_entries(self) -> int:
        return sum(len(lst) for pair in self.lists for lst in pair)


def make_stabilizer(kind: str, owner: NodeIdentity, topology: TopologySnapshot, max_size: int):
    """The ``kind`` store of ``owner``, a node of ``topology``, holding at most ``max_size``."""
    height = topology.name_length
    if kind == "interlaced":
        return BackupTable(owner, height, max_size)
    if kind == "kademlia":
        return KademliaBuckets(owner, height, max_size)
    if kind == "dks":
        return DksPointers(owner, topology.level_groups(owner), max_size)
    if kind == "none":
        return BackupTable(owner, height, 0)
    raise ValueError(f"unknown stabilizer kind: {kind}")
