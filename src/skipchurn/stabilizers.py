"""Timeout-failure recovery strategies.

Every stabilizer exposes the same two event handlers.  ``update`` runs on
each search message a node handles and feeds the piggybacked availability
entries into the node's local store.  ``resolve`` runs after a timeout failure
on the lookup neighbor at a given level and direction; it pings candidates
from the store until one answers, returning that candidate together with the
ordered contact trace (candidate, was_online) used for latency accounting.  A
``None`` candidate tells the caller to descend a level, or to end the whole
search when already at level 0.

Strategies:

* scored backup table (``interlaced``): bounded set store; eviction drops the
  globally lowest-scored entry, resolution contacts candidates by score.
* recency buckets (``kademlia``): per-level fixed-capacity lists, newest at
  the head, oldest evicted, contacted head first.
* successor pointers (``dks``): per-level lists of the immediately following
  topology nodes, refilled from the identifier space as heads fail.
* ``none``: keeps nothing, resolves nothing.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Callable, Optional, Sequence

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


@dataclass(slots=True)
class BackupEntry:
    num_id: int
    name_bits: int
    sop: float
    score: float = 0.0


@dataclass(frozen=True)
class ContactAttempt:
    num_id: int
    online: bool


ResolveResult = tuple[Optional[BackupEntry], list[ContactAttempt]]


def cand_check(entry_num_id: int, target: int, direction: Direction, msg: SearchMessage) -> bool:
    """A routing candidate must lie on the search side of the target and must
    not already have handled this message."""
    if direction is Direction.RIGHT and entry_num_id > target:
        return False
    if direction is Direction.LEFT and entry_num_id < target:
        return False
    if msg.has_visited(entry_num_id):
        return False
    return True


def _entry_level(owner: NodeIdentity, name_bits: int, height: int) -> int:
    """The highest level an entry shares with ``owner``: its capped common prefix."""
    return min(cpl_ints(owner.name_bits, name_bits, height), height - 1)


def _score(sop: float, cpl: int, distance: int) -> float:
    if distance == 0:
        raise ValueError("scoring distance must be nonzero")
    return (sop * cpl) / distance


class BackupTable:
    """Score-managed backup neighbors, at most ``max_size`` of them.

    One dict keyed by numerical ID holds every entry.  An entry's side is
    whether its numerical ID exceeds the owner's, and its level is its capped
    common prefix with the owner (:func:`_entry_level`); both are derived
    when needed, never stored.  A full table drops the entry whose
    owner-relative score is minimal before accepting a new one; ties evict
    the farther entry, then the larger name ID.

    An entry's ``score`` is always its owner-relative score.  It is computed
    when the entry is inserted and recomputed only when a piggybacked update
    changes the entry's ``sop``; resolution ranks candidates by their
    target-relative score without storing it.
    """

    def __init__(self, owner: NodeIdentity, height: int, max_size: int):
        if max_size < 0:
            raise ValueError("backup size must be >= 0")
        self.owner = owner
        self.height = height
        self.max_size = max_size
        self._entries: dict[int, BackupEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def _owner_score(self, e: BackupEntry) -> float:
        cpl = cpl_ints(self.owner.name_bits, e.name_bits, self.height)
        return _score(e.sop, cpl, abs(e.num_id - self.owner.num_id))

    def update(self, lookup: LookupTable, piggyback: Sequence[PiggybackEntry]) -> None:
        """Insert piggybacked elements, skipping lookup neighbors and self."""
        if self.max_size == 0:
            return
        owner_id = self.owner.num_id
        entries = self._entries
        lookup_ids = lookup.neighbor_num_ids()
        for item in piggyback:
            num_id = item.num_id
            if num_id == owner_id or num_id in lookup_ids:
                continue
            old = entries.get(num_id)
            if old is not None:
                if old.sop != item.sop:
                    old.sop = item.sop
                    old.score = self._owner_score(old)
                continue
            if len(entries) >= self.max_size:
                self._evict_minimum()
            entry = BackupEntry(num_id, item.name_bits, item.sop)
            entry.score = self._owner_score(entry)
            entries[num_id] = entry

    def _evict_minimum(self) -> BackupEntry:
        entries = self._entries
        if not entries:
            raise RuntimeError("eviction requested on an empty table")
        low = min(map(attrgetter("score"), entries.values()))
        owner_id = self.owner.num_id
        # Equal distances sit on both sides of the owner; the left one goes.
        worst = max(
            (e for e in entries.values() if e.score == low),
            key=lambda e: (abs(e.num_id - owner_id), e.name_bits, -e.num_id),
        )
        del entries[worst.num_id]
        return worst

    def reset(self) -> None:
        """Drop all entries; a re-arriving node starts with an empty table."""
        self._entries.clear()

    def resolve(
        self,
        target: int,
        level: int,
        direction: Direction,
        msg: SearchMessage,
        ping: PingFn,
    ) -> ResolveResult:
        """Pick an online routing candidate eligible at (level, direction).

        Mirroring lookup-table structure, an entry is a member of every level
        up to its own (capped common-prefix) level, so resolution at
        ``level`` draws on the entries of the search side whose level is at
        least ``level``.  An entry holding the exact target is contacted
        first.  Remaining eligible entries are contacted best target-relative
        score first, then nearer to the target, then smaller name ID; offline
        contacts are purged from the table.  Returns (candidate, trace); the
        candidate is None when no online eligible entry exists.
        """
        entries = self._entries
        owner_id = self.owner.num_id
        owner_bits = self.owner.name_bits
        height = self.height
        right = direction is Direction.RIGHT
        trace: list[ContactAttempt] = []
        exact = entries.get(target)
        if (
            exact is not None
            and (target > owner_id) == right
            and _entry_level(self.owner, exact.name_bits, height) >= level
        ):
            online = ping(target)
            trace.append(ContactAttempt(target, online))
            if online:
                return exact, trace
            del entries[target]
        ranked = []
        for e in entries.values():
            if (e.num_id > owner_id) != right or not cand_check(e.num_id, target, direction, msg):
                continue
            cpl = cpl_ints(owner_bits, e.name_bits, height)
            if min(cpl, height - 1) < level:
                continue
            distance = abs(e.num_id - target)
            ranked.append((-_score(e.sop, cpl, distance), distance, e.name_bits, e))
        ranked.sort(key=itemgetter(0, 1, 2))
        for *_, e in ranked:
            online = ping(e.num_id)
            trace.append(ContactAttempt(e.num_id, online))
            if online:
                return e, trace
            del entries[e.num_id]
        return None, trace

    def total_entries(self) -> int:
        return len(self._entries)


def kademlia_capacity(b: int, levels: int) -> list[list[int]]:
    """Distribute a backup budget over levels and directions.

    Each level receives floor(b / levels), split between (left, right) with an
    odd slot going left.  The remainder is handed out two at a time (one per
    direction) starting at level 0; an odd final slot also goes left.
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
        result.append([left, right])
    return result


class KademliaBuckets:
    """Recency-ordered backup lists with per-bucket capacity."""

    def __init__(self, owner: NodeIdentity, height: int, max_size: int):
        self.owner = owner
        self.height = height
        self.max_size = max_size
        self.capacities = kademlia_capacity(max_size, height)
        # Plain lists: a bucket holds a few entries, and an empty list is far
        # smaller than an empty deque.
        self.buckets: list[list[list[BackupEntry]]] = [[[], []] for _ in range(height)]

    def bucket(self, level: int, direction: Direction) -> list[BackupEntry]:
        return self.buckets[level][direction]

    def update(self, lookup: LookupTable, piggyback: Sequence[PiggybackEntry]) -> None:
        owner_id = self.owner.num_id
        lookup_ids = lookup.neighbor_num_ids()
        for item in piggyback:
            if item.num_id == owner_id or item.num_id in lookup_ids:
                continue
            level = _entry_level(self.owner, item.name_bits, self.height)
            slot = 1 if item.num_id > owner_id else 0
            cap = self.capacities[level][slot]
            if cap == 0:
                continue
            bucket = self.buckets[level][slot]
            for i, e in enumerate(bucket):
                if e.num_id == item.num_id:
                    del bucket[i]
                    break
            bucket.insert(0, BackupEntry(item.num_id, item.name_bits, item.sop))
            del bucket[cap:]

    def reset(self) -> None:
        for pair in self.buckets:
            pair[0].clear()
            pair[1].clear()

    def resolve(
        self,
        target: int,
        level: int,
        direction: Direction,
        msg: SearchMessage,
        ping: PingFn,
    ) -> ResolveResult:
        """Head-to-tail scan of the bucket; first online candidate wins."""
        bucket = self.buckets[level][direction]
        trace: list[ContactAttempt] = []
        exact = next((e for e in bucket if e.num_id == target), None)
        if exact is not None:
            online = ping(exact.num_id)
            trace.append(ContactAttempt(exact.num_id, online))
            if online:
                return exact, trace
            bucket.remove(exact)
        for e in list(bucket):
            if not cand_check(e.num_id, target, direction, msg):
                continue
            online = ping(e.num_id)
            trace.append(ContactAttempt(e.num_id, online))
            if online:
                return e, trace
            bucket.remove(e)
        return None, trace

    def total_entries(self) -> int:
        return sum(len(b) for pair in self.buckets for b in pair)


class DksPointers:
    """Per-level lists of the immediately succeeding topology nodes.

    Lists are (re)filled at join time from the full registry, ignoring online
    status, and carry no availability information.  When a head fails it is
    dropped and the list is extended with the node beyond the current tail in
    the identifier space; the appended node may itself be offline.  Learning
    that next node requires asking the current tail, so no extension happens
    while the tail is offline, which is how runs of concurrent failures starve
    the list.
    """

    def __init__(self, owner: NodeIdentity, height: int, max_size: int):
        self.owner = owner
        self.height = height
        self.max_size = max_size
        self.capacities = kademlia_capacity(max_size, height)
        # per (level, slot): list of NodeIdentity plus the group frontier index
        self.lists: list[list[list[NodeIdentity]]] = [[[], []] for _ in range(height)]
        self._frontier: list[list[int]] = [[0, 0] for _ in range(height)]
        self._groups: list[list[NodeIdentity]] = []

    def initialize(self, level_groups: Optional[list[list[NodeIdentity]]] = None) -> None:
        """Fill every list with the owner's nearest same-prefix-group nodes.

        ``level_groups[level]`` is the numerically sorted list of all registry
        nodes whose name ID shares at least ``level`` prefix bits with the
        owner (the owner included).  The groups are kept, not copied: every
        node of a topology shares them and nothing changes them.  Re-joining
        with no argument reuses the groups supplied at the first join.
        """
        if level_groups is not None:
            self._groups = level_groups
        if not self._groups:
            raise ValueError("successor pointers need level groups at the first join")
        owner_id = self.owner.num_id
        for level in range(self.height):
            group = self._groups[level]
            pos = bisect_left(group, owner_id, key=attrgetter("num_id"))
            cap_left, cap_right = self.capacities[level]
            left = group[max(0, pos - cap_left) : pos]
            left.reverse()
            right = group[pos + 1 : pos + 1 + cap_right]
            self.lists[level][0] = left
            self.lists[level][1] = right
            self._frontier[level][0] = pos - len(left) - 1
            self._frontier[level][1] = pos + len(right) + 1

    def reset(self) -> None:
        self.initialize()

    def update(self, lookup: LookupTable, piggyback: Sequence[PiggybackEntry]) -> None:
        # Successor pointers ignore piggybacked availability information.
        return

    def resolve(
        self,
        target: int,
        level: int,
        direction: Direction,
        msg: SearchMessage,
        ping: PingFn,
    ) -> ResolveResult:
        pointers = self.lists[level][direction]
        group = self._groups[level] if self._groups else []
        trace: list[ContactAttempt] = []
        while pointers:
            head = pointers[0]
            if direction is Direction.RIGHT and head.num_id > target:
                return None, trace
            if direction is Direction.LEFT and head.num_id < target:
                return None, trace
            online = ping(head.num_id)
            trace.append(ContactAttempt(head.num_id, online))
            if online:
                entry = BackupEntry(head.num_id, head.name_bits, 0.0)
                return entry, trace
            tail_online = ping(pointers[-1].num_id) if len(pointers) > 1 else False
            del pointers[0]
            if tail_online:
                idx = self._frontier[level][direction]
                if 0 <= idx < len(group):
                    pointers.append(group[idx])
                    self._frontier[level][direction] = idx + (1 if direction is Direction.RIGHT else -1)
        return None, trace

    def total_entries(self) -> int:
        return sum(len(lst) for pair in self.lists for lst in pair)


class NoStabilizer:
    """Keeps no state; every resolution fails."""

    def __init__(self, owner: NodeIdentity, height: int, max_size: int):
        self.owner = owner
        self.height = height
        self.max_size = 0

    def update(self, lookup: LookupTable, piggyback: Sequence[PiggybackEntry]) -> None:
        return

    def reset(self) -> None:
        return

    def resolve(self, target, level, direction, msg, ping) -> ResolveResult:
        return None, []

    def total_entries(self) -> int:
        return 0


def make_stabilizer(kind: str, owner: NodeIdentity, height: int, max_size: int):
    if kind == "interlaced":
        return BackupTable(owner, height, max_size)
    if kind == "kademlia":
        return KademliaBuckets(owner, height, max_size)
    if kind == "dks":
        return DksPointers(owner, height, max_size)
    if kind == "none":
        return NoStabilizer(owner, height, max_size)
    raise ValueError(f"unknown stabilizer kind: {kind}")


def build_prefix_groups(topology: TopologySnapshot) -> list[dict[int, list[NodeIdentity]]]:
    """Per-level prefix buckets of the whole registry, numerically sorted.

    ``groups[level][prefix]`` lists every node whose name ID starts with the
    ``level``-bit ``prefix`` (``name_bits >> (length - level)``); shared by all
    nodes of one topology.
    """
    length = topology.name_length
    ordered = sorted(topology.nodes, key=lambda n: n.num_id)
    groups: list[dict[int, list[NodeIdentity]]] = []
    for level in range(length):
        buckets: dict[int, list[NodeIdentity]] = {}
        for n in ordered:
            buckets.setdefault(n.name_bits >> (length - level), []).append(n)
        groups.append(buckets)
    return groups


def level_groups_for(
    prefix_groups: Sequence[dict[int, list[NodeIdentity]]], owner: NodeIdentity
) -> list[list[NodeIdentity]]:
    length = len(prefix_groups)
    return [prefix_groups[lvl][owner.name_bits >> (length - lvl)] for lvl in range(length)]
