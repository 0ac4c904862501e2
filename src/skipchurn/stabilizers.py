"""Timeout-failure recovery strategies.

Every stabilizer is one node's store behind one protocol: ``reads_path``,
``update``, ``resolve`` and ``total_entries``; the engine never asks which kind
it holds.  A store is built when its node joins, a return included, since a
departure is a crash that keeps nothing.  ``reads_path`` means that
``update`` reads the piggyback: for a store that does, ``update(lookup,
piggyback)`` runs on each search message the node handles and feeds the
piggybacked availability entries into the store; for one that does not, the
engine builds neither and calls no ``update``.  ``resolve(msg, ping)`` runs
after a timeout failure on the owner's lookup neighbor at the level of
``msg``.  It reads only the target and the level of ``msg``; the side is
``target > owner``, since a search only moves towards its target.  It pings
candidates from the store, each strictly past the owner on that side and not
past the target, until one answers, and returns ``(candidate, contacts)``: the
answering candidate's numerical ID, or ``None`` when none answered, and the
ordered contacts as ``(num_id, was_online)`` pairs, used for latency
accounting.  A candidate is always the last contact.  A ``None`` candidate
tells the caller to descend a level, or to end the whole search when already
at level 0.  ``total_entries()`` counts what the store holds.

Strategies:

* scored backup table (``interlaced``): a bounded set of the piggybacked
  entries, split into one dict per side of the owner, each entry kept
  with its rank and common prefix, beside ``_order``, the ranks in eviction
  order; eviction drops the globally lowest-scored entry, resolution scans
  only the search side's dict and contacts candidates by score.
* recency buckets (``kademlia``): per level and side a fixed-capacity dict in
  recency order, newest last, oldest evicted, contacted newest first.
* successor pointers (``dks``): per level and side a window of the level's
  prefix group, the nodes that follow the owner; it slides away from the
  owner as heads fail.
* ``none``: a scored backup table of size 0, which keeps nothing and
  resolves nothing.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from functools import lru_cache
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Iterator, Optional

from .overlay import LookupTable, NodeIdentity, PiggybackEntry, SearchMessage, TopologySnapshot

STABILIZER_KINDS = ("interlaced", "kademlia", "dks", "none")

PingFn = Callable[[int], bool]


ResolveResult = tuple[Optional[int], list[tuple[int, bool]]]
Rank = tuple[float, int, int, int]
RankedEntry = tuple[Rank, int, PiggybackEntry]


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


def _score(sop: float, cpl: int, distance: int) -> float:
    if distance == 0:
        raise ValueError("scoring distance must be nonzero")
    return (sop * cpl) / distance


class BackupTable:
    """Score-managed backup neighbors, at most ``max_size`` of them.

    ``_sides`` holds two dicts indexed by side (0 left, 1 right): the left
    one maps each numerical ID below the owner's to ``(rank, cpl, entry)``,
    the right one each ID above it.  ``entry`` is the piggybacked entry, which
    is immutable; a newer piggyback with another ``sop`` replaces all three.
    ``cpl`` is the entry's common name-ID prefix with the owner; capped at
    ``height - 1`` it is the entry's level.  ``rank`` is ``(owner score,
    -distance, -name_bits, num_id)``, unique by its num_id.

    ``_order`` is every entry's rank, ascending, so its length is the table's
    size.  A full table drops the first, the entry whose owner-relative score
    is minimal, before accepting a new one; ties evict the farther entry,
    then the larger name ID, then the left one.  Resolution ranks candidates
    by their target-relative score without storing it.
    """

    def __init__(self, owner: NodeIdentity, height: int, max_size: int):
        if max_size < 0:
            raise ValueError("backup size must be >= 0")
        self.owner = owner
        self.height = height
        self.max_size = max_size
        self.reads_path = max_size > 0
        self._sides: tuple[dict[int, RankedEntry], dict[int, RankedEntry]] = ({}, {})
        self._order: list[Rank] = []

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
                if old[2].sop == item.sop:
                    continue
                del order[bisect_left(order, old[0])]
            elif len(order) >= self.max_size:
                self._evict_minimum()
            distance = abs(num_id - owner_id)
            cpl = height - (owner_bits ^ item.name_bits).bit_length()
            rank = (_score(item.sop, cpl, distance), -distance, -item.name_bits, num_id)
            entries[num_id] = (rank, cpl, item)
            insort(order, rank)

    def _evict_minimum(self) -> PiggybackEntry:
        if not self._order:
            raise RuntimeError("eviction requested on an empty table")
        num_id = self._order.pop(0)[3]
        return self._sides[num_id > self.owner.num_id].pop(num_id)[2]

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
        entries = self._sides[msg.target_num_id > self.owner.num_id]
        if not entries:
            return None, []
        return _first_online(self._candidates(msg, entries), ping, self._drop)

    def _drop(self, e: PiggybackEntry) -> None:
        rank = self._sides[e.num_id > self.owner.num_id].pop(e.num_id)[0]
        del self._order[bisect_left(self._order, rank)]

    def _candidates(self, msg: SearchMessage, entries: dict[int, RankedEntry]) -> Iterator[PiggybackEntry]:
        """The eligible entries of the search side's ``entries``, in contact
        order; ranked only if the exact target fails.  ``level < height``, so
        testing the uncapped ``cpl`` against it is testing the entry's level."""
        target = msg.target_num_id
        level = msg.level
        # Every entry of the side lies past the owner; eligible ones reach no
        # further than the target, which the exact target does by construction.
        exact = entries.get(target)
        if exact is not None and exact[1] >= level:
            yield exact[2]
        # An offline exact target is gone by now; an ineligible one fails the
        # same tests below.
        right = target > self.owner.num_id
        ranked = []
        for num_id, (_, cpl, e) in entries.items():
            if cpl < level or (num_id > target if right else num_id < target):
                continue
            distance = abs(num_id - target)
            ranked.append((-_score(e.sop, cpl, distance), distance, e.name_bits, e))
        ranked.sort(key=itemgetter(0, 1, 2))
        yield from map(itemgetter(3), ranked)

    def total_entries(self) -> int:
        return len(self._order)


@lru_cache(maxsize=None)
def kademlia_capacity(b: int, levels: int) -> tuple[tuple[int, int], ...]:
    """Distribute a backup budget over levels and sides.

    Each level receives floor(b / levels), split between (left, right) with an
    odd slot going left.  The remainder is handed out two at a time (one per
    side) starting at level 0; an odd final slot also goes left.  It is below
    ``levels``, so it never wraps.  The table is immutable, so every store
    shares the one per (b, levels).
    """
    if b < 0:
        raise ValueError("backup size must be >= 0")
    if levels < 1:
        raise ValueError("levels must be >= 1")
    base, remainder = divmod(b, levels)
    shares = [base + max(0, min(2, remainder - 2 * level)) for level in range(levels)]
    return tuple((share - share // 2, share // 2) for share in shares)


class KademliaBuckets:
    """Recency-ordered backup buckets with per-bucket capacity.

    ``buckets[level][side]`` maps num_id to the piggybacked entry, which is
    immutable, in recency order: newest last.  A re-sent entry moves to the
    end; a full bucket evicts its first, oldest, entry.
    """

    def __init__(self, owner: NodeIdentity, height: int, max_size: int):
        self.owner = owner
        self.height = height
        self.reads_path = max_size > 0
        self.capacities = kademlia_capacity(max_size, height)
        self.buckets: list[list[dict[int, PiggybackEntry]]] = [[{}, {}] for _ in range(height)]

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
            # the common prefix with the owner, capped
            level = height - (owner_bits ^ item.name_bits).bit_length()
            if level == height:
                level -= 1
            slot = 1 if num_id > owner_id else 0
            cap = capacities[level][slot]
            if cap == 0:
                continue
            bucket = buckets[level][slot]
            if bucket.pop(num_id, None) is None and len(bucket) >= cap:
                del bucket[next(iter(bucket))]
            bucket[num_id] = item

    def resolve(self, msg: SearchMessage, ping: PingFn) -> ResolveResult:
        """The exact target first, then the bucket newest to oldest, each
        short of the target."""
        target = msg.target_num_id
        right = target > self.owner.num_id
        bucket = self.buckets[msg.level][right]
        exact = bucket.get(target)
        order = [] if exact is None else [exact]
        order += [e for e in reversed(bucket.values()) if (e.num_id < target if right else e.num_id > target)]
        return _first_online(order, ping, lambda e: bucket.pop(e.num_id))

    def total_entries(self) -> int:
        return sum(len(b) for pair in self.buckets for b in pair)


class DksPointers:
    """Per-level lists of the immediately succeeding topology nodes.

    A list is a window of its level group (:meth:`TopologySnapshot.level_groups`):
    ``_spans[level][side]`` is ``[head, end]``, the group index of its head
    and the index one step past its tail, a step being +1 on the right side
    and -1 on the left, away from the owner; ``head == end`` is an empty
    list.  A new store's lists hold the owner's nearest group members,
    ignoring online status, and carry no availability information.  When a
    head fails it is dropped (``head`` steps) and the list is extended with
    the node beyond the current tail in the identifier space (``end``
    steps, while it stays in the group); the appended node may itself be
    offline.  Learning that next node requires asking the current tail, so
    no extension happens while the tail is offline, which is how runs of
    concurrent failures starve the list.

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
        self._owner_id = owner.num_id
        self._groups = level_groups
        self._spans: list[tuple[list[int], list[int]]] = []
        for group, (cap_left, cap_right) in zip(level_groups, kademlia_capacity(max_size, len(level_groups))):
            pos = bisect_left(group, owner.num_id, key=attrgetter("num_id"))
            left = [pos - 1, max(pos - 1 - cap_left, -1)]
            right = [pos + 1, min(pos + 1 + cap_right, len(group))]
            self._spans.append((left, right))

    def resolve(self, msg: SearchMessage, ping: PingFn) -> ResolveResult:
        target = msg.target_num_id
        right = target > self._owner_id
        step = 1 if right else -1
        group = self._groups[msg.level]
        span = self._spans[msg.level][right]
        trace: list[tuple[int, bool]] = []
        while span[0] != span[1]:
            head = group[span[0]].num_id
            if head > target if right else head < target:
                break
            online = ping(head)
            trace.append((head, online))
            if online:
                return head, trace
            # a one-pointer list's tail is its failed head, with nobody to ask
            tail = span[1] - step
            tail_online = tail != span[0] and ping(group[tail].num_id)
            span[0] += step
            if tail_online and 0 <= span[1] < len(group):
                span[1] += step
        return None, trace

    def total_entries(self) -> int:
        return sum(abs(end - head) for pair in self._spans for head, end in pair)


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
