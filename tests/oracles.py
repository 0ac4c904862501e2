"""Plain restatements that tests compare the package's code against: string-based
name-ID arithmetic, routing one level at a time, the Kademlia capacity table
as a loop, Kademlia buckets and DKS successor lists as plain lists, and the
stationary solve through ``np.linalg.solve``."""

import numpy as np


def common_prefix_length(a: str, b: str) -> int:
    """Number of leading bits shared by two equal-length name IDs."""
    if len(a) != len(b):
        raise ValueError("name IDs must have equal length")
    n = 0
    for ca, cb in zip(a, b):
        if ca != cb:
            break
        n += 1
    return n


def cpl_ints(a_bits: int, b_bits: int, length: int) -> int:
    """Number of leading bits shared by two ``length``-bit integer name IDs: the
    expression the stores compute inline."""
    return length - (a_bits ^ b_bits).bit_length()


def route_stepwise(node_num_id: int, levels, target: int, level: int):
    """The forward of a search at ``node_num_id``, found as a loop that checks
    one level and descends on no result: ``(neighbor, level)``, or ``(None, 0)``
    when no level from ``level`` down has a neighbor strictly past the node and
    not past the target in the target's direction."""
    side = 1 if target > node_num_id else 0
    lo, hi = (node_num_id + 1, target) if side else (target, node_num_id - 1)
    for lvl in range(level, -1, -1):
        nb = levels[lvl][side]
        if nb is not None and lo <= nb.num_id <= hi:
            return nb, lvl
    return None, 0


def kademlia_capacity_loop(b: int, levels: int):
    """The (left, right) capacities of each level: floor(b / levels) each, then
    the remainder handed out two at a time from level 0; an odd share's extra
    slot goes left."""
    shares = [b // levels] * levels
    remainder = b % levels
    lvl = 0
    while remainder > 0:
        add = min(2, remainder)
        shares[lvl % levels] += add
        remainder -= add
        lvl += 1
    return tuple((share - share // 2, share // 2) for share in shares)


def _first_online(entries, ping, drop):
    """Ping ``entries`` in order until one answers, dropping each that does not."""
    trace = []
    for e in entries:
        online = ping(e.num_id)
        trace.append((e.num_id, online))
        if online:
            return e.num_id, trace
        drop(e)
    return None, trace


class ListBuckets:
    """Kademlia buckets as lists, newest at the head: a re-sent entry is found
    by a scan and moved to the head, and whatever passes the capacity is cut
    from the tail.  A resolve, on the target's side of the owner, contacts the
    exact target first, then the rest head to tail that do not overshoot it."""

    def __init__(self, owner, capacities):
        self.owner = owner
        self.height = len(capacities)
        self.capacities = capacities
        self.buckets = [[[], []] for _ in capacities]

    def update(self, lookup_ids, piggyback) -> None:
        owner_name = format(self.owner.name_bits, f"0{self.height}b")
        for item in piggyback:
            if item.num_id == self.owner.num_id or item.num_id in lookup_ids:
                continue
            cpl = common_prefix_length(owner_name, format(item.name_bits, f"0{self.height}b"))
            level = min(cpl, self.height - 1)
            side = int(item.num_id > self.owner.num_id)
            cap = self.capacities[level][side]
            if cap == 0:
                continue
            bucket = self.buckets[level][side]
            for i, e in enumerate(bucket):
                if e.num_id == item.num_id:
                    del bucket[i]
                    break
            bucket.insert(0, item)
            del bucket[cap:]

    def resolve(self, msg, ping):
        target = msg.target_num_id
        right = target > self.owner.num_id
        bucket = self.buckets[msg.level][right]
        order = [e for e in bucket if e.num_id == target]
        order += [e for e in bucket if e.num_id != target and (e.num_id <= target if right else e.num_id >= target)]
        return _first_online(order, ping, bucket.remove)

    def total_entries(self) -> int:
        return sum(len(b) for pair in self.buckets for b in pair)


class ListSuccessors:
    """DKS successor lists as copies of the owner's nearest group members, the
    left list reversed, each with the group index of the next node past its
    tail.  A failed head is dropped; only when the tail answers a ping is the
    node past it appended, while the group has one."""

    def __init__(self, owner, level_groups, capacities):
        self.owner = owner
        self.groups = level_groups
        self.lists = []
        self.frontier = []
        for group, (cap_left, cap_right) in zip(level_groups, capacities):
            pos = [n.num_id for n in group].index(owner.num_id)
            left = group[max(0, pos - cap_left) : pos][::-1]
            right = group[pos + 1 : pos + 1 + cap_right]
            self.lists.append([left, right])
            self.frontier.append([pos - len(left) - 1, pos + len(right) + 1])

    def resolve(self, msg, ping):
        right = msg.target_num_id > self.owner.num_id
        pointers = self.lists[msg.level][right]
        group = self.groups[msg.level]
        trace = []
        while pointers:
            head = pointers[0].num_id
            if head > msg.target_num_id if right else head < msg.target_num_id:
                break
            online = ping(head)
            trace.append((head, online))
            if online:
                return head, trace
            tail_online = len(pointers) > 1 and ping(pointers[-1].num_id)
            del pointers[0]
            idx = self.frontier[msg.level][right]
            if tail_online and 0 <= idx < len(group):
                pointers.append(group[idx])
                self.frontier[msg.level][right] = idx + (1 if right else -1)
        return None, trace

    def total_entries(self) -> int:
        return sum(len(lst) for pair in self.lists for lst in pair)


def stationary_core(P: np.ndarray) -> np.ndarray:
    """Solve pi = pi P with sum(pi) = 1 for an irreducible stochastic P, with
    the public ``np.linalg.solve``: A is P.T - I with its last row set to ones."""
    m = P.shape[0]
    # P.T - I without building I: off the diagonal p - 0.0 is p, bit for bit
    A = P.T.copy()
    A.flat[:: m + 1] -= 1.0
    A[-1, :] = 1.0
    rhs = np.zeros(m)
    rhs[-1] = 1.0
    return np.linalg.solve(A, rhs)
