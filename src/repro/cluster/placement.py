"""Node indexes: the fleet tier's placement seam.

A placement policy is *which index you build*.  Each class ranks the
usable nodes with a positive count in a per-node ``counts`` list (the
fleet's shared ``usable`` flags say which are usable) and claims from
the front of that order:

* ``take(demand)`` — claim up to ``demand`` units from the policy's
  best node, then the next best, until ``demand`` is met or no node is
  left; returns the pieces as two parallel lists ``(nodes, counts)`` in
  claim order and leaves ``counts`` decremented.  O(pieces · log n):
  stale heap entries pop lazily.
* ``release(nodes, counts)`` — give claimed units back, as ``take``
  returned them (a node at most once): adds each count to its node and
  re-indexes the usable ones as ``touch`` would; returns the units that
  went back to usable nodes.
* ``touch(node)`` — ``counts[node]`` or ``usable[node]`` changed
  outside ``take`` and ``release``.  Required after every such change
  that leaves the node usable with a positive count; exhausting or
  retiring a node needs none.

:class:`~repro.cluster.fleet.FleetSimulator` builds one over free GPU
slots and one over queue room, so a new policy is a third class here,
not a branch there, and a placement is one ``take`` — and its
completion one ``release`` — however many nodes it spans.  The per-job
oracle states the same definitions as brute-force ``min`` scans, and
``tests/cluster/test_placement.py`` checks every ``take`` against
repeatedly claiming that ``min`` and every ``release`` against adding
the counts back.  Two classes, not one with a ``packed`` flag: a policy
test inside the selection loop measured +15 % on ``run``.
"""

from __future__ import annotations

import heapq

from repro.cluster.autoscale import (
    PLACEMENT_BENEFIT,
    PLACEMENT_PACK,
    PLACEMENT_SPREAD,
)
from repro.hotpath import hot_path


class SpreadIndex:
    """Lowest-indexed usable node with a positive count (``spread``, the
    paper's first-available rule).  Entries are node indices, held at
    most once each: a membership flag stops ``touch`` pushing twice."""

    def __init__(self, counts: list[int], usable: list[bool]) -> None:
        self._counts = counts
        self._usable = usable
        self._member = [
            usable[node] and counts[node] > 0 for node in range(len(counts))
        ]
        # Ascending, so already a heap.
        self._heap = [node for node, held in enumerate(self._member) if held]

    @hot_path
    def take(self, demand: int) -> tuple[list[int], list[int]]:
        counts, usable, heap = self._counts, self._usable, self._heap
        nodes, taken = [], []
        while demand > 0 and heap:
            node = heap[0]
            count = counts[node]
            if usable[node] and count > 0:
                nodes.append(node)
                if count > demand:
                    # Partly used: it stays at the front of the order.
                    counts[node] = count - demand
                    taken.append(demand)
                    break
                counts[node] = 0
                taken.append(count)
                demand -= count
            heapq.heappop(heap)
            self._member[node] = False
        return nodes, taken

    @hot_path
    def release(self, nodes: list[int], counts: list[int]) -> int:
        held, usable, member, heap = (
            self._counts, self._usable, self._member, self._heap
        )
        returned = 0
        for node, count in zip(nodes, counts):
            held[node] += count
            if usable[node]:
                returned += count
                if not member[node] and held[node] > 0:
                    heapq.heappush(heap, node)
                    member[node] = True
        return returned

    def touch(self, node: int) -> None:
        if (
            not self._member[node]
            and self._usable[node]
            and self._counts[node] > 0
        ):
            heapq.heappush(self._heap, node)
            self._member[node] = True


class PackIndex:
    """Usable node with the smallest positive count, ties to the lowest
    index (``pack``: fill the fullest node first so idle ones stay
    drainable).  Entries are ``(count, node)`` and are invalidated by
    value — one whose count no longer matches is stale — so every
    ``touch`` pushes the node's current count."""

    def __init__(self, counts: list[int], usable: list[bool]) -> None:
        self._counts = counts
        self._usable = usable
        self._heap = [
            (count, node) for node, count in enumerate(counts)
            if usable[node] and count > 0
        ]
        heapq.heapify(self._heap)

    @hot_path
    def take(self, demand: int) -> tuple[list[int], list[int]]:
        counts, usable, heap = self._counts, self._usable, self._heap
        nodes, taken = [], []
        while demand > 0 and heap:
            count, node = heap[0]
            if usable[node] and counts[node] == count:
                nodes.append(node)
                if count > demand:
                    # Partly used: re-pushed under its smaller count.
                    counts[node] = count - demand
                    heapq.heapreplace(heap, (count - demand, node))
                    taken.append(demand)
                    break
                counts[node] = 0
                taken.append(count)
                demand -= count
            heapq.heappop(heap)
        return nodes, taken

    @hot_path
    def release(self, nodes: list[int], counts: list[int]) -> int:
        held, usable, heap = self._counts, self._usable, self._heap
        returned = 0
        for node, count in zip(nodes, counts):
            now_held = held[node] = held[node] + count
            if usable[node]:
                returned += count
                if now_held > 0:
                    heapq.heappush(heap, (now_held, node))
        return returned

    def touch(self, node: int) -> None:
        count = self._counts[node]
        if count > 0 and self._usable[node]:
            heapq.heappush(self._heap, (count, node))


#: Placement policy → the index class it builds.  ``benefit-aware`` is
#: spread plus the reserve gate in ``FleetSimulator._place_low_benefit``.
NODE_INDEXES = {
    PLACEMENT_SPREAD: SpreadIndex,
    PLACEMENT_PACK: PackIndex,
    PLACEMENT_BENEFIT: SpreadIndex,
}
