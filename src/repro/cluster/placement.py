"""Node indexes: the fleet tier's placement seam.

A placement policy is *which index you build*.  Each class answers
"which usable node with a positive count does the policy rank first?"
over a per-node ``counts`` list and the fleet's shared ``usable`` flags:

* ``peek()`` — that node, or ``None``.  O(log n) amortised: stale heap
  entries pop lazily.
* ``touch(node)`` — ``counts[node]`` or ``usable[node]`` changed.
  Required after every change that leaves the node usable with a
  positive count; exhausting or retiring a node needs none.

:class:`~repro.cluster.fleet.FleetSimulator` builds one over free GPU
slots and one over queue room, so a new policy is a third class here,
not a branch there.  The per-job oracle states the same definitions as
brute-force ``min`` scans, and ``tests/cluster/test_placement.py``
checks every ``peek`` against them.  Two classes, not one with a
``packed`` flag: a policy test inside ``peek`` measured +15 % on ``run``.
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
    def peek(self) -> int | None:
        heap = self._heap
        while heap:
            node = heap[0]
            if self._usable[node] and self._counts[node] > 0:
                return node
            heapq.heappop(heap)
            self._member[node] = False
        return None

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
    def peek(self) -> int | None:
        heap = self._heap
        while heap:
            count, node = heap[0]
            if self._usable[node] and self._counts[node] == count:
                return node
            heapq.heappop(heap)
        return None

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
