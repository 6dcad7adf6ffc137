"""Seeded property-based stress tests for the simulator's bookkeeping.

Thousands of randomised (but reproducibly seeded, stdlib ``random``)
mixed operations against the two structures whose incremental fast
paths PR4 introduced:

* :class:`~repro.gpusim.memory.MemoryAllocator` — the O(1) ``used``
  counter must agree with the O(live) ``audit_used()`` recomputation
  after any operation mix, with the simsan SIM305 check applied along
  the way;
* :class:`~repro.gpusim.clock.Timeline` — the incrementally sorted
  event log must iterate identically to a naive sort-everything model.

The suite-wide simsan installation (see ``tests/conftest.py``) stays
active here, so every mutation also runs under the runtime sanitizer's
wrapped entry points.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.sanitizer import SimSanitizer
from repro.gpusim.clock import Timeline
from repro.gpusim.errors import DeviceOutOfMemoryError, DoubleFreeError
from repro.gpusim.memory import (
    CUDA_CONTEXT_OVERHEAD_BYTES,
    MIB,
    MemoryAllocator,
)

CAPACITY = 1024 * MIB
SEEDS = (0, 1, 7, 1234, 987654)


def _assert_allocator_consistent(
    allocator: MemoryAllocator, checker: SimSanitizer
) -> None:
    assert allocator.audit_used() == allocator.used
    assert allocator.used + allocator.free_bytes == allocator.capacity
    assert 0 <= allocator.used <= allocator.capacity
    checker.check_allocator(allocator)  # SIM305, raising on violation


class TestAllocatorStress:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_mixed_operations_preserve_byte_accounting(self, seed):
        rng = random.Random(seed)
        allocator = MemoryAllocator(CAPACITY, device_index=0)
        checker = SimSanitizer()
        live: list = []
        freed: list = []
        contexts: set[int] = set()
        pids = list(range(100, 110))
        version = allocator.version

        for step in range(3000):
            op = rng.random()
            pid = rng.choice(pids)
            if op < 0.40:
                size = rng.randint(1, 64 * MIB)
                try:
                    live.append(allocator.alloc(size, pid))
                except DeviceOutOfMemoryError:
                    # OOM must not mutate state.
                    assert allocator.version == version
            elif op < 0.60 and live:
                allocation = live.pop(rng.randrange(len(live)))
                allocator.free(allocation)
                freed.append(allocation)
            elif op < 0.70 and freed:
                # Double frees must raise without corrupting accounting.
                with pytest.raises(DoubleFreeError):
                    allocator.free(rng.choice(freed))
            elif op < 0.80:
                try:
                    allocator.register_context(pid)
                    contexts.add(pid)
                except DeviceOutOfMemoryError:
                    assert allocator.version == version
            else:
                allocator.release_pid(pid)
                moved = [a for a in live if a.owner_pid == pid]
                live = [a for a in live if a.owner_pid != pid]
                freed.extend(moved)
                contexts.discard(pid)
            version = allocator.version
            if step % 97 == 0:
                _assert_allocator_consistent(allocator, checker)

        _assert_allocator_consistent(allocator, checker)
        assert allocator.used == (
            sum(a.size for a in live)
            + len(contexts) * CUDA_CONTEXT_OVERHEAD_BYTES
        )
        assert not checker.violations

    def test_full_drain_returns_to_zero(self):
        rng = random.Random(42)
        allocator = MemoryAllocator(CAPACITY)
        checker = SimSanitizer()
        for pid in range(5):
            allocator.register_context(pid)
            for _ in range(50):
                try:
                    allocator.alloc(rng.randint(1, 2 * MIB), pid)
                except DeviceOutOfMemoryError:
                    break
        for pid in range(5):
            allocator.release_pid(pid)
        _assert_allocator_consistent(allocator, checker)
        assert allocator.used == 0
        assert allocator.audit_used() == 0
        assert allocator.free_bytes == allocator.capacity


class NaiveTimeline:
    """The obviously-correct model: sort everything on every query."""

    def __init__(self) -> None:
        self.records: list[tuple[float, int, str]] = []

    def record(self, time: float, label: str) -> None:
        self.records.append((time, len(self.records), label))

    def ordered(self):
        return sorted(self.records, key=lambda r: (r[0], r[1]))


def _as_tuples(events):
    return [(e.time, e.seq, e.label) for e in events]


class TestTimelineStress:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_naive_model_under_out_of_order_records(self, seed):
        rng = random.Random(seed)
        timeline, model = Timeline(), NaiveTimeline()
        labels = [f"event_{i}" for i in range(6)]
        for step in range(4000):
            if rng.random() < 0.7:
                # Mostly in-order appends (the monitor's common case)...
                when = float(step)
            else:
                # ...with out-of-order stragglers, including exact ties.
                when = rng.choice([rng.uniform(0, step + 1),
                                   float(rng.randint(0, step))])
            label = rng.choice(labels)
            timeline.record(when, label)
            model.record(when, label)

        assert _as_tuples(timeline) == model.ordered()

    def test_equal_timestamps_preserve_insertion_order(self):
        timeline = Timeline()
        for i in range(100):
            timeline.record(5.0, f"tied_{i}")
        seqs = [e.seq for e in timeline]
        assert seqs == sorted(seqs)
