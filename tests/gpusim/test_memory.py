"""Device memory allocator invariants."""

import contextlib

import pytest
from hypothesis import given, strategies as st

from repro.gpusim.errors import DeviceOutOfMemoryError, DoubleFreeError
from repro.gpusim.memory import CUDA_CONTEXT_OVERHEAD_BYTES, MIB, MemoryAllocator

CAP = 1024 * MIB


class TestAllocator:
    def test_initial_state(self):
        allocator = MemoryAllocator(CAP)
        assert allocator.used == 0
        assert allocator.free_bytes == CAP
        assert allocator.used_mib == 0

    def test_alloc_free_roundtrip(self):
        allocator = MemoryAllocator(CAP)
        allocation = allocator.alloc(100 * MIB, owner_pid=1)
        assert allocator.used == 100 * MIB
        assert allocator.free(allocation) == 100 * MIB
        assert allocator.used == 0

    def test_oom_raises_and_preserves_state(self):
        allocator = MemoryAllocator(CAP)
        allocator.alloc(CAP // 2, owner_pid=1)
        before = allocator.used
        with pytest.raises(DeviceOutOfMemoryError) as excinfo:
            allocator.alloc(CAP, owner_pid=1)
        assert allocator.used == before
        assert excinfo.value.requested == CAP

    def test_double_free_rejected(self):
        allocator = MemoryAllocator(CAP)
        allocation = allocator.alloc(MIB, owner_pid=1)
        allocator.free(allocation)
        with pytest.raises(DoubleFreeError):
            allocator.free(allocation)

    def test_non_positive_alloc_rejected(self):
        allocator = MemoryAllocator(CAP)
        with pytest.raises(ValueError):
            allocator.alloc(0, owner_pid=1)
        with pytest.raises(ValueError):
            allocator.alloc(-5, owner_pid=1)

    def test_non_positive_capacity_rejected(self):
        with pytest.raises(ValueError):
            MemoryAllocator(0)

    def test_context_overhead_matches_paper_figure(self):
        """Idle racon_gpu processes show 60 MiB in the paper's Fig. 11."""
        allocator = MemoryAllocator(CAP)
        allocator.register_context(41)
        assert allocator.used_mib == 60
        assert CUDA_CONTEXT_OVERHEAD_BYTES == 60 * MIB

    def test_context_registration_idempotent(self):
        allocator = MemoryAllocator(CAP)
        allocator.register_context(41)
        allocator.register_context(41)
        assert allocator.used == CUDA_CONTEXT_OVERHEAD_BYTES

    def test_release_pid_reclaims_everything(self):
        allocator = MemoryAllocator(CAP)
        allocator.register_context(7)
        allocator.alloc(10 * MIB, owner_pid=7)
        allocator.alloc(20 * MIB, owner_pid=7)
        allocator.alloc(5 * MIB, owner_pid=8)
        freed = allocator.release_pid(7)
        assert freed == 30 * MIB + CUDA_CONTEXT_OVERHEAD_BYTES
        assert allocator.used == 5 * MIB

    def test_used_by_attribution(self):
        allocator = MemoryAllocator(CAP)
        allocator.register_context(1)
        allocator.alloc(10 * MIB, owner_pid=1)
        allocator.alloc(99 * MIB, owner_pid=2)
        assert allocator.used_by(1) == 10 * MIB + CUDA_CONTEXT_OVERHEAD_BYTES
        assert allocator.used_by(2) == 99 * MIB


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["alloc", "free", "release"]),
            st.integers(min_value=1, max_value=4),  # pid
            st.integers(min_value=1, max_value=200 * MIB),  # size
        ),
        max_size=60,
    )
)
def test_accounting_invariant_under_random_operations(operations):
    """used + free == capacity and used == sum(live) at every step."""
    allocator = MemoryAllocator(CAP)
    live = []
    for op, pid, size in operations:
        if op == "alloc":
            with contextlib.suppress(DeviceOutOfMemoryError):
                live.append(allocator.alloc(size, owner_pid=pid))
        elif op == "free" and live:
            allocator.free(live.pop())
        elif op == "release":
            allocator.release_pid(pid)
            live = [a for a in live if a.owner_pid != pid]
        assert allocator.used + allocator.free_bytes == allocator.capacity
        assert allocator.used == sum(a.size for a in live)
        assert allocator.used >= 0
