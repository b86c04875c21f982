"""Unit tests for the persistent heap allocator."""

import pytest

from repro.pm import AllocationError, PersistentHeap, PersistentMemory


def make_heap(size=4096):
    pm = PersistentMemory(size)
    return pm, PersistentHeap.format(pm, 0, size)


def test_alloc_returns_in_bounds_payload():
    pm, heap = make_heap()
    addr = heap.pmalloc(100)
    assert 0 < addr < pm.size
    pm.write(addr, b"x" * 100)  # must not raise


def test_distinct_allocations_do_not_overlap():
    _, heap = make_heap()
    a = heap.pmalloc(64)
    b = heap.pmalloc(64)
    assert abs(a - b) >= 64


def test_block_size_reports_capacity():
    _, heap = make_heap()
    addr = heap.pmalloc(50)
    assert heap.block_size(addr) >= 50


def test_free_then_realloc_reuses_space():
    _, heap = make_heap()
    addr = heap.pmalloc(512)
    free_before = heap.free_bytes()
    heap.pfree(addr)
    assert heap.free_bytes() > free_before
    again = heap.pmalloc(512)
    assert again == addr


def test_exhaustion_raises():
    _, heap = make_heap(size=1024)
    heap.pmalloc(512)
    with pytest.raises(AllocationError):
        heap.pmalloc(4096)


def test_zero_or_negative_size_rejected():
    _, heap = make_heap()
    with pytest.raises(AllocationError):
        heap.pmalloc(0)


def test_double_free_detected():
    _, heap = make_heap()
    addr = heap.pmalloc(32)
    heap.pfree(addr)
    with pytest.raises(AllocationError):
        heap.pfree(addr)


def test_coalescing_allows_large_realloc():
    _, heap = make_heap(size=2048)
    blocks = [heap.pmalloc(200) for _ in range(6)]
    for addr in blocks:
        heap.pfree(addr)
    # After coalescing the whole arena is one block again.
    big = heap.pmalloc(1500)
    assert big is not None


def test_attach_recovers_allocated_blocks():
    pm, heap = make_heap()
    keep = heap.pmalloc(128)
    gone = heap.pmalloc(64)
    heap.pfree(gone)
    pm.crash()  # metadata was persisted eagerly
    recovered = PersistentHeap.attach(pm, 0, pm.size)
    assert recovered.allocated_blocks() == [keep]


def test_attach_detects_corruption():
    pm, heap = make_heap()
    heap.pmalloc(16)
    pm.write_u32(0, 0x12345678)
    pm.persist(0, 4)
    with pytest.raises(AllocationError):
        PersistentHeap.attach(pm, 0, pm.size)


def test_alloc_charges_heap_cost_and_counts():
    pm, heap = make_heap()
    before = pm.clock.now_ns
    heap.pmalloc(64)
    assert pm.clock.now_ns - before >= pm.cost.heap_alloc_ns
    assert pm.obs.registry.value("pm.alloc") == 1


def test_many_alloc_free_cycles_stay_consistent():
    _, heap = make_heap(size=8192)
    live = []
    for round_no in range(20):
        live.append(heap.pmalloc(64 + round_no))
        if len(live) > 3:
            heap.pfree(live.pop(0))
    payloads = sorted(live)
    for first, second in zip(payloads, payloads[1:]):
        assert second - first >= 64
