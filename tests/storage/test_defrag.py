"""Unit tests for copy-on-write defragmentation."""

from repro.pm import DropAll, PersistentMemory
from repro.storage import (
    PAGE_LEAF,
    PageFullError,
    PageStore,
    defragment_into,
)


def fragmented_page(store, page_size=512):
    """A page with records interleaved with reclaimed holes."""
    page = store.allocate_page(PAGE_LEAF)
    offsets = []
    index = 0
    while True:
        try:
            offset = page.pending_insert(index, bytes([65 + index]) * 30)
            page.pm.flush_range(*page.record_range(offset, 30))  # records durable before header
            offsets.append(offset)
            index += 1
        except PageFullError:
            break
    store.pm.sfence()
    page.apply_header(page.pending_header_image(), persist=True)
    victims = list(range(0, index, 2))
    for removed, victim in enumerate(victims):
        page.pending_delete(victim - removed)
    page.apply_header(page.pending_header_image(), persist=True)
    for victim in victims:
        page.reclaim_cell(offsets[victim])
    return page


def test_defragment_preserves_records():
    pm = PersistentMemory(16 * 512)
    store = PageStore.format(pm, 0, 16, 512)
    page = fragmented_page(store)
    before = page.records()
    fresh = defragment_into(store, page)
    assert fresh.records() == before


def test_defragment_makes_space_contiguous():
    pm = PersistentMemory(16 * 512)
    store = PageStore.format(pm, 0, 16, 512)
    page = fragmented_page(store)
    total = page.total_free()
    fresh = defragment_into(store, page)
    assert fresh.contiguous_free() >= total - 8  # allow rounding slack
    fresh.pending_insert(0, b"big" * 20)  # now fits contiguously


def test_defragment_leaves_source_intact():
    pm = PersistentMemory(16 * 512)
    store = PageStore.format(pm, 0, 16, 512)
    page = fragmented_page(store)
    before = page.records()
    defragment_into(store, page)
    assert page.records() == before


def test_defragment_survives_crash_as_orphan():
    """A crash right after defragmentation (before the parent pointer
    swap) must leave the original page authoritative."""
    pm = PersistentMemory(16 * 512)
    store = PageStore.format(pm, 0, 16, 512)
    page = fragmented_page(store)
    before = page.records()
    fresh = defragment_into(store, page)
    fresh_no = store.page_no_of(fresh)
    pm.crash(DropAll())
    store = PageStore.attach(pm, 0)
    assert store.page(store.page_no_of(page)).records() == before
    # The orphan is reclaimable.
    freed = store.garbage_collect({store.page_no_of(page)})
    assert freed >= 1
    del fresh_no


def test_defragment_carries_pending_view():
    """Defragmenting a page mid-transaction copies the pending view
    (paper: same-transaction reinsert into an overflowing page)."""
    pm = PersistentMemory(16 * 512)
    store = PageStore.format(pm, 0, 16, 512)
    page = store.allocate_page(PAGE_LEAF)
    page.pending_insert(0, b"committed")
    page.apply_header(page.pending_header_image(), persist=True)
    page.pending_insert(1, b"uncommitted")
    fresh = defragment_into(store, page)
    assert fresh.records() == [b"committed", b"uncommitted"]
