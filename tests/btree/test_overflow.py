"""Overflow-page chains: values larger than a page."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.btree.cells import is_overflow_cell
from repro.core import engine_class, open_engine
from tests.btree.helpers import naive_tree
from tests.core.conftest import small_config


def make_tree(npages=512, page_size=512):
    engine, ctx, tree = naive_tree(npages, page_size)
    return engine.store, ctx, tree


def test_value_larger_than_page_round_trips():
    _, ctx, tree = make_tree()
    big = bytes(range(256)) * 8  # 2 KiB in 512 B pages
    tree.insert(ctx, b"big", big)
    assert tree.search(ctx, b"big") == big
    assert tree.verify(ctx) == 1


def test_huge_value_many_pages():
    _, ctx, tree = make_tree(npages=1024)
    huge = b"payload!" * 4000  # 32 KiB
    tree.insert(ctx, b"huge", huge)
    assert tree.search(ctx, b"huge") == huge


def test_spill_threshold_boundary():
    _, ctx, tree = make_tree()
    for size in (100, 127, 128, 129, 200, 511, 512, 513):
        key = b"s%03d" % size
        tree.insert(ctx, key, b"x" * size)
        assert tree.search(ctx, key) == b"x" * size
    assert tree.verify(ctx) == 8


def test_mixed_small_and_large_records():
    _, ctx, tree = make_tree()
    values = {}
    for i in range(60):
        size = 2000 if i % 7 == 0 else 20
        values[b"k%02d" % i] = bytes([i]) * size
    for key, value in values.items():
        tree.insert(ctx, key, value)
    assert tree.verify(ctx) == 60
    assert dict(tree.scan(ctx)) == values


def test_scan_resolves_overflow_values():
    _, ctx, tree = make_tree()
    tree.insert(ctx, b"a", b"small")
    tree.insert(ctx, b"b", b"B" * 1500)
    assert list(tree.scan(ctx)) == [(b"a", b"small"), (b"b", b"B" * 1500)]


def test_delete_frees_chain_pages():
    store, ctx, tree = make_tree()
    free_before = store.free_page_count()
    tree.insert(ctx, b"big", b"z" * 3000)
    used = free_before - store.free_page_count()
    assert used >= 6  # leaf-side + several overflow pages
    assert tree.delete(ctx, b"big")
    assert store.free_page_count() >= free_before - 2


def test_replace_frees_old_chain():
    store, ctx, tree = make_tree()
    tree.insert(ctx, b"k", b"a" * 3000)
    baseline = store.free_page_count()
    for round_no in range(8):
        tree.insert(ctx, b"k", bytes([round_no]) * 3000, replace=True)
    # Page usage is stable: old chains are recycled, not leaked.
    assert abs(store.free_page_count() - baseline) <= 2
    assert tree.search(ctx, b"k") == bytes([7]) * 3000


def test_replace_large_with_small_goes_inline():
    _, ctx, tree = make_tree()
    tree.insert(ctx, b"k", b"L" * 2000)
    tree.insert(ctx, b"k", b"tiny", replace=True)
    assert tree.search(ctx, b"k") == b"tiny"
    # The cell is inline again.
    view = ctx
    leaf = tree._descend(view, b"k")[-1].page
    _, slot = tree._leaf_search(leaf, b"k")
    assert not is_overflow_cell(leaf.record(slot))


def test_reachable_pages_include_chains():
    store, ctx, tree = make_tree()
    tree.insert(ctx, b"big", b"q" * 3000)
    pages = tree.reachable_pages(ctx)
    store.garbage_collect(pages)  # must not free chain pages
    assert tree.search(ctx, b"big") == b"q" * 3000


def test_oversized_key_rejected():
    from repro.storage.slotted_page import RecordTooLargeError

    _, ctx, tree = make_tree()
    with pytest.raises(RecordTooLargeError):
        tree.insert(ctx, b"K" * 400, b"v" * 1000)


@pytest.mark.parametrize("scheme", ["fast", "fastplus", "nvwal"])
def test_overflow_values_survive_crash(scheme):
    config = small_config(scheme=scheme, npages=512)
    engine = open_engine(config)
    big = b"durable" * 400  # 2.8 KiB in 1 KiB pages
    engine.insert(b"big", big)
    engine.insert(b"small", b"s")
    pm = engine.pm
    pm.crash()
    recovered = engine_class(scheme).attach(config, pm)
    assert recovered.search(b"big") == big
    assert recovered.verify() == 2


def test_uncommitted_chain_is_collected_after_crash():
    from repro.pm import DropAll

    config = small_config(scheme="fast", npages=256)
    engine = open_engine(config)
    engine.insert(b"committed", b"c" * 1500)
    txn = engine.transaction()
    txn.insert(b"doomed", b"d" * 1500)
    pm = engine.pm
    pm.crash(DropAll())
    recovered = engine_class("fast").attach(config, pm)
    assert recovered.search(b"doomed") is None
    assert recovered.search(b"committed") == b"c" * 1500
    # The doomed chain's pages were reclaimed by recovery GC.
    committed_pages = recovered.reachable_pages()
    free_pages = recovered.store.free_page_count()
    assert free_pages + len(committed_pages) + 1 == recovered.store.npages


@settings(max_examples=15, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 2500), min_size=1, max_size=12),
    seed=st.integers(0, 1000),
)
def test_random_sizes_match_model(sizes, seed):
    _, ctx, tree = make_tree(npages=1024)
    model = {}
    for i, size in enumerate(sizes):
        key = b"r%02d" % i
        value = bytes((i + j + seed) % 256 for j in range(size))
        tree.insert(ctx, key, value, replace=True)
        model[key] = value
    assert dict(tree.scan(ctx)) == model
    assert tree.verify(ctx) == len(model)
