"""Empty-page reclamation on delete (tree shrinks back)."""

import pytest

from repro.core import SystemConfig, open_engine
from repro.testing import SingleRun, crash_sweep, failing
from tests.btree.helpers import naive_tree
from tests.core.conftest import small_config


def make_tree(npages=256, page_size=512):
    engine, ctx, tree = naive_tree(npages, page_size)
    return engine.store, ctx, tree


def test_delete_all_frees_pages():
    store, ctx, tree = make_tree()
    free_at_start = store.free_page_count()
    for i in range(300):
        tree.insert(ctx, b"%06d" % i, b"v" * 8)
    assert store.free_page_count() < free_at_start
    for i in range(300):
        assert tree.delete(ctx, b"%06d" % i)
    assert tree.count(ctx) == 0
    assert tree.verify(ctx) == 0
    # Nearly all pages return (the root and a few stragglers stay).
    assert store.free_page_count() >= free_at_start - 6


def test_root_collapses_after_mass_delete():
    store, ctx, tree = make_tree()
    for i in range(300):
        tree.insert(ctx, b"%06d" % i, b"v" * 8)
    assert tree.height(ctx) >= 2
    for i in range(300):
        tree.delete(ctx, b"%06d" % i)
    assert tree.height(ctx) <= 2


def test_interleaved_insert_delete_stays_bounded():
    store, ctx, tree = make_tree(npages=96)
    # Ten full fill/drain cycles must not exhaust a small arena.
    for cycle in range(10):
        for i in range(120):
            tree.insert(ctx, b"%06d" % i, bytes([cycle]) * 10)
        for i in range(120):
            assert tree.delete(ctx, b"%06d" % i)
    assert tree.verify(ctx) == 0


def test_partial_deletes_keep_remaining_reachable():
    store, ctx, tree = make_tree()
    for i in range(200):
        tree.insert(ctx, b"%06d" % i, b"v")
    for i in range(0, 200, 2):
        tree.delete(ctx, b"%06d" % i)
    assert tree.verify(ctx) == 100
    for i in range(1, 200, 2):
        assert tree.search(ctx, b"%06d" % i) == b"v"


@pytest.mark.parametrize("scheme", ["fast", "fastplus", "nvwal"])
def test_engine_delete_all_then_reuse(scheme):
    engine = open_engine(small_config(scheme=scheme))
    for i in range(250):
        engine.insert(b"%05d" % i, b"value")
    for i in range(250):
        assert engine.delete(b"%05d" % i)
    assert engine.verify() == 0
    for i in range(250):
        engine.insert(b"%05d" % i, b"again")
    assert engine.verify() == 250


@pytest.mark.parametrize("scheme", ["fast", "fastplus"])
def test_crash_sweep_through_page_reclamation(scheme):
    """Crashes during empty-leaf unlinking and root collapse."""
    granularity = 64 if scheme == "fastplus" else 8
    config = SystemConfig(
        npages=128, page_size=512, log_bytes=16384,
        heap_bytes=1 << 20, dram_bytes=64 * 512,
        atomic_granularity=granularity,
    )
    workload = [("insert", b"%04d" % i, b"x" * 40) for i in range(14)]
    workload += [("delete", b"%04d" % i, None) for i in range(14)]
    failures = failing(crash_sweep(
        SingleRun(scheme, workload), config=config, stride=4,
    ))
    assert failures == [], failures[:3]
