"""Lazy recovery mode: O(log) restart, deferred GC, lazy free lists."""

import dataclasses

import pytest

from repro.core import engine_class, open_engine
from repro.pm.crash import PersistAll
from repro.testing import SingleRun, crash_sweep, failing
from tests.core.conftest import small_config


def lazy_config(scheme, granularity=8):
    return dataclasses.replace(
        small_config(scheme=scheme, atomic_granularity=granularity),
        eager_recovery_gc=False,
    )


@pytest.mark.parametrize("scheme", ["fast", "fastplus", "nvwal"])
def test_lazy_recovery_preserves_data(scheme):
    config = lazy_config(scheme, 64 if scheme == "fastplus" else 8)
    engine = open_engine(config)
    for i in range(150):
        engine.insert(b"%04d" % i, b"v%d" % i)
    for i in range(0, 150, 3):
        engine.delete(b"%04d" % i)
    pm = engine.pm
    pm.crash()
    recovered = engine_class(scheme).attach(config, pm)
    assert recovered.verify() == 100
    # Writes after a lazy recovery reuse stale free lists safely
    # (validated on first touch).
    for i in range(0, 150, 3):
        recovered.insert(b"%04d" % i, b"again")
    assert recovered.verify() == 150


def test_lazy_recovery_is_constant_time_for_fast():
    """FAST's eagerly-checkpointed log means lazy recovery does O(1)
    simulated work regardless of database size."""
    times = []
    for n in (100, 800):
        config = lazy_config("fast")
        engine = open_engine(config)
        for i in range(n):
            engine.insert(b"%05d" % i, b"x" * 40)
        pm = engine.pm
        pm.crash()
        before = pm.clock.now_ns
        engine_class("fast").attach(config, pm)
        times.append(pm.clock.now_ns - before)
    assert times[1] < times[0] * 2, times


@pytest.mark.parametrize("scheme", ["fast", "nvwal"])
def test_lazy_recovery_crash_sweep(scheme):
    workload = (
        [("insert", b"%03d" % i, b"x" * 30) for i in range(12)]
        + [("delete", b"%03d" % i, None) for i in range(0, 12, 2)]
        + [("insert", b"%03d" % i, b"y" * 40) for i in range(0, 12, 2)]
    )
    failures = failing(crash_sweep(
        SingleRun(scheme, workload), config=lazy_config(scheme), stride=5,
    ))
    assert failures == [], failures[:3]


def test_deferred_gc_reclaims_on_demand():
    config = lazy_config("fast")
    engine = open_engine(config)
    with engine.transaction() as txn:
        for i in range(60):
            txn.insert(b"%03d" % i, b"x" * 30)
    # Crash mid-transaction: pages leak under lazy recovery...
    txn = engine.transaction()
    for i in range(60, 120):
        txn.insert(b"%03d" % i, b"y" * 30)
    engine.pm.crash()
    recovered = engine_class("fast").attach(config, engine.pm)
    free_before = recovered.store.free_page_count()
    reclaimed = recovered.garbage_collect()  # ...until asked
    assert reclaimed >= 0
    assert recovered.store.free_page_count() >= free_before
    assert recovered.verify() == 60


# ----------------------------------------------------------------------
# The lazy free-list check runs once per page per attach / frame load
# ----------------------------------------------------------------------


def _checks(engine):
    registry = engine.registry
    return (registry.value("page.freelist.check"),
            registry.value("page.freelist.rebuild"))


def _one_leaf_with_a_free_chunk(scheme):
    """A single-leaf tree whose leaf carries a reclaimed cell."""
    config = small_config(scheme=scheme,
                          atomic_granularity=64 if scheme == "fastplus" else 8)
    engine = open_engine(config)
    for i in range(5):
        engine.insert(b"k%d" % i, bytes([i]) * 24)
    engine.delete(b"k2")
    (leaf_no,) = engine.reachable_pages()
    assert engine.store.page(leaf_no).freelist_head
    return config, engine, leaf_no


def _scramble_free_list(engine, leaf_no):
    """Grow the first chunk's size field: the list no longer accounts
    for the page's dead bytes (and now runs over a live cell)."""
    page = engine.store.page(leaf_no)
    head = page.freelist_head
    assert head
    size = engine.pm.read_u16(page.base + head)
    engine.pm.write_u16(page.base + head, size + 8)
    assert not page.free_list_consistent()


@pytest.mark.parametrize("scheme", ["fast", "fastplus"])
def test_free_list_is_walked_once_per_attach(scheme):
    config, engine, leaf_no = _one_leaf_with_a_free_chunk(scheme)
    # Formatted by this store, mutated ever since: never checked.
    assert _checks(engine) == (0, 0)
    engine.pm.crash(PersistAll())
    engine = engine_class(scheme).attach(config, engine.pm)
    engine.insert(b"k5", b"5" * 8)
    assert _checks(engine) == (1, 0)
    # A second transaction fetches a fresh view of the same page and
    # does not walk it again.
    engine.insert(b"k6", b"6" * 8)
    engine.delete(b"k0")
    assert _checks(engine) == (1, 0)
    assert engine.store.page(leaf_no).free_list_consistent()


@pytest.mark.parametrize("scheme", ["fast", "fastplus"])
@pytest.mark.parametrize("restart", ["recover", "attach"])
def test_restart_rearms_the_free_list_check(scheme, restart):
    """``pm.crash()`` + ``recover()`` on the live engine, and a fresh
    ``attach``, both stop trusting every page's list: one scrambled
    while the power was out is rebuilt on the first touch after."""
    config, engine, leaf_no = _one_leaf_with_a_free_chunk(scheme)
    engine.pm.crash(PersistAll())
    _scramble_free_list(engine, leaf_no)
    if restart == "recover":
        engine.recover()
    else:
        engine = engine_class(scheme).attach(config, engine.pm)
    before = _checks(engine)
    engine.insert(b"k7", b"7" * 24)
    assert _checks(engine) == (before[0] + 1, before[1] + 1)
    assert engine.store.page(leaf_no).free_list_consistent()
    assert engine.verify() == 5
    engine.insert(b"k8", b"8" * 24)
    assert _checks(engine) == (before[0] + 1, before[1] + 1)


def test_nvwal_frame_revalidates_after_eviction_and_reload():
    config = dataclasses.replace(
        small_config(scheme="nvwal"), dram_bytes=8 * 512,
    )
    engine = open_engine(config)
    for i in range(60):
        engine.insert(b"n%03d" % i, b"v" * 60)
    assert len(engine.reachable_pages()) > 2 * engine.cache.nframes
    engine.insert(b"n000", b"w" * 60, replace=True)
    resident = _checks(engine)
    # Same frame, next transaction: validated already.
    engine.insert(b"n000", b"x" * 60, replace=True)
    assert _checks(engine) == resident
    # A scan cycles every leaf through the eight frames, evicting the
    # first leaf's; its reload is a new frame load.
    assert dict(engine.scan())[b"n000"] == b"x" * 60
    engine.insert(b"n000", b"y" * 60, replace=True)
    assert _checks(engine) == (resident[0] + 1, resident[1])


def test_nvwal_repair_free_lists_touches_nothing():
    """NVWAL's repair is a no-op: a frame's free list comes from the
    committed page image, and a rebuild the WAL never saw would leave
    the frame out of step with its deltas.  No store, no charge."""
    engine = open_engine(small_config(scheme="nvwal"))
    for i in range(60):
        engine.insert(b"%03d" % i, b"v%d" % i)
    for i in range(0, 60, 3):
        engine.delete(b"%03d" % i)
    before = (engine.clock.now_ns, engine.registry.counters())
    engine.repair_free_lists()
    assert (engine.clock.now_ns, engine.registry.counters()) == before
    assert engine.verify() == 40
