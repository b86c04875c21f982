"""Engine-level behavioural tests (all durable schemes)."""

import pytest

from repro.core import (
    SystemConfig,
    TransactionError,
    engine_class,
    open_engine,
)
from tests.core.conftest import small_config


# ----------------------------------------------------------------------
# Basic CRUD through transactions
# ----------------------------------------------------------------------


def test_insert_search(engine):
    engine.insert(b"alpha", b"1")
    assert engine.search(b"alpha") == b"1"
    assert engine.search(b"beta") is None


def test_multi_op_transaction(engine):
    with engine.transaction() as txn:
        for i in range(10):
            txn.insert(b"k%02d" % i, b"v%d" % i)
    assert engine.verify() == 10


def test_transaction_sees_own_writes(engine):
    with engine.transaction() as txn:
        txn.insert(b"mine", b"pending")
        assert txn.search(b"mine") == b"pending"
    assert engine.search(b"mine") == b"pending"


def test_rollback_discards_changes(engine):
    engine.insert(b"keep", b"1")
    txn = engine.transaction()
    txn.insert(b"drop", b"2")
    txn.rollback()
    assert engine.search(b"keep") == b"1"
    assert engine.search(b"drop") is None
    assert engine.verify() == 1


def test_exception_rolls_back(engine):
    with pytest.raises(RuntimeError):
        with engine.transaction() as txn:
            txn.insert(b"ghost", b"x")
            raise RuntimeError("boom")
    assert engine.search(b"ghost") is None


def test_update_and_delete(engine):
    engine.insert(b"k", b"old")
    with engine.transaction() as txn:
        assert txn.update(b"k", b"new")
    assert engine.search(b"k") == b"new"
    assert engine.delete(b"k")
    assert engine.search(b"k") is None


def test_nested_transaction_rejected(engine):
    txn = engine.transaction()
    with pytest.raises(TransactionError):
        engine.transaction()
    txn.rollback()


def test_closed_transaction_rejected(engine):
    txn = engine.transaction()
    txn.commit()
    with pytest.raises(TransactionError):
        txn.insert(b"x", b"y")


def test_bulk_inserts_with_splits(engine):
    n = 400
    for i in range(n):
        engine.insert(b"%06d" % i, b"value-%d" % i)
    assert engine.verify() == n
    assert engine.search(b"%06d" % (n // 2)) == b"value-%d" % (n // 2)


def test_scan_ordering(engine):
    import random

    keys = [b"%05d" % i for i in range(120)]
    shuffled = keys[:]
    random.Random(3).shuffle(shuffled)
    for k in shuffled:
        engine.insert(k, b"v")
    assert [k for k, _ in engine.scan()] == keys


def test_multiple_trees(engine):
    with engine.transaction() as txn:
        txn.create_tree(1)
    engine.insert(b"a", b"tree0", root_slot=0)
    engine.insert(b"a", b"tree1", root_slot=1)
    assert engine.search(b"a", root_slot=0) == b"tree0"
    assert engine.search(b"a", root_slot=1) == b"tree1"


def test_read_only_transaction_is_cheap(engine):
    engine.insert(b"x", b"1")
    flushes_before = engine.registry.value("pm.flush")
    with engine.transaction() as txn:
        assert txn.search(b"x") == b"1"
    assert engine.registry.value("pm.flush") == flushes_before


def test_simulated_time_advances(engine):
    before = engine.clock.now_ns
    engine.insert(b"t", b"v")
    assert engine.clock.now_ns > before
    assert engine.clock.elapsed("commit") > 0


# ----------------------------------------------------------------------
# Restart (clean shutdown) behaviour
# ----------------------------------------------------------------------


@pytest.mark.parametrize("scheme", ["fast", "fastplus", "nvwal"])
def test_clean_restart_preserves_data(scheme):
    config = small_config(scheme=scheme)
    engine = open_engine(config)
    for i in range(100):
        engine.insert(b"%04d" % i, b"v%d" % i)
    pm = engine.pm
    pm.crash()  # "clean" power-off: everything was fenced or replayable
    engine2 = engine_class(scheme).attach(config, pm)
    assert engine2.verify() == 100
    assert engine2.search(b"0042") == b"v42"


# ----------------------------------------------------------------------
# Scheme-specific behaviour
# ----------------------------------------------------------------------


def test_fastplus_uses_inplace_commit_for_single_inserts():
    engine = open_engine(small_config(scheme="fastplus"))
    for i in range(20):
        engine.insert(b"%04d" % i, b"v")
    assert engine.inplace_commits > 0
    assert engine.pm.obs.registry.value("rtm.commit") == engine.inplace_commits


def test_fastplus_falls_back_on_multi_page_txn():
    engine = open_engine(small_config(scheme="fastplus"))
    before = engine.logged_commits
    with engine.transaction() as txn:
        for i in range(60):  # forces splits -> multi-page
            txn.insert(b"%04d" % i, b"v" * 10)
    assert engine.logged_commits == before + 1


def test_fastplus_leaf_capacity_is_cache_line_bound():
    engine = open_engine(small_config(scheme="fastplus", page_size=4096))
    assert engine.leaf_capacity == 28


def test_fast_never_uses_rtm():
    engine = open_engine(small_config(scheme="fast"))
    for i in range(50):
        engine.insert(b"%04d" % i, b"v")
    assert engine.pm.obs.registry.value("rtm.commit") == 0


def test_fast_logs_every_write_transaction():
    engine = open_engine(small_config(scheme="fast"))
    fences_before = engine.registry.value("pm.fence")
    engine.insert(b"k", b"v")
    # log flush fence + commit-mark fence + checkpoint fence + truncate
    assert engine.registry.value("pm.fence") - fences_before >= 3


def test_nvwal_defers_database_writes_until_checkpoint():
    config = small_config(scheme="nvwal", nvwal_checkpoint_bytes=1 << 30)
    engine = open_engine(config)
    for i in range(50):
        engine.insert(b"%04d" % i, b"v")
    # Database pages still hold no committed tree (root slot unset).
    assert engine.store.root(0) == 0
    assert engine.checkpoints == 0
    engine.checkpoint()
    assert engine.store.root(0) != 0
    assert engine.verify() == 50


def test_nvwal_checkpoint_triggers_on_threshold():
    config = small_config(scheme="nvwal", nvwal_checkpoint_bytes=8 * 1024)
    engine = open_engine(config)
    for i in range(200):
        engine.insert(b"%04d" % i, b"v" * 30)
    assert engine.checkpoints > 0
    assert engine.verify() == 200


def test_nvwal_page_fetch_after_eviction():
    # Tiny DRAM cache forces evictions and WAL-reconstructing fetches.
    config = small_config(scheme="nvwal", dram_bytes=8 * 512)
    engine = open_engine(config)
    for i in range(120):
        engine.insert(b"%04d" % i, b"v%d" % i)
    assert engine.verify() == 120
    for i in range(0, 120, 13):
        assert engine.search(b"%04d" % i) == b"v%d" % i


def test_commit_flush_counts_favor_fastplus():
    """Paper Figures 8/9b: FAST⁺ issues the fewest cache-line flushes
    (measured at the paper's page size, where single-page commits
    dominate)."""
    counts = {}
    for scheme in ("fast", "fastplus", "nvwal"):
        engine = open_engine(
            small_config(scheme=scheme, page_size=4096, npages=128,
                         dram_bytes=64 * 4096)
        )
        base = engine.registry.value("pm.flush")
        for i in range(100):
            engine.insert(b"%05d" % i, b"x" * 64)
        counts[scheme] = engine.registry.value("pm.flush") - base
    assert counts["fastplus"] < counts["fast"]
    assert counts["fastplus"] < counts["nvwal"]


def test_naive_engine_has_no_rollback():
    engine = open_engine(small_config(scheme="naive"))
    engine.insert(b"a", b"1")
    txn = engine.transaction()
    txn.insert(b"b", b"2")
    with pytest.raises(NotImplementedError):
        txn.rollback()
    engine._active = None  # clean up for the fixture


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError):
        open_engine(SystemConfig(scheme="bogus"))
