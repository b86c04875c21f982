"""Reverse scans and VACUUM-style compaction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SystemConfig, engine_class, open_engine
from repro.db import Database, SqlError
from tests.btree.helpers import naive_tree
from tests.core.conftest import small_config


def make_tree(npages=512, page_size=512):
    engine, ctx, tree = naive_tree(npages, page_size)
    return engine.store, ctx, tree


# ----------------------------------------------------------------------
# scan_desc
# ----------------------------------------------------------------------


def test_scan_desc_reverses_scan():
    _, ctx, tree = make_tree()
    for i in range(300):
        tree.insert(ctx, b"%05d" % i, b"v%d" % i)
    forward = list(tree.scan(ctx))
    assert list(tree.scan_desc(ctx)) == forward[::-1]


def test_scan_desc_bounds():
    _, ctx, tree = make_tree()
    for i in range(100):
        tree.insert(ctx, b"%05d" % i, b"v")
    got = [k for k, _ in tree.scan_desc(ctx, lo=b"%05d" % 10, hi=b"%05d" % 15)]
    assert got == [b"%05d" % i for i in range(15, 9, -1)]


def test_scan_desc_empty_and_open_bounds():
    _, ctx, tree = make_tree()
    assert list(tree.scan_desc(ctx)) == []
    for i in range(20):
        tree.insert(ctx, b"%03d" % i, b"v")
    assert len(list(tree.scan_desc(ctx, lo=b"015"))) == 5
    assert len(list(tree.scan_desc(ctx, hi=b"004"))) == 5


@settings(max_examples=20, deadline=None)
@given(keys=st.sets(st.integers(0, 400), max_size=80))
def test_scan_desc_matches_sorted_model(keys):
    _, ctx, tree = make_tree()
    for key_no in keys:
        tree.insert(ctx, b"%05d" % key_no, b"v")
    expected = [b"%05d" % k for k in sorted(keys, reverse=True)]
    assert [k for k, _ in tree.scan_desc(ctx)] == expected


def test_scan_desc_resolves_overflow_values():
    _, ctx, tree = make_tree()
    tree.insert(ctx, b"a", b"small")
    tree.insert(ctx, b"b", b"B" * 1500)
    assert list(tree.scan_desc(ctx)) == [(b"b", b"B" * 1500), (b"a", b"small")]


# ----------------------------------------------------------------------
# compact / VACUUM
# ----------------------------------------------------------------------


def churn(engine, n=150):
    import random

    rng = random.Random(3)
    for i in range(n):
        engine.insert(b"%04d" % i, b"x" * rng.randrange(16, 80))
    for i in range(0, n, 2):
        engine.delete(b"%04d" % i)
    for i in range(1, n, 2):
        engine.insert(b"%04d" % i, b"y" * rng.randrange(16, 80), replace=True)


@pytest.mark.parametrize("scheme", ["fast", "fastplus", "nvwal"])
def test_compact_preserves_data(scheme):
    engine = open_engine(small_config(scheme=scheme))
    churn(engine)
    before = dict(engine.scan())
    rewritten = engine.compact()
    assert rewritten > 0
    assert dict(engine.scan()) == before
    assert engine.verify() == len(before)


def test_compact_reduces_fragmentation():
    engine = open_engine(small_config(scheme="fast"))
    churn(engine)

    def total_waste():
        view = engine.read_view()
        return sum(
            page.total_free() - page.contiguous_free()
            for page in (view.page(no) for no in engine.reachable_pages())
            if page.page_type in (1, 2)
        )

    waste_before = total_waste()
    engine.compact()
    assert total_waste() < waste_before / 2


def test_compact_is_crash_safe():
    from repro.pm import DropAll

    config = small_config(scheme="fast")
    engine = open_engine(config)
    churn(engine)
    before = dict(engine.scan())
    engine.compact()
    engine.pm.crash(DropAll())
    recovered = engine_class("fast").attach(config, engine.pm)
    assert dict(recovered.scan()) == before


def test_sql_vacuum():
    db = Database.open(SystemConfig(
        scheme="fastplus", npages=1024, page_size=1024,
        log_bytes=65536, heap_bytes=1 << 21, dram_bytes=128 * 1024,
    ))
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
    for i in range(200):
        db.execute("INSERT INTO t VALUES (?, ?)", (i, "v" * (i % 60 + 1)))
    db.execute("DELETE FROM t WHERE id < 100")
    result = db.execute("VACUUM")
    assert result.rowcount >= 0
    assert db.query("SELECT COUNT(*) FROM t") == [(100,)]


def test_sql_vacuum_rejected_in_transaction():
    db = Database.open(SystemConfig(
        scheme="fast", npages=512, page_size=1024,
        log_bytes=65536, heap_bytes=1 << 21, dram_bytes=128 * 1024,
    ))
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
    db.execute("BEGIN")
    with pytest.raises(SqlError):
        db.execute("VACUUM")
    db.execute("ROLLBACK")
