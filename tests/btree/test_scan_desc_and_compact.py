"""VACUUM-style compaction."""

import pytest

from repro.core import SystemConfig, engine_class, open_engine
from repro.db import Database, SqlError
from tests.core.conftest import small_config


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
