"""Crash consistency through the SQL layer.

The engine-level crash sweeps prove single-tree atomicity; these tests
crash *SQL statements* that touch several structures at once (table +
secondary index + schema tree) and verify that recovery leaves them
mutually consistent — the multi-object transaction story of paper
Section 2.2's critique of single-node schemes.
"""

import random

import pytest

from repro.core import SystemConfig
from repro.db import Database
from repro.pm.crash import RandomPersist
from repro.testing.crashsim import CrashPoint, CrashablePM, power_fail


def config():
    return SystemConfig(
        scheme="fast", npages=512, page_size=512, log_bytes=32768,
        heap_bytes=1 << 20, dram_bytes=64 * 512, atomic_granularity=8,
    )


def build(cfg):
    from repro.core import engine_class

    pm = CrashablePM.for_config(cfg)
    engine = engine_class(cfg.scheme).create(cfg, pm=pm)
    return Database(engine), pm


STATEMENTS = [
    ("INSERT INTO t VALUES (?, ?, ?)", lambda i: (i, "tag%d" % (i % 3), i * 2)),
    ("INSERT INTO t VALUES (?, ?, ?)", lambda i: (i, "tag%d" % (i % 3), i * 2)),
    ("UPDATE t SET tag = 'moved' WHERE id = ?", lambda i: (max(0, i - 2),)),
    ("DELETE FROM t WHERE id = ?", lambda i: (max(0, i - 1),)),
]


def run_sql_to_crash(budget, seed):
    cfg = config()
    db, pm = build(cfg)
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, tag TEXT, v INTEGER)")
    db.execute("CREATE INDEX by_tag ON t (tag)")
    committed = []
    crashed = False
    pm.arm({budget}, power_fail)
    try:
        for i in range(14):
            sql, make_params = STATEMENTS[i % len(STATEMENTS)]
            db.execute(sql, make_params(i))
            committed.append((sql, make_params(i)))
    except CrashPoint:
        crashed = True
    finally:
        pm.armed = False
    if not crashed:
        return None
    pm.crash(RandomPersist(rng=random.Random(seed)))
    recovered = Database.open(cfg, pm=pm)
    return recovered


def check_table_index_consistency(db):
    """Every row is indexed exactly once; every index entry has a row."""
    rows = db.query("SELECT id, tag FROM t")
    table = db.catalog.get("t")
    index = db.catalog.indexes()["by_tag"]
    from repro.db.records import decode_composite, encode_composite

    entries = [
        key for key, _ in db.engine.scan(root_slot=index.root_slot)
    ]
    expected = sorted(
        encode_composite([tag, row_id]) for row_id, tag in rows
    )
    assert sorted(entries) == expected, (
        "index/table divergence: %d entries vs %d rows" % (len(entries), len(rows))
    )
    # Structure of both trees intact.
    db.engine.verify(root_slot=table.root_slot)
    db.engine.verify(root_slot=index.root_slot)


@pytest.mark.parametrize("budget", [40, 90, 150, 230, 310, 400, 520, 640])
def test_sql_crash_points_keep_index_consistent(budget):
    recovered = run_sql_to_crash(budget, seed=budget * 3 + 1)
    if recovered is None:
        pytest.skip("workload finished before the crash budget")
    check_table_index_consistency(recovered)


def test_sql_crash_sweep_sampled():
    failures = []
    for budget in range(25, 900, 35):
        recovered = run_sql_to_crash(budget, seed=budget)
        if recovered is None:
            break
        try:
            check_table_index_consistency(recovered)
        except AssertionError as err:
            failures.append((budget, str(err)))
    assert failures == [], failures[:3]


def test_crash_during_create_index_backfill():
    """CREATE INDEX over existing rows is itself one transaction: a
    crash mid-backfill must leave either no index or a complete one."""
    cfg = config()
    db, pm = build(cfg)
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, tag TEXT, v INTEGER)")
    for i in range(30):
        db.execute("INSERT INTO t VALUES (?, ?, ?)", (i, "g%d" % (i % 4), i))
    for budget in range(50, 2000, 120):
        pm_copy = None  # each iteration rebuilds (simpler than snapshotting)
        cfg2 = config()
        db2, pm2 = build(cfg2)
        db2.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, tag TEXT, v INTEGER)")
        for i in range(30):
            db2.execute("INSERT INTO t VALUES (?, ?, ?)", (i, "g%d" % (i % 4), i))
        pm2.arm({budget}, power_fail)
        crashed = False
        try:
            db2.execute("CREATE INDEX by_tag ON t (tag)")
        except CrashPoint:
            crashed = True
        finally:
            pm2.armed = False
        if not crashed:
            break
        pm2.crash(RandomPersist(rng=random.Random(budget)))
        recovered = Database.open(cfg2, pm=pm2)
        assert recovered.query("SELECT COUNT(*) FROM t") == [(30,)]
        indexes = recovered.catalog.indexes()
        if "by_tag" in indexes:
            check_table_index_consistency(recovered)
        del pm_copy
