"""Crash consistency through the SQL layer, at hand-picked points.

The engine-level crash sweeps prove single-tree atomicity; these tests
crash *SQL statements* that touch several structures at once (table +
secondary index + schema tree) and check that recovery leaves them
mutually consistent — the multi-object transaction story of paper
Section 2.2's critique of single-node schemes.  Each runs through the
one crash driver: a :class:`~repro.testing.SqlRun`'s ``observe``
checks every index against its table's rows and verifies every tree,
and the recovered state must be a committed boundary of the same
statements run in ``sqlite3``.  ``tests/testing/test_structure_crashsim``
crashes a longer workload at every point.
"""

import pytest

from repro.core import SystemConfig
from repro.testing import SqlRun, crash_at, crash_sweep, failing

DDL = [
    ("CREATE TABLE t (id INTEGER PRIMARY KEY, tag TEXT, v INTEGER)", ()),
    ("CREATE INDEX by_tag ON t (tag)", ()),
]
STATEMENTS = [
    ("INSERT INTO t VALUES (?, ?, ?)", lambda i: (i, "tag%d" % (i % 3), i * 2)),
    ("INSERT INTO t VALUES (?, ?, ?)", lambda i: (i, "tag%d" % (i % 3), i * 2)),
    ("UPDATE t SET tag = 'moved' WHERE id = ?", lambda i: (max(0, i - 2),)),
    ("DELETE FROM t WHERE id = ?", lambda i: (max(0, i - 1),)),
]
#: The DDL, then 14 statements mixing inserts, updates and deletes.
WORKLOAD = DDL + [
    (STATEMENTS[i % 4][0], STATEMENTS[i % 4][1](i)) for i in range(14)
]
BACKFILL_SETUP = [DDL[0]] + [
    ("INSERT INTO t VALUES (?, ?, ?)", (i, "g%d" % (i % 4), i))
    for i in range(30)
]


def config():
    return SystemConfig(
        scheme="fast", npages=512, page_size=512, log_bytes=32768,
        heap_bytes=1 << 20, dram_bytes=64 * 512, atomic_granularity=8,
    )


def events_of(statements):
    """Armed memory events of ``statements`` run to completion."""
    result = crash_at(SqlRun("fast", statements), None, config=config())
    assert result.ok, result.violations
    return result.events


@pytest.mark.parametrize("budget", [40, 90, 150, 230])
def test_sql_crash_points_keep_index_consistent(budget):
    """A crash ``budget`` events after the DDL, in the mixed statements."""
    result = crash_at(SqlRun("fast", WORKLOAD), events_of(DDL) + budget,
                      config=config(), seed=budget * 3 + 1)
    assert result.crashed, "workload finished before the crash budget"
    assert result.ok, result.violations


def test_sql_crash_sweep_sampled():
    results = crash_sweep(SqlRun("fast", WORKLOAD), config=config(),
                          stride=35, seeds=(0,))
    assert len(results) >= 8
    assert failing(results) == [], failing(results)[:3]


def test_crash_during_create_index_backfill():
    """CREATE INDEX over existing rows is itself one transaction: a
    crash mid-backfill must leave either no index or a complete one."""
    shape = SqlRun("fast", BACKFILL_SETUP + [DDL[1]])
    results = crash_sweep(shape, config=config(), stride=120, seeds=(0,))
    setup_events = events_of(BACKFILL_SETUP)
    backfill = [point for point, _ in results if point > setup_events]
    assert len(backfill) >= 3, backfill
    assert failing(results) == [], failing(results)[:3]
