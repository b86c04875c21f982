"""Crash sweeps of the structures built on the slotted page — SQL tables
and indexes (``SqlRun``) and the hash index (``HashRun``) — through
the one crash driver."""

import random

import pytest

from repro.core import SystemConfig
from repro.db import Database
from repro.db.records import encode_composite
from repro.pm.crash import DropAll
from repro.testing import (SMALL_CONFIG, HashRun, SqlRun, crash_at,
                           crash_sweep, failing)

#: Each scheme at an atomic write granularity it is safe at.
CELLS = [("fast", 8), ("fastplus", 64), ("nvwal", 8)]
INSERT = "INSERT INTO t VALUES (?, ?, ?)"


def _mixed(i):
    """Insert, insert, update and delete rows inserted before."""
    return [(INSERT, (i, "tag%d" % (i % 3), i * 2))] * 2 + [
        ("UPDATE t SET tag = 'moved' WHERE id = ?", (i - 2,)),
        ("DELETE FROM t WHERE id = ?", (i - 3,)),
    ]


#: DDL, 14 mixed statements under an index, a CREATE INDEX backfilling
#: 30 rows, and a savepoint whose rolled-back inserts split a table
#: leaf and an index leaf.
SQL_STATEMENTS = [
    ("CREATE TABLE t (id INTEGER PRIMARY KEY, tag TEXT, v INTEGER)", ()),
    ("CREATE INDEX by_tag ON t (tag)", ()),
    *[_mixed(i)[i % 4] for i in range(14)],
    ("CREATE TABLE u (id INTEGER PRIMARY KEY, grp TEXT, n INTEGER)", ()),
    ("INSERT INTO u VALUES " + ", ".join(["(?, ?, ?)"] * 30),
     tuple(v for i in range(30) for v in (i, "g%d" % (i % 4), i))),
    ("CREATE INDEX by_grp ON u (grp)", ()),
    ("BEGIN", ()),
    (INSERT, (100, "kept", 1)),
    ("SAVEPOINT doomed", ()),
    *[(INSERT, (200 + i, "doomed" + "-" * 20, i)) for i in range(6)],
    ("ROLLBACK TO doomed", ()),
    ("UPDATE t SET v = v + 1 WHERE id = ?", (100,)),
    ("COMMIT", ()),
]


def _hash_items(rng):
    """120 operations over 4 buckets: inserts of 1-39 bytes, deletes,
    and replaces whose values grow with the step.  They fill a bucket's
    last page past room for a chain cell and outgrow full pages."""
    live, items = [], []
    for i in range(120):
        draw = rng.random()
        if live and draw < 0.25:
            items.append(("delete", live.pop(rng.randrange(len(live))), None))
        elif live and draw < 0.4:
            items.append(("insert", live[rng.randrange(len(live))],
                          b"r" * (10 + i // 2)))
        else:
            live.append(b"k%03d" % i)
            items.append(("insert", live[-1], b"v" * rng.randrange(1, 40)))
    return items


HASH_ITEMS = _hash_items(random.Random(7))
#: NVWAL's points recover ~7x slower: CI sweeps each, tier-1 every 7th.
HASH_STRIDE = {"nvwal": 7}


def sweep(shape, granularity, stride=1):
    results = crash_sweep(shape, stride=stride, config=SystemConfig(
        atomic_granularity=granularity, **SMALL_CONFIG))
    assert results
    return failing(results)


@pytest.mark.parametrize("scheme,granularity", CELLS)
def test_sql_run_survives_every_crash_point(scheme, granularity):
    assert sweep(SqlRun(scheme, SQL_STATEMENTS), granularity) == []


@pytest.mark.parametrize("scheme,granularity", CELLS)
def test_hash_run_survives_every_crash_point(scheme, granularity):
    shape = HashRun(scheme, HASH_ITEMS)
    assert sweep(shape, granularity, HASH_STRIDE.get(scheme, 1)) == []


def test_hash_run_catches_fastplus_without_line_atomicity():
    """FAST⁺ at 8-byte atomicity tears slot headers: known unsafe."""
    assert sweep(HashRun("fastplus", HASH_ITEMS), 8, stride=4)


def test_sql_observe_reports_a_planted_index_divergence():
    """A recovered index that lost an entry its table still has is
    reported, though every tree still verifies."""
    shape = SqlRun("fast", SQL_STATEMENTS)
    assert crash_at(shape, None).ok
    image = shape.pm.fork()
    image.crash(DropAll())
    engine = shape.attach(shape.engine.config, image)
    assert shape.observe(engine) == (shape.snapshots[-1], [])
    slot = Database(engine).catalog.indexes()["by_grp"].root_slot
    with engine.transaction() as txn:
        txn.delete(encode_composite(["g1", 5]), root_slot=slot)
    assert shape.observe(engine)[1] == ["index by_grp: 29 entries, "
                                        "table u: 30 rows"]
