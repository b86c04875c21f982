"""Crash injection across savepoint usage.

Savepoint partial rollback performs durable work (reversing in-place
child-pointer swaps), so power failures during and after
``rollback_to`` need the same exhaustive treatment as commits: the
transaction's final committed effect must be exactly the
prefix-plus-post-savepoint writes, or nothing.  A whole rollback is a restore to the transaction's
begin savepoint and does the same durable work: after a power failure
in or before it, the state is the one the transaction started from.
"""

import random
import sys

import pytest

from repro.core import SystemConfig, engine_class
from repro.pm.crash import PersistAll, RandomPersist
from repro.testing import SqlRun, crash_at, crash_sweep, failing
from repro.testing.crashsim import CrashablePM


def config(scheme, granularity):
    return SystemConfig(
        scheme=scheme, npages=256, page_size=512, log_bytes=32768,
        heap_bytes=1 << 20, dram_bytes=64 * 512,
        atomic_granularity=granularity,
    )


INSERT = "INSERT INTO kv VALUES (?, ?, ?)"
#: One transaction: keepers, savepoint, doomed bulk (forces splits and
#: copy-on-write), rollback to the savepoint, more keepers, commit.
SAVEPOINT_TXN = [
    ("CREATE TABLE kv (id INTEGER PRIMARY KEY, k TEXT, v TEXT)", ()),
    ("BEGIN", ()),
    *[(INSERT, (i, "keep%03d" % i, "k" * 30)) for i in range(8)],
    ("SAVEPOINT doomed", ()),
    *[(INSERT, (100 + i, "doom%03d" % i, "d" * 30)) for i in range(40)],
    ("ROLLBACK TO doomed", ()),
    *[(INSERT, (i, "keep%03d" % i, "k" * 30)) for i in range(8, 12)],
    ("COMMIT", ()),
]
KEEPERS = {("kv", i): (i, "keep%03d" % i, "k" * 30)
           for i in range(12)}


@pytest.mark.parametrize("scheme,granularity", [
    ("fast", 8), ("fastplus", 64), ("nvwal", 8),
])
def test_savepoint_txn_crash_sweep(scheme, granularity):
    """Every crash recovers all 12 keepers or none, and no doomed row."""
    # NVWAL does most savepoint work in DRAM, so it exposes far fewer
    # PM crash points than the PM-resident schemes; sweep densely.
    stride = 11 if scheme == "nvwal" else 37
    results = crash_sweep(SqlRun(scheme, SAVEPOINT_TXN), stride=stride,
                          seeds=(0,), config=config(scheme, granularity))
    assert len(results) > 5, "sweep ended too early (%d runs)" % len(results)
    assert failing(results) == [], failing(results)[:3]


@pytest.mark.parametrize("scheme,granularity", [
    ("fast", 8), ("fastplus", 64), ("nvwal", 8),
])
def test_savepoint_txn_completes_clean(scheme, granularity):
    result = crash_at(SqlRun(scheme, SAVEPOINT_TXN), None,
                      config=config(scheme, granularity))
    assert not result.crashed and result.ok, result.violations
    rows = {key: row for key, row in result.recovered.items()
            if key[0] == "kv"}
    assert rows == KEEPERS


@pytest.mark.parametrize("scheme", ["fast", "fastplus"])
def test_rollback_to_does_not_free_cells_the_context_still_holds(scheme):
    """An update before the savepoint leaves the *committed* old cell
    dead in the pending header and held in the context's ``reclaims``.
    ``rollback_to`` rebuilds the page's free list from the restored
    header; if it does not count that held cell live, the next insert
    is written over committed bytes — and a crash before commit (every
    line persisted, nothing ever committed) recovers a tree that lost
    the committed record and shows the uncommitted one."""
    cfg = config(scheme, 64 if scheme == "fastplus" else 8)
    engine = engine_class(scheme).create(cfg)
    for i in range(1, 8):
        engine.insert(b"k%d" % i, bytes([i]) * 30)
    committed = dict(engine.scan())
    txn = engine.transaction()
    txn.update(b"k1", b"U" * 30)
    token = txn.savepoint()
    txn.insert(b"k8", b"8" * 30)
    txn.rollback_to(token)
    txn.insert(b"k9", b"9" * 30)
    engine.pm.crash(PersistAll())
    recovered = engine_class(scheme).attach(cfg, engine.pm)
    recovered.verify()
    assert dict(recovered.scan()) == committed


def fragmented_keepers(engine):
    """Committed keepers with the dead cells of their deleted
    neighbours between them, so a copy-on-write has work to do.
    Returns the committed state."""
    for i in range(24):
        engine.insert(b"keep%03d" % i, b"k" * 30)
    for i in range(0, 24, 2):
        engine.delete(b"keep%03d" % i)
    return dict(engine.scan())


@pytest.mark.parametrize("granularity", [8, 64])
@pytest.mark.parametrize("scheme", ["fast", "fastplus"])
def test_rollback_txn_crash_sweep(scheme, granularity):
    """One transaction — doomed bulk (splits), a copy-on-write
    ``compact`` (in-place pointer swaps), a whole ``rollback()`` —
    executed once, its memory forked and crashed at every 37th event
    before the rollback and at every event of it.  Each recovers the
    state before the transaction, and so does the finished run."""
    cfg = config(scheme, granularity)
    pm = CrashablePM.for_config(cfg)
    engine = engine_class(scheme).create(cfg, pm=pm)
    before = fragmented_keepers(engine)
    rolling_back = False
    crashes = {False: 0, True: 0}

    def visit(live):
        if not rolling_back and live.events % 37 != 1:
            return
        image = live.fork()
        image.crash(RandomPersist(rng=random.Random(live.events)))
        recovered = engine_class(scheme).attach(cfg, image)
        recovered.verify()
        assert dict(recovered.scan()) == before, live.events
        crashes[rolling_back] += 1

    pm.arm(range(1, sys.maxsize), visit)
    try:
        txn = engine.transaction()
        for i in range(40):
            txn.insert(b"doom%03d" % i, b"d" * 30)
        assert engine.tree(0).compact(txn.ctx, min_waste=16)
        assert txn.ctx.pointer_swaps
        rolling_back = True
        txn.rollback()
    finally:
        pm.armed = False
    assert crashes[False] > 5 and crashes[True] > 0, crashes
    engine.verify()
    assert dict(engine.scan()) == before
    assert (len(engine.reachable_pages()) + engine.store.free_page_count()
            == cfg.npages - 1)
