"""Regression: pages freed and reused within one transaction.

A copy-on-write inside a transaction frees its source page; if that
page was allocated by the same transaction it returns to the free list
immediately and a later split may re-allocate it.  Post-commit cell
reclamation must not run through the stale page object — it used to
write free-chunk headers into the new tenant's cells (found by the
secondary-index backfill workload, which creates and heavily mutates a
whole tree inside one transaction).
"""

import pytest

from repro.core import SystemConfig, open_engine
from repro.db.records import decode_composite, encode_composite
from repro.testing import SingleRun, crash_sweep, failing


def config(scheme, granularity=64):
    return SystemConfig(
        scheme=scheme, npages=1024, page_size=1024,
        log_bytes=65536, heap_bytes=1 << 21, dram_bytes=128 * 1024,
        atomic_granularity=granularity,
    )


@pytest.mark.parametrize("scheme", ["fast", "fastplus", "nvwal"])
def test_bulk_build_tree_in_one_transaction(scheme):
    engine = open_engine(config(scheme))
    keys = sorted(encode_composite(["d%d" % (i % 5), i]) for i in range(300))
    with engine.transaction() as txn:
        txn.create_tree(1)
        for key in keys:
            txn.insert(key, b"", root_slot=1)
    assert engine.verify(root_slot=1) == 300
    scanned = [key for key, _ in engine.scan(root_slot=1)]
    assert scanned == keys
    for key in scanned:
        decode_composite(key)  # no torn bytes


@pytest.mark.parametrize("scheme", ["fast", "fastplus"])
def test_bulk_build_survives_crash_sweep(scheme):
    granularity = 64 if scheme == "fastplus" else 8
    cfg = SystemConfig(
        npages=256, page_size=512, log_bytes=32768,
        heap_bytes=1 << 20, dram_bytes=64 * 512,
        atomic_granularity=granularity,
    )
    # Single-op transactions with composite keys that split and
    # copy-on-write aggressively (mimicking index maintenance).
    workload = [
        ("insert", encode_composite(["g%d" % (i % 3), i]), b"x" * 30)
        for i in range(20)
    ]
    failures = failing(crash_sweep(
        SingleRun(scheme, workload), config=cfg, stride=6,
    ))
    assert failures == [], failures[:3]


def test_mass_update_in_one_transaction():
    """Updates force out-of-place rewrites + cow churn in one txn."""
    engine = open_engine(config("fastplus"))
    with engine.transaction() as txn:
        for i in range(120):
            txn.insert(b"%04d" % i, b"a" * 40)
    with engine.transaction() as txn:
        for i in range(120):
            txn.insert(b"%04d" % i, b"b" * 60, replace=True)
        for i in range(0, 120, 2):
            txn.delete(b"%04d" % i)
    assert engine.verify() == 60
    assert engine.search(b"0001") == b"b" * 60
    assert engine.search(b"0002") is None
