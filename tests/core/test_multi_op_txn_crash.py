"""Crash sweeps over composite (multi-operation) transactions.

The paper's slot-header logging exists precisely for transactions that
touch several pages: these sweeps crash multi-record transactions at
every sampled memory event and require all-or-nothing visibility of
the *whole* transaction (exact-state validation)."""

import pytest

from repro.core import SystemConfig
from repro.testing import SingleRun, crash_sweep, failing

MULTI_TXN_WORKLOAD = [
    ("txn", [("insert", b"a%02d" % i, b"x" * 30) for i in range(6)]),
    ("txn", [("insert", b"b%02d" % i, b"y" * 30) for i in range(6)]),
    ("txn", [
        ("insert", b"c00", b"z"),
        ("delete", b"a02", None),
        ("insert", b"a05", b"rewritten"),
        ("delete", b"b01", None),
    ]),
    ("txn", [("insert", b"d%02d" % i, b"w" * 40) for i in range(10)]),
]


def config(granularity):
    return SystemConfig(
        npages=128, page_size=512, log_bytes=32768,
        heap_bytes=1 << 20, dram_bytes=64 * 512,
        atomic_granularity=granularity,
    )


@pytest.mark.parametrize("scheme,granularity", [
    ("fast", 8), ("fastplus", 64), ("nvwal", 8),
])
def test_multi_op_transactions_are_atomic_under_crash(scheme, granularity):
    failures = failing(crash_sweep(
        SingleRun(scheme, MULTI_TXN_WORKLOAD),
        config=config(granularity),
        stride=3,
    ))
    assert failures == [], failures[:3]


def test_naive_engine_blends_multi_op_transactions():
    failures = failing(crash_sweep(
        SingleRun("naive", MULTI_TXN_WORKLOAD), config=config(8), stride=3,
    ))
    assert failures, "naive in-place paging cannot be transactionally atomic"
    # The failures include torn transactional state, not only
    # structural damage.
    all_violations = " ".join(
        violation for _, result in failures for violation in result.violations
    )
    assert ("durability" in all_violations or "atomicity" in all_violations
            or "phantom" in all_violations)