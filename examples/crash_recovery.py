#!/usr/bin/env python3
"""Failure atomicity under systematic power failures.

Crashes each engine at every (sampled) memory event of a workload —
stores, flushes, fences — with a randomized subset of unflushed data
surviving, then recovers and checks the ACID invariants of the paper's
Section 4.4.  The naive in-place engine demonstrates why the paper's
machinery exists: without logging or an atomic commit its slot headers
tear.

Run:  python examples/crash_recovery.py
"""

from repro.core import SystemConfig
from repro.testing import (
    SMALL_CONFIG,
    SingleRun,
    crash_at,
    crash_sweep,
    failing,
)

WORKLOAD = (
    [("insert", b"user:%04d" % i, b"profile-%04d" % i) for i in range(12)]
    + [("delete", b"user:0003", None),
       ("insert", b"user:0007", b"profile-rewritten")]
)


def config(granularity):
    return SystemConfig(atomic_granularity=granularity, **SMALL_CONFIG)


def main():
    print("Workload: %d single-op transactions (inserts, a delete, "
          "an overwrite)\n" % len(WORKLOAD))
    print("%-10s %14s %14s %12s  %s" % (
        "scheme", "atomic write", "crash points", "violations", "verdict"))
    cases = (
        ("fast", 8), ("nvwal", 8),
        ("fastplus", 64), ("fastplus", 8),
        ("naive", 8),
    )
    for scheme, granularity in cases:
        cfg = config(granularity)
        total = crash_at(SingleRun(scheme, WORKLOAD), None, config=cfg).events
        failures = failing(crash_sweep(
            SingleRun(scheme, WORKLOAD), config=cfg, stride=3,
        ))
        verdict = "survives every crash" if not failures else "CORRUPTS"
        print("%-10s %11d B %14d %12d  %s" % (
            scheme, granularity, total, len(failures), verdict))
        for budget, result in failures[:2]:
            print("             e.g. crash @%d: %s" % (
                budget, result.violations[0][:80]))
    print("\nFAST needs only 8-byte atomic writes; FAST+'s in-place "
          "commit additionally needs failure-atomic cache-line "
          "writeback (paper Section 3.2) — and naive in-place paging "
          "is unsafe, which is the paper's whole point.")


if __name__ == "__main__":
    main()
