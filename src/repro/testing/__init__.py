"""Crash-consistency test harness.

Runs workloads under systematic power-failure injection: each workload
executes once, its memory is forked at the N-th event of that one run
for every (sampled) N, the fork is crashed and recovered, and the ACID
invariants of paper Section 4.4 are checked — every committed
transaction durable, the in-flight transaction all-or-nothing, and the
B-tree structurally intact.  A run that completes is checked against
the full committed model, live and after a ``DropAll`` crash of a fork
(``crash_at(shape, None)``; ``check_committed_prefix`` for a scheduled
run a test drove itself).  Beside them: a per-step page invariant checker
that reports the first bad state instead of the first bad symptom
(``repro.testing.invariants``).
"""

from repro.testing.crashsim import (
    SMALL_CONFIG,
    AtomicityViolation,
    CrashPoint,
    CrashablePM,
    CrashTestResult,
    HashRun,
    ScheduledRun,
    ShardedRun,
    SingleRun,
    SqlRun,
    check_committed_prefix,
    crash_at,
    crash_sweep,
    failing,
    power_fail,
)
from repro.testing.invariants import (
    PageInvariantChecker,
    PageInvariantViolation,
)

__all__ = [
    "SMALL_CONFIG",
    "AtomicityViolation",
    "CrashPoint",
    "CrashTestResult",
    "CrashablePM",
    "HashRun",
    "PageInvariantChecker",
    "PageInvariantViolation",
    "ScheduledRun",
    "ShardedRun",
    "SingleRun",
    "SqlRun",
    "check_committed_prefix",
    "crash_at",
    "crash_sweep",
    "failing",
    "power_fail",
]
