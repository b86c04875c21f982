"""Crash-consistency test harness.

Runs workloads under systematic power-failure injection: each workload
executes once, its memory is forked at the N-th event of that one run
for every (sampled) N, the fork is crashed and recovered, and the ACID
invariants of paper Section 4.4 are checked — every committed
transaction durable, the in-flight transaction all-or-nothing, and the
B-tree structurally intact.  Beside the crash sweeps: the
committed-prefix oracle for a finished scheduled run
(``check_committed_prefix``) and a per-step page invariant checker
that reports the first bad state instead of the first bad symptom
(``repro.testing.invariants``).
"""

from repro.testing.crashsim import (
    SMALL_CONFIG,
    AtomicityViolation,
    CrashPoint,
    CrashablePM,
    CrashTestResult,
    ScheduledRun,
    ShardedRun,
    SingleRun,
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
    "PageInvariantChecker",
    "PageInvariantViolation",
    "ScheduledRun",
    "ShardedRun",
    "SingleRun",
    "check_committed_prefix",
    "crash_at",
    "crash_sweep",
    "failing",
    "power_fail",
]
