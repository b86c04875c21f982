"""Crash-consistency test harness.

Runs workloads under systematic power-failure injection: the simulated
machine is crashed after the N-th memory event for every (sampled) N,
recovery is run, and the ACID invariants of paper Section 4.4 are
checked — every committed transaction durable, the in-flight
transaction all-or-nothing, and the B-tree structurally intact.
Beside the crash sweeps: the committed-prefix oracle for a finished
scheduled run (``check_committed_prefix``) and a per-step page
invariant checker that reports the first bad state instead of the
first bad symptom (``repro.testing.invariants``).
"""

from repro.testing.crashsim import (
    AtomicityViolation,
    CrashPoint,
    CrashablePM,
    CrashTestResult,
    check_committed_prefix,
    crash_points_in,
    run_crash_sweep,
    run_sharded_crash_sweep,
    run_sharded_to_crash_point,
    run_to_crash_point,
    sharded_crash_points_in,
)
from repro.testing.invariants import (
    PageInvariantChecker,
    PageInvariantViolation,
)

__all__ = [
    "AtomicityViolation",
    "CrashPoint",
    "CrashTestResult",
    "CrashablePM",
    "PageInvariantChecker",
    "PageInvariantViolation",
    "check_committed_prefix",
    "crash_points_in",
    "run_crash_sweep",
    "run_sharded_crash_sweep",
    "run_sharded_to_crash_point",
    "run_to_crash_point",
    "sharded_crash_points_in",
]
