"""Crash matrix: every durable engine x every writeback policy.

``crash_sweep`` injects a power failure at every ``stride``-th armed
memory event of a mixed insert/update/delete workload and validates the
recovered database against the model (durability + atomicity +
structural integrity — the executable form of the paper's Section 4.4
case analysis).  This module sweeps that matrix across:

* the three durable schemes (fast, fastplus, nvwal);
* the extreme writeback policies (``PersistAll``: every unfenced store
  reaches PM; ``DropAll``: none do) and seeded ``RandomPersist`` mixes.

It additionally asserts the *observability* of recovery: the trace
events captured in ``CrashTestResult.recovery_events`` show replay
doing work exactly where the scheme's design says it must.
"""

import pytest

from repro.obs.trace import RECOVERY_REPLAY
from repro.pm.crash import DropAll, PersistAll
from repro.testing import SingleRun, crash_at, crash_sweep, failing

SCHEMES = ("fast", "fastplus", "nvwal")

#: Mixed single-op transactions: inserts, then updates of every other
#: key, then deletes of every third key.
WORKLOAD = (
    [("insert", b"%02d" % i, b"v%d" % i) for i in range(10)]
    + [("update", b"%02d" % i, b"u%d" % i) for i in range(0, 10, 2)]
    + [("delete", b"%02d" % i, None) for i in range(0, 10, 3)]
)


def _expected_final_state():
    model = {}
    for i in range(10):
        model[b"%02d" % i] = b"v%d" % i
    for i in range(0, 10, 2):
        model[b"%02d" % i] = b"u%d" % i
    for i in range(0, 10, 3):
        model.pop(b"%02d" % i)
    return model


@pytest.mark.parametrize("scheme", SCHEMES)
def test_no_crash_baseline(scheme):
    """budget=None: the workload completes and matches the model."""
    result = crash_at(SingleRun(scheme, WORKLOAD), None)
    assert not result.crashed
    assert result.ok, result.violations
    assert result.recovered == _expected_final_state()


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("policy", [PersistAll(), DropAll()],
                         ids=["persist-all", "drop-all"])
def test_extreme_writeback_policies(scheme, policy):
    failures = failing(crash_sweep(
        SingleRun(scheme, WORKLOAD), stride=7, policies=[policy],
    ))
    assert failures == [], [
        (budget, result.violations) for budget, result in failures[:3]
    ]


@pytest.mark.parametrize("scheme", SCHEMES)
def test_random_writeback_orderings(scheme):
    """Seeded ``RandomPersist``: arbitrary subsets of unfenced lines
    survive the failure."""
    failures = failing(crash_sweep(
        SingleRun(scheme, WORKLOAD), stride=7, seeds=(0, 1),
    ))
    assert failures == [], [
        (budget, result.violations) for budget, result in failures[:3]
    ]


# ---------------------------------------------------------------------------
# Recovery is observable: the trace shows replay working
# ---------------------------------------------------------------------------

def _replay_budgets(scheme, **sweep):
    """``(probed points, those whose recovery emitted replay events)``
    of one ``PersistAll`` sweep."""
    results = crash_sweep(
        SingleRun(scheme, WORKLOAD), policies=[PersistAll()], **sweep,
    )
    hits = []
    for budget, result in results:
        assert result.crashed
        assert result.ok, result.violations
        for event in result.recovery_events:
            assert event[2] == RECOVERY_REPLAY
        if result.recovery_events:
            hits.append(budget)
    return [budget for budget, _ in results], hits


def test_fast_replays_only_inside_the_commit_window():
    """FAST's log is empty except between a persisted commit mark and
    the truncate that follows its eager checkpoint — so only *some*
    crash points replay, but a workload-wide sweep must find them."""
    probed, hits = _replay_budgets("fast", stride=3)
    assert hits, "no crash point exercised FAST log replay"
    assert len(hits) < len(probed), "FAST log should usually be empty"


def test_fastplus_inplace_commits_leave_no_log_residue():
    """FAST+ commits these single-record transactions in place under
    RTM; the slot-header log stays empty, so recovery finds nothing to
    replay at any crash point."""
    probed, hits = _replay_budgets("fastplus", stride=3)
    assert probed and hits == []


def test_nvwal_always_replays_its_committed_frames():
    """NVWAL checkpoints lazily, so committed WAL frames accumulate and
    every post-commit crash point makes recovery walk the chain."""
    probed, hits = _replay_budgets("nvwal", max_points=4)
    # Every probed point past the first commit replays at least one frame.
    first_commit = crash_at(SingleRun("nvwal", WORKLOAD[:1]), None).events
    past = [budget for budget in probed if budget > first_commit]
    assert len(past) >= 3 and set(past) <= set(hits)
