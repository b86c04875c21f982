"""Crash injection through the multi-client scheduler.

The single-client crash sweeps (tests/core/test_crash_consistency.py)
prove each scheme survives a crash at any memory event.  These tests
interleave N clients through the deterministic scheduler first, so the
crash lands mid-interleaving: recovery must still yield exactly the
committed transactions, replayed in commit order, plus at most the one
item the running client had in flight.
"""

import random

import pytest

from repro.bench.multiclient import client_workload
from repro.core import SystemConfig, TransactionError
from repro.pm.crash import DropAll, PersistAll, RandomPersist
from repro.testing.crashsim import ScheduledRun, crash_at, crash_sweep, failing
from repro.testing.invariants import PageInvariantChecker

SCHEMES = ("fast", "fastplus", "nvwal")
#: The schemes that serve read-only snapshot clients.
MVCC_SCHEMES = ("fast", "fastplus")


def _workloads():
    """Two clients with overlapping keys, one read-only-ish client."""
    w1 = [
        ("txn", [
            ("insert", b"a%02d" % i, b"x" * 24),
            ("insert", b"shared%02d" % i, b"from-c0"),
        ])
        for i in range(4)
    ]
    w2 = [
        ("txn", [
            ("insert", b"shared%02d" % i, b"from-c1"),
            ("delete", b"a%02d" % i, None),
        ])
        for i in range(3)
    ]
    w3 = [("insert", b"b%02d" % i, b"z" * 16) for i in range(4)]
    return [w1, w2, w3]


def _event_total(scheme, workloads):
    """Armed memory events in the uncrashed scheduled run."""
    return crash_at(ScheduledRun(scheme, workloads), None).events


class TestScheduledCrashPoints:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_crash_points_exist(self, scheme):
        total = _event_total(scheme, _workloads())
        assert total > 20

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_single_midpoint_crash_recovers(self, scheme):
        total = _event_total(scheme, _workloads())
        result = crash_at(ScheduledRun(scheme, _workloads()), total // 2)
        assert result.crashed
        assert result.ok, result.violations

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_overlong_budget_runs_to_completion(self, scheme):
        total = _event_total(scheme, _workloads())
        result = crash_at(ScheduledRun(scheme, _workloads()), total + 1000)
        assert not result.crashed
        assert result.ok, result.violations

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_sweep_finds_no_violations(self, scheme):
        # Stride keeps this a smoke-level sweep; the exhaustive version
        # runs in CI as a ScheduledRun crash_sweep with stride=1.
        failures = failing(crash_sweep(
            ScheduledRun(scheme, _workloads()), stride=9, seeds=(0,),
        ))
        assert failures == [], failures[:3]


class TestScheduledCrashDeterminism:
    def test_same_budget_same_outcome(self):
        a = crash_at(ScheduledRun("fast", _workloads()), 33)
        b = crash_at(ScheduledRun("fast", _workloads()), 33)
        assert a.crashed == b.crashed
        assert a.committed == b.committed
        assert a.recovered == b.recovered
        assert a.inflight == b.inflight


class TestGroupedContendedCrashSweep:
    """Group commit under contention: eight ``client_workload`` clients
    over 40 hot keys, so lock conflicts and deadlocks abort
    transactions and their rollbacks rebuild free lists *inside* open
    epochs — what the single-client, write-only grouped sweeps in
    ``test_group_commit.py`` never do.  The commit order is full of
    items that never joined an epoch (half the items are reads), which
    is what ``_group_candidates`` has to count around.  Sampled crash
    points x the two extreme writeback orders and two random ones;
    two cells also run under the per-step page invariant checker."""

    @pytest.mark.parametrize("scheme,group_size,armed", [
        ("fast", 4, True), ("fast", 8, False),
        ("fastplus", 4, False), ("fastplus", 8, True),
    ])
    def test_sampled_sweep_finds_no_violations(self, scheme, group_size,
                                               armed):
        config = SystemConfig(
            group_commit_size=group_size, npages=64, page_size=512,
            log_bytes=32768, heap_bytes=1 << 20, dram_bytes=64 * 512,
        )
        workloads = [
            client_workload(index, items=25, key_space=40, seed=7)
            for index in range(8)
        ]
        policies = [
            DropAll(), PersistAll(),
            RandomPersist(rng=random.Random(1)),
            RandomPersist(rng=random.Random(2)),
        ]
        failures = failing(crash_sweep(
            ScheduledRun(scheme, workloads),
            config=config,
            policies=policies,
            max_points=4,
            checker_factory=PageInvariantChecker if armed else None,
        ))
        assert failures == [], [
            (budget, result.violations[:2]) for budget, result in failures[:3]
        ]


def _mvcc_workloads():
    """Two conflicting writers plus a lock-free MVCC reader client.

    The reader keeps snapshots pinned across the run, so version
    chains are live at (almost) every crash point — recovery must
    still yield exactly the committed prefix, with the volatile
    chains discarded.
    """
    w1, w2, _ = _workloads()
    reads = [("search", b"shared%02d" % (i % 3), None) for i in range(6)]
    return [w1, w2, {"items": reads, "isolation": "read_only"}]


class TestScheduledCrashWithReaders:
    @pytest.mark.parametrize("scheme", MVCC_SCHEMES)
    def test_midpoint_crash_recovers(self, scheme):
        total = _event_total(scheme, _mvcc_workloads())
        result = crash_at(ScheduledRun(scheme, _mvcc_workloads()), total // 2)
        assert result.crashed
        assert result.ok, result.violations

    @pytest.mark.parametrize("scheme", MVCC_SCHEMES)
    def test_sweep_finds_no_violations(self, scheme):
        failures = failing(crash_sweep(
            ScheduledRun(scheme, _mvcc_workloads()), stride=11, seeds=(0,),
        ))
        assert failures == [], failures[:3]

    def test_nvwal_refuses_a_read_only_client(self):
        with pytest.raises(TransactionError, match="'nvwal'.*'read_only'"):
            crash_at(ScheduledRun("nvwal", _mvcc_workloads()), 1)

    def test_recovery_discards_version_chains(self):
        # Version chains are volatile metadata over persistent
        # pre-images: crash while a reader pins retained versions and
        # the recovered engine starts with no version state at all —
        # nothing is replayed, nothing leaks.
        import random

        from repro.core import SystemConfig, engine_class
        from repro.pm.crash import RandomPersist
        from repro.testing.crashsim import CrashablePM

        config = SystemConfig(
            npages=128, page_size=512, log_bytes=16384,
            heap_bytes=1 << 20, dram_bytes=64 * 512, scheme="fast",
        )
        cls = engine_class("fast")
        pm = CrashablePM.for_config(config)
        engine = cls.create(config, pm=pm)
        engine.insert(b"k", b"v0")
        reader = engine.session("r", isolation="read_only")
        rtxn = reader.transaction()
        assert rtxn.search(b"k") == b"v0"
        with engine.session("w") as writer:
            for i in range(3):
                writer.insert(b"k", b"v%d" % (i + 1), replace=True)
        assert engine.version_manager.versions_live() > 0
        assert rtxn.search(b"k") == b"v0"

        pm.crash(RandomPersist(rng=random.Random(0)))
        recovered = cls.attach(config, pm)
        # Rebuilt empty: the version manager is not even constructed.
        assert recovered._versions is None
        assert dict(recovered.scan())[b"k"] == b"v3"
        # And a fresh snapshot over the recovered engine works, seeing
        # only the committed state.
        with recovered.session("r2", isolation="read_only") as reader2:
            txn = reader2.transaction()
            assert txn.search(b"k") == b"v3"
            txn.commit()
        assert recovered.version_manager.versions_live() == 0
