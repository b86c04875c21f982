"""2PC crash-sweep conformance: enumerate every crash point through
cross-shard commits — including the windows between prepare records,
the coordinator decision, and the per-shard commit marks — and require
all-shards-or-none recovery at each."""

import pytest

from repro.testing.crashsim import ShardedRun, crash_at, crash_sweep, failing

#: One client whose middle item is a cross-shard transaction — by
#: crc32, keys b"c00"/b"c04"/b"c01"/b"c05" land on shards 0/1/2/3 of 4
#: (and alternate 0/1 at 2 shards) — so a stride-1 sweep walks
#: straight through every 2PC window: each prepare record, the
#: coordinator decision, and each per-shard commit mark.
_CROSS_WORKLOAD = [[
    ("insert", b"c02", b"p"),
    ("txn", [
        ("insert", b"c00", b"a"),
        ("insert", b"c04", b"b"),
        ("insert", b"c01", b"c"),
        ("insert", b"c05", b"d"),
    ]),
    ("insert", b"c06", b"q"),
]]

_MIXED_WORKLOADS = [
    [
        ("txn", [("insert", b"w0a", b"1"), ("insert", b"w0b", b"2")]),
        ("insert", b"w0c", b"3"),
        ("txn", [("insert", b"w0d", b"4"), ("delete", b"w0a", None)]),
    ],
    [
        ("insert", b"w1a", b"5"),
        ("txn", [("insert", b"w1b", b"6"), ("insert", b"w1c", b"7")]),
        ("search", b"w0c", None),
    ],
]


class TestSweepMechanics:
    def test_crash_points_enumerable(self):
        total = crash_at(ShardedRun("fast", _CROSS_WORKLOAD, 2), None).events
        assert total > 20  # prepare/decide/commit all emit memory events

    def test_uncrashed_run_validates_clean(self):
        total = crash_at(ShardedRun("fast", _CROSS_WORKLOAD, 2), None).events
        result = crash_at(ShardedRun("fast", _CROSS_WORKLOAD, 2), total + 100)
        assert not result.crashed
        assert result.ok, result.violations

    def test_completed_run_checks_every_client_drained(self):
        """An uncrashed sharded run gets the scheduled shape's
        completed-run checks: every client committed all its items,
        each client's commit count agrees with the commit order, and
        the live state is the full committed model."""
        from repro.testing.crashsim import ShardedRun, crash_at

        shape = ShardedRun("fast", _MIXED_WORKLOADS, shards=2)
        result = crash_at(shape, None)
        assert not result.crashed
        assert result.ok, result.violations
        assert result.events > 0 and not result.inflight
        assert [c.commits for c in shape.scheduler.clients] == [3, 3]
        assert set(result.recovered) == {
            b"w0b", b"w0c", b"w0d", b"w1a", b"w1b", b"w1c",
        }
        # A client that lost a commit is reported, not passed.
        shape.scheduler.clients[1].commits -= 1
        assert shape.completed_violations() == [
            "client 'c1' committed 2 of 3 items",
            "client 'c1' commit count disagrees with commit order",
        ]

    def test_crashed_run_reports_committed_prefix(self):
        result = crash_at(ShardedRun("fast", _CROSS_WORKLOAD, 2), 5)
        assert result.crashed
        assert result.ok, result.violations


@pytest.mark.parametrize("scheme", ("fast", "fastplus"))
class TestTwoPhaseConformance:
    def test_every_crash_point_recovers_all_or_nothing(self, scheme):
        """The exhaustive enumeration (stride 1): no instant between
        the first prepare store and the final commit-mark clear may
        recover to a half-committed cross-shard transaction."""
        failures = failing(crash_sweep(
            ShardedRun(scheme, _CROSS_WORKLOAD, 2), stride=1, seeds=(0,),
        ))
        assert failures == [], [
            (budget, result.violations) for budget, result in failures[:5]
        ]

    def test_mixed_clients_survive_thinned_sweep(self, scheme):
        failures = failing(crash_sweep(
            ShardedRun(scheme, _MIXED_WORKLOADS, 2),
            stride=5,
            seeds=(0, 1),
            max_points=40,
        ))
        assert failures == [], [
            (budget, result.violations) for budget, result in failures[:5]
        ]


def test_four_shard_sweep_with_adversarial_policy():
    from repro.pm.crash import DropAll, PersistAll

    failures = failing(crash_sweep(
        ShardedRun("fast", _CROSS_WORKLOAD, 4),
        stride=3,
        policies=(PersistAll(), DropAll()),
        max_points=30,
    ))
    assert failures == []
