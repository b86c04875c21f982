"""Scheduled OCC clients: mixed-isolation determinism, stride-1 crash
sweeps through grouped and sharded OCC commits, and hypothesis
equivalence of mixed schedules against serial replay in commit order."""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SystemConfig, open_engine
from repro.core.scheduler import Scheduler
from repro.storage.sharding import ShardRouter
from repro.testing.crashsim import (
    ScheduledRun,
    ShardedRun,
    crash_sweep,
    failing,
)


def _config(**overrides):
    params = dict(
        npages=128, page_size=512, log_bytes=16384,
        heap_bytes=1 << 20, dram_bytes=64 * 512, scheme="fast",
    )
    params.update(overrides)
    return SystemConfig(**params)


def _mixed_run(config=None, items=8):
    """Two OCC writers + a 2PL writer + an MVCC reader on hot keys."""
    from repro.bench.multiclient import client_workload

    config = config or _config()
    engine = open_engine(config, scheme="fast")
    for i in range(10):
        engine.insert(b"mk%05d" % i, b"seed")
    scheduler = Scheduler(engine)
    for index in (0, 1):
        scheduler.add_client(
            client_workload(index, items=items, key_space=12),
            isolation="occ",
        )
    scheduler.add_client(client_workload(2, items=items, key_space=12))
    scheduler.add_client(
        client_workload(3, items=items, read_ratio=1.0, key_space=12),
        isolation="read_only",
    )
    report = scheduler.run()
    counters = engine.obs.snapshot()["registry"]["counters"]
    events = engine.trace.events()
    return report, counters, events, dict(engine.scan())


class TestMixedSchedules:
    def test_all_items_commit(self):
        report, counters, _events, _state = _mixed_run()
        assert report["commits"] == 4 * 8
        assert counters["occ.begin"] > 0
        assert counters["occ.validation"] > 0
        assert counters["occ.commit"] > 0

    def test_byte_identical_reruns(self):
        a = _mixed_run()
        b = _mixed_run()
        assert a[0] == b[0]      # full scheduler report, commit order incl.
        assert a[1] == b[1]      # every counter, exactly
        assert a[2] == b[2]      # the entire trace event stream
        assert a[3] == b[3]

    def test_grouped_schedule_commits_everything(self):
        config = replace(_config(), group_commit_size=4)
        report, counters, _events, _state = _mixed_run(config=config)
        assert report["commits"] == 4 * 8
        assert counters["occ.commit"] > 0
        assert counters["group.close"] > 0

    def test_grouped_matches_ungrouped_state(self):
        config = replace(_config(), group_commit_size=4)
        plain = _mixed_run()
        grouped = _mixed_run(config=config)
        assert grouped[0]["commits"] == plain[0]["commits"]
        assert grouped[3] == plain[3]


class TestOccCrashSweeps:
    """Stride-1 sweeps: recovery must equal the committed prefix at
    every memory event, with OCC clients in the interleaving."""

    def _workloads(self):
        occ = [
            ("txn", [
                ("insert", b"shared%02d" % i, b"from-occ"),
                ("insert", b"o%02d" % i, b"x" * 16),
            ])
            for i in range(3)
        ]
        locked = [
            ("txn", [
                ("insert", b"shared%02d" % i, b"from-2pl"),
                ("delete", b"o%02d" % i, None),
            ])
            for i in range(2)
        ]
        return [{"items": occ, "isolation": "occ"}, locked]

    def test_scheduled_sweep_clean(self):
        failures = failing(crash_sweep(
            ScheduledRun("fast", self._workloads()), stride=1, seeds=(0,),
        ))
        assert failures == []

    def test_grouped_sweep_clean(self):
        config = replace(_config(), group_commit_size=2)
        failures = failing(crash_sweep(
            ScheduledRun("fast", self._workloads()),
            config=config,
            stride=1,
            seeds=(0,),
        ))
        assert failures == []

    def test_sharded_sweep_clean(self):
        failures = failing(crash_sweep(
            ShardedRun("fast", self._workloads(), 2), stride=1, seeds=(0,),
        ))
        assert failures == []


# -- hypothesis: mixed schedules == serial replay of the commit order --

_KEYS = [b"h%02d" % i for i in range(12)]

_ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "insert", "delete", "search"]),
        st.integers(0, len(_KEYS) - 1),
        st.binary(min_size=1, max_size=16),
    ),
    min_size=1, max_size=4,
)

_clients = st.lists(
    st.tuples(
        st.sampled_from(["locked", "occ", "occ", "read_only"]),
        st.lists(_ops, min_size=1, max_size=6),
    ),
    min_size=1, max_size=4,
)


def _items_for(isolation, raw):
    """Scheduler items for one client.  Read-only clients may only
    search, so their schedule collapses to the read positions."""
    if isolation == "read_only":
        return [
            ("search", _KEYS[key_no], None)
            for ops in raw
            for _kind, key_no, _value in ops
        ]
    return [
        ("txn", [
            (kind, _KEYS[key_no], value if kind == "insert" else None)
            for kind, key_no, value in ops
        ])
        for ops in raw
    ]


@settings(max_examples=20, deadline=None)
@given(clients=_clients, shards=st.integers(1, 4))
def test_mixed_isolation_matches_serial_replay(clients, shards):
    router = ShardRouter.create(_config(), shards, scheme="fast")
    scheduler = Scheduler(router)
    workloads = []
    for isolation, raw in clients:
        items = _items_for(isolation, raw)
        workloads.append(items)
        scheduler.add_client(items, isolation=isolation)
    scheduler.run()

    # Replay exactly the committed items, in commit order, through a
    # plain unsharded engine with the same op semantics the scheduler
    # uses (replace-inserts, tolerant deletes).
    engine = open_engine(_config(), scheme="fast")
    for name, item_idx in scheduler.commit_order:
        item = workloads[int(name[1:])][item_idx]
        ops = item[1] if item[0] == "txn" else [item]
        with engine.transaction() as txn:
            for kind, key, value in ops:
                if kind == "insert":
                    txn.insert(key, value, replace=True)
                elif kind == "delete":
                    txn.delete(key)
                else:
                    txn.search(key)

    assert dict(router.scan()) == dict(engine.scan())
    assert router.verify() == engine.verify()
