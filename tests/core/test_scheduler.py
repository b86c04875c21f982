"""The deterministic cooperative multi-client scheduler."""

import pytest

from repro.core import SchedulerError, TransactionError, open_engine
from repro.core.scheduler import RetriesExhausted, Scheduler
from repro.obs import trace as ev

from tests.core.conftest import small_config


def _engine(scheme="fastplus", **overrides):
    return open_engine(small_config(scheme=scheme, **overrides))


def _disjoint_workloads(nclients, items=6):
    """Per-client items on well-separated keys (little contention)."""
    out = []
    for cid in range(nclients):
        out.append([
            ("txn", [
                ("insert", b"c%d-%03d" % (cid, i), b"v%d" % i),
                ("search", b"c%d-%03d" % (cid, i), None),
            ])
            for i in range(items)
        ])
    return out


def _hot_workloads(nclients, items=8):
    """Everyone hammers the same few keys (high contention)."""
    out = []
    for cid in range(nclients):
        out.append([
            ("txn", [
                ("insert", b"hot%d" % (i % 3), b"c%d-%d" % (cid, i)),
                ("think", 500.0, None),
                ("insert", b"hot%d" % ((i + 1) % 3), b"c%d-%d" % (cid, i)),
            ])
            for i in range(items)
        ])
    return out


class TestBasicInterleaving:
    def test_all_items_commit(self, engine):
        scheduler = Scheduler(engine)
        for items in _disjoint_workloads(3):
            scheduler.add_client(items)
        report = scheduler.run()
        assert report["commits"] == 18
        assert report["clients"] == 3
        assert len(report["commit_order"]) == 18
        assert engine.verify() == 18

    def test_interleaving_is_fair_without_contention(self):
        engine = _engine()
        scheduler = Scheduler(engine)
        for items in _disjoint_workloads(3, items=4):
            scheduler.add_client(items)
        report = scheduler.run()
        # Round-robin by simulated time: the first three commits come
        # from three different clients.
        first = [name for name, _ in report["commit_order"][:3]]
        assert sorted(first) == ["c0", "c1", "c2"]

    def test_commit_order_indices_sequential_per_client(self):
        engine = _engine()
        scheduler = Scheduler(engine)
        for items in _disjoint_workloads(2, items=5):
            scheduler.add_client(items)
        report = scheduler.run()
        seen = {}
        for name, idx in report["commit_order"]:
            assert idx == seen.get(name, -1) + 1
            seen[name] = idx

    def test_simulated_time_advances(self):
        engine = _engine()
        scheduler = Scheduler(engine)
        scheduler.add_client([("insert", b"k", b"v")])
        before = engine.clock.now_ns
        report = scheduler.run()
        assert report["simulated_ns"] > before
        assert report["throughput_tps"] > 0

    def test_naive_scheme_rejected(self):
        engine = _engine("naive")
        with pytest.raises(SchedulerError):
            Scheduler(engine)

    def test_nvwal_refuses_an_occ_client(self):
        scheduler = Scheduler(_engine("nvwal"))
        with pytest.raises(TransactionError, match="'nvwal'.*'occ'"):
            scheduler.add_client([("insert", b"k", b"v")], isolation="occ")
        assert scheduler.clients == []


class TestContention:
    def test_hot_keys_conflict_and_still_commit(self, engine):
        scheduler = Scheduler(engine)
        for items in _hot_workloads(4):
            scheduler.add_client(items)
        report = scheduler.run()
        assert report["commits"] == 32
        # Contention must actually have happened for this test to mean
        # anything — waits, aborts, or deadlocks.
        counters = engine.registry.counters()
        assert counters.get("lock.conflict", 0) > 0
        assert engine.verify() == 3

    def test_deadlock_detected_and_recovered(self):
        engine = _engine()
        # Two clients locking two keys on DIFFERENT leaf pages in
        # opposite order — the classic deadlock shape.  (Keys on the
        # same page serialize on the page latch and never deadlock.)
        for i in range(40):  # split the tree into several leaves
            engine.insert(b"seed%03d" % i, b"x" * 40)
        ka, kb = b"seed000", b"seed039"
        scheduler = Scheduler(engine)
        scheduler.add_client([("txn", [
            ("insert", ka, b"a1"), ("think", 2000.0, None),
            ("insert", kb, b"a2"),
        ])])
        scheduler.add_client([("txn", [
            ("insert", kb, b"b1"), ("think", 2000.0, None),
            ("insert", ka, b"b2"),
        ])])
        report = scheduler.run()
        assert report["commits"] == 2  # both eventually commit
        assert report["deadlocks"] >= 1
        assert report["retries"] >= 1
        # Final state is one of the serial orders.
        va, vb = engine.search(ka), engine.search(kb)
        assert (va, vb) in ((b"a1", b"a2"), (b"b2", b"b1"),
                            (b"a1", b"b1"), (b"b2", b"a2"))

    def test_timeout_fires_without_livelock(self):
        engine = _engine()
        engine.insert(b"k", b"0")
        # Tiny timeout: the second client times out rather than waiting
        # out the first client's long transaction.
        scheduler = Scheduler(engine, lock_timeout_ns=1000.0)
        scheduler.add_client([("txn", [
            ("insert", b"k", b"slow"), ("think", 50000.0, None),
            ("search", b"k", None),
        ])])
        scheduler.add_client([("insert", b"k", b"fast")])
        report = scheduler.run()
        assert report["commits"] == 2
        assert report["timeouts"] >= 1

    def test_retry_budget_exhaustion_raises(self):
        engine = _engine()
        engine.insert(b"k", b"0")
        scheduler = Scheduler(engine, lock_timeout_ns=100.0,
                              retry_backoff_ns=10.0, max_retries=2)
        scheduler.add_client([("txn", [
            ("insert", b"k", b"hold"), ("think", 1e9, None),
            ("search", b"k", None),
        ])])
        scheduler.add_client([("insert", b"k", b"starved")])
        with pytest.raises(SchedulerError):
            scheduler.run()


class TestDeterminism:
    def _run(self, scheme):
        engine = _engine(scheme)
        for i in range(10):
            engine.insert(b"seed%02d" % i, b"x" * 32)
        scheduler = Scheduler(engine)
        for items in _hot_workloads(4, items=6):
            scheduler.add_client(items)
        report = scheduler.run()
        return report, engine.registry.snapshot(), engine.clock.now_ns

    @pytest.mark.parametrize("scheme", ["fast", "fastplus", "nvwal"])
    def test_byte_identical_reruns(self, scheme):
        r1, reg1, ns1 = self._run(scheme)
        r2, reg2, ns2 = self._run(scheme)
        assert ns1 == ns2
        assert r1 == r2
        assert reg1 == reg2


class TestSerializability:
    def test_final_state_matches_commit_order_replay(self, engine):
        for i in range(8):
            engine.insert(b"sk%02d" % i, b"init")
        scheduler = Scheduler(engine)
        workloads = _hot_workloads(3, items=5)
        for items in workloads:
            scheduler.add_client(items)
        report = scheduler.run()
        # Replay committed items in commit order against a dict model:
        # strict 2PL makes that the serialization order.
        items_of = {"c%d" % i: workloads[i] for i in range(3)}
        model = {b"sk%02d" % i: b"init" for i in range(8)}
        for name, idx in report["commit_order"]:
            for kind, key, value in items_of[name][idx][1]:
                if kind == "insert":
                    model[key] = value
                elif kind == "delete":
                    model.pop(key, None)
        assert dict(engine.scan()) == model


def _reader_workloads(nclients, items=6, keys=8):
    """Per-client pure-read items over a shared preloaded key space."""
    out = []
    for cid in range(nclients):
        out.append([
            ("search", b"seed%02d" % ((cid + i) % keys), None)
            for i in range(items)
        ])
    return out


class TestReadOnlyClients:
    def test_write_ops_rejected_at_add_time(self):
        engine = _engine()
        scheduler = Scheduler(engine)
        with pytest.raises(SchedulerError):
            scheduler.add_client([("insert", b"k", b"v")],
                                 isolation="read_only")

    def test_pure_reader_mix_round_robins(self):
        # Zero-length think items commit without advancing the clock,
        # so every client ties on ready_at and the fairness key
        # (ready_at, least-recently-run, index) must rotate — a client
        # that never blocks still round-robins instead of letting the
        # lowest index streak.
        engine = _engine()
        order = []
        scheduler = Scheduler(
            engine, on_step=lambda client: order.append(client.index)
        )
        for _ in range(3):
            scheduler.add_client([("think", 0.0, None)] * 4,
                                 isolation="read_only")
        scheduler.run()
        assert order == [0, 1, 2] * 4

    def test_pure_reader_mix_byte_identical_reruns(self):
        def run():
            engine = _engine()
            for i in range(8):
                engine.insert(b"seed%02d" % i, b"x" * 24)
            scheduler = Scheduler(engine)
            for items in _reader_workloads(4, items=6):
                scheduler.add_client(items, isolation="read_only")
            report = scheduler.run()
            return report, engine.registry.snapshot(), engine.clock.now_ns

        assert run() == run()

    def test_pure_reader_mix_takes_no_locks(self):
        engine = _engine()
        for i in range(8):
            engine.insert(b"seed%02d" % i, b"x" * 24)
        scheduler = Scheduler(engine)
        for items in _reader_workloads(3, items=5):
            scheduler.add_client(items, isolation="read_only")
        report = scheduler.run()
        assert report["commits"] == 15
        assert report["aborts"] == 0
        # The run never even instantiated the lock manager.
        assert engine._lock_manager is None

    def test_mixed_readers_and_writers_deterministic(self):
        def run():
            engine = _engine()
            for i in range(8):
                engine.insert(b"seed%02d" % i, b"x" * 24)
            scheduler = Scheduler(engine)
            for items in _hot_workloads(2, items=4):
                scheduler.add_client(items)
            for items in _reader_workloads(2, items=5):
                scheduler.add_client(items, isolation="read_only")
            report = scheduler.run()
            return report, engine.registry.snapshot(), engine.clock.now_ns

        assert run() == run()


class TestPickStrategy:
    """The ``pick_strategy`` scheduling hook the schedule-space
    explorer drives interleavings through."""

    def _run(self, pick_strategy, *, tracing=False):
        engine = _engine(scheme="fast")
        engine.obs.tracing(tracing)
        scheduler = Scheduler(engine, pick_strategy=pick_strategy)
        for items in _disjoint_workloads(2, items=2):
            scheduler.add_client(items)
        report = scheduler.run()
        return engine, report

    def test_default_path_emits_no_sched_pick_events(self):
        engine, report = self._run(None, tracing=True)
        assert report["commits"] == 4
        assert engine.obs.trace.events(kind=ev.SCHED_PICK) == []

    def test_first_ready_strategy_matches_default_schedule(self):
        # ``ready`` arrives pre-sorted by the default pick key, so a
        # strategy that returns ready[0] reproduces the historical
        # schedule exactly — only the SCHED_PICK stamps are new.
        _, default_report = self._run(None)
        engine, hooked_report = self._run(lambda sched, ready: ready[0],
                                          tracing=True)
        assert hooked_report["commit_order"] == default_report["commit_order"]
        picks = engine.obs.trace.events(kind=ev.SCHED_PICK)
        assert picks, "strategy path must stamp every step"

    def test_sched_pick_events_attribute_every_step(self):
        engine, _ = self._run(lambda sched, ready: ready[0], tracing=True)
        picks = engine.obs.trace.events(kind=ev.SCHED_PICK)
        assert len(picks) == engine.registry.counter("sched.step").value
        # a=sid, b=client index: a stable one-to-one mapping.
        mapping = {}
        for event in picks:
            sid, index = event[3], event[4]
            assert mapping.setdefault(sid, index) == index

    def test_custom_strategy_reorders_commits(self):
        # Prefer the highest client index at every pick: client 1
        # finishes its items before client 0 gets a turn.
        _, report = self._run(lambda sched, ready: ready[-1])
        names = [name for name, _ in report["commit_order"]]
        assert names == ["c1", "c1", "c0", "c0"]

    def test_strategy_must_return_a_ready_client(self):
        with pytest.raises(SchedulerError, match="must return a READY"):
            self._run(lambda sched, ready: None)

    def test_retry_exhaustion_raises_dedicated_subclass(self):
        engine = _engine()
        engine.insert(b"k", b"0")
        scheduler = Scheduler(engine, lock_timeout_ns=100.0,
                              retry_backoff_ns=10.0, max_retries=2)
        scheduler.add_client([("txn", [
            ("insert", b"k", b"hold"), ("think", 1e9, None),
            ("search", b"k", None),
        ])])
        scheduler.add_client([("insert", b"k", b"starved")])
        with pytest.raises(RetriesExhausted):
            scheduler.run()
