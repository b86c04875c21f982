"""Sharded pagestores: routing, cross-shard 2PC, the recovery matrix,
per-shard snapshot/GC isolation, and the lock facade."""

from zlib import crc32

import pytest

from repro.core import SystemConfig
from repro.storage.sharding import (
    SHARDABLE_SCHEMES,
    ShardRouter,
    shard_config,
    shard_span,
    total_arena_bytes,
)


def _config(**overrides):
    params = dict(
        npages=128, page_size=512, log_bytes=16384,
        heap_bytes=1 << 20, dram_bytes=64 * 512,
    )
    params.update(overrides)
    return SystemConfig(**params)


def _keys_on(shard, nshards, count, tag=b"k"):
    """``count`` distinct keys that all route to ``shard``."""
    keys = []
    i = 0
    while len(keys) < count:
        key = tag + b"%05d" % i
        if crc32(key) % nshards == shard:
            keys.append(key)
        i += 1
    return keys


class SimulatedCrash(Exception):
    """Raised by test hooks standing in for a power cut."""


def _raiser(*_args, **_kwargs):
    raise SimulatedCrash


class TestLayout:
    def test_shard_slices_do_not_overlap(self):
        config = _config()
        span = shard_span(config)
        for index in range(4):
            cfg = shard_config(config, index)
            assert cfg.store_base == index * span
            assert cfg.twopc_base + cfg.twopc_bytes == (index + 1) * span

    def test_total_arena_covers_coordinator(self):
        config = _config()
        assert total_arena_bytes(config, 3) == 3 * shard_span(config) + 64

    def test_default_config_layout_unchanged(self):
        # base_offset/twopc_bytes default to zero: the unsharded layout
        # is byte-identical to what every golden baseline was built on.
        config = _config()
        assert config.store_base == 0
        assert config.log_base == config.store_bytes
        assert config.arena_bytes == (
            config.store_bytes + config.log_bytes + config.heap_bytes
        )


class TestRouting:
    @pytest.mark.parametrize("scheme", SHARDABLE_SCHEMES)
    def test_keys_land_on_their_shard(self, scheme):
        router = ShardRouter.create(_config(), 4, scheme=scheme)
        for i in range(32):
            key = b"r%05d" % i
            router.insert(key, b"v%d" % i)
            index = router.shard_of(key)
            assert router.shards[index].search(key) == b"v%d" % i
            for other in range(4):
                if other != index:
                    assert router.shards[other].search(key) is None

    def test_merged_scan_is_sorted_and_complete(self):
        router = ShardRouter.create(_config(), 4, scheme="fast")
        keys = [b"s%05d" % i for i in range(40)]
        for key in keys:
            router.insert(key, key)
        rows = router.scan()
        assert [k for k, _v in rows] == sorted(keys)
        assert router.verify() == 40

    def test_unshardable_scheme_rejected(self):
        for scheme in ("nvwal", "naive"):
            with pytest.raises(ValueError):
                ShardRouter.create(_config(), 2, scheme=scheme)

    def test_shards_share_one_clock_and_obs(self):
        router = ShardRouter.create(_config(), 2, scheme="fast")
        assert router.shards[0].clock is router.shards[1].clock
        assert router.shards[0].obs is router.shards[1].obs is router.obs


class TestCommitProtocols:
    def test_single_shard_txn_skips_two_phase(self):
        router = ShardRouter.create(_config(), 2, scheme="fast")
        keys = _keys_on(0, 2, 3)
        with router.session("w") as session:
            with session.transaction() as txn:
                for key in keys:
                    txn.insert(key, b"x")
        for key in keys:
            assert router.search(key) == b"x"
        counters = router.obs.snapshot()["registry"]["counters"]
        assert counters.get("twopc.prepare", 0) == 0
        assert counters.get("twopc.decision", 0) == 0

    def test_cross_shard_txn_commits_via_two_phase(self):
        router = ShardRouter.create(_config(), 4, scheme="fast")
        keys = [_keys_on(index, 4, 1)[0] for index in range(4)]
        with router.session("w") as session:
            with session.transaction() as txn:
                for key in keys:
                    txn.insert(key, b"x")
                assert txn.shards_touched == [0, 1, 2, 3]
        for key in keys:
            assert router.search(key) == b"x"
        counters = router.obs.snapshot()["registry"]["counters"]
        assert counters["twopc.prepare"] == 4
        assert counters["twopc.decision"] == 1
        assert counters["twopc.commit"] == 4
        # All records cleared after a completed exchange.
        for shard in router.shards:
            assert shard.twopc.prepared() is None
        assert router.coordinator.decided_commit() is None

    def test_fastplus_participant_bypasses_in_place_commit(self):
        router = ShardRouter.create(_config(), 2, scheme="fastplus")
        k0, k1 = _keys_on(0, 2, 1)[0], _keys_on(1, 2, 1)[0]
        with router.session("w") as session:
            with session.transaction() as txn:
                txn.insert(k0, b"x")
                txn.insert(k1, b"y")
        counters = router.obs.snapshot()["registry"]["counters"]
        assert counters["twopc.prepare"] == 2
        assert router.search(k0) == b"x" and router.search(k1) == b"y"

    def test_cross_shard_rollback_leaves_nothing(self):
        router = ShardRouter.create(_config(), 2, scheme="fast")
        k0, k1 = _keys_on(0, 2, 1)[0], _keys_on(1, 2, 1)[0]
        with router.session("w") as session:
            txn = session.transaction()
            txn.insert(k0, b"x")
            txn.insert(k1, b"y")
            txn.rollback()
        assert router.search(k0) is None
        assert router.search(k1) is None
        assert router.verify() == 0

    def test_read_only_cross_shard_search(self):
        router = ShardRouter.create(_config(), 2, scheme="fast")
        k0, k1 = _keys_on(0, 2, 1)[0], _keys_on(1, 2, 1)[0]
        router.insert(k0, b"a")
        router.insert(k1, b"b")
        with router.session("r", isolation="read_only") as session:
            with session.transaction() as txn:
                assert txn.search(k0) == b"a"
                assert txn.search(k1) == b"b"
        # Readers take no locks, so nothing built a lock manager.
        assert router._lock_facade is None
        assert all(shard._lock_manager is None for shard in router.shards)

    @pytest.mark.parametrize("scheme", ["fast", "fastplus"])
    def test_grouped_decision_settles_before_the_word_is_reused(self, scheme):
        """Under group commit a 2PC decision rides its participants'
        open epochs, so ``_settle_twopc`` closes those epochs and clears
        the decision word before the next decision is persisted.  One
        client runs three cross-shard transactions on a two-shard router
        at G=8: the second and third decisions each settle the one
        before, and the completed run passes the crash driver's check."""
        from repro.testing.crashsim import SMALL_CONFIG, crash_at
        from repro.wal.twopc import _OFF_WORD

        decisions = []
        settles = []

        class DecisionSpy:
            """Rides the run as its checker.  At every decision it notes
            the durable decision word and how many epoch members still
            wait for the previous decision's clear; it counts the
            settles that had a decision to settle."""

            def __init__(self, router):
                decide, settle = router.coordinator.decide_commit, \
                    router._settle_twopc
                word = router.coordinator.base + _OFF_WORD

                def decide_commit(gtid, fence=True):
                    waiting = sum(
                        1 for shard in router.shards
                        for member in shard.group.members
                        if member.get("twopc_clear")
                    )
                    decisions.append((router.pm.durable_bytes(word, 8),
                                      waiting))
                    decide(gtid, fence)

                def settle_twopc():
                    settles.append(router._twopc_settled)
                    settle()

                router.coordinator.decide_commit = decide_commit
                router._settle_twopc = settle_twopc

            def advance(self):
                pass

            close = advance

            def finish(self):
                return []

        shape = _settle_shape(scheme)
        result = crash_at(
            shape, None, checker_factory=DecisionSpy,
            config=SystemConfig(**SMALL_CONFIG, group_commit_size=8),
        )
        assert result.ok, result.violations
        assert settles == [True, False, False]
        assert decisions == [(bytes(8), 0)] * 3
        router = shape.engine
        assert router.coordinator.decided_commit() is None
        assert all(shard.twopc.prepared() is None for shard in router.shards)

    @pytest.mark.parametrize("scheme", ["fast", "fastplus"])
    def test_grouped_sharded_sweep_refuses_open_epochs(self, scheme):
        """The crash driver models one engine's open epoch, not a
        router's per-shard epochs.  A stride-1 sweep of the grouped
        settle shape therefore raises at the first point where a shard
        holds open members, instead of reporting them as lost; the
        completed run, whose epochs are drained, still passes."""
        from repro.testing.crashsim import SMALL_CONFIG, crash_at, crash_sweep

        config = SystemConfig(**SMALL_CONFIG, group_commit_size=8)
        with pytest.raises(NotImplementedError, match="open group-commit"):
            crash_sweep(_settle_shape(scheme), config=config)
        result = crash_at(_settle_shape(scheme), None, config=config)
        assert result.ok, result.violations


def _settle_shape(scheme):
    """One client, three cross-shard transactions on a two-shard
    router: each writes one key on shard 0 and one on shard 1."""
    from repro.testing.crashsim import ShardedRun

    value = bytes(24)
    assert {crc32(b"c%02d" % i) % 2 for i in range(3)} == {0}
    assert {crc32(b"c%02d" % i) % 2 for i in range(4, 7)} == {1}
    return ShardedRun(scheme, [[
        ("txn", [("insert", b"c%02d" % i, value),
                 ("insert", b"c%02d" % (i + 4), value)])
        for i in range(3)
    ]], 2)


class TestRecoveryMatrix:
    """Each row of the presumed-abort recovery matrix, driven by
    failing the commit path at the exact protocol step."""

    def _cross_txn(self, router, value=b"v"):
        k0, k1 = _keys_on(0, 2, 1, b"m")[0], _keys_on(1, 2, 1, b"m")[0]
        session = router.session("w")
        txn = session.transaction()
        txn.insert(k0, value)
        txn.insert(k1, value)
        return session, txn, k0, k1

    def test_prepared_without_decision_presumed_abort(self):
        config = _config()
        router = ShardRouter.create(config, 2, scheme="fast")
        session, txn, k0, k1 = self._cross_txn(router)
        router.coordinator.decide_commit = _raiser  # crash pre-decision
        with pytest.raises(SimulatedCrash):
            txn.commit()
        for shard in router.shards:
            assert shard.twopc.prepared() is not None  # in doubt
        recovered = ShardRouter.attach(config, 2, router.pm, scheme="fast")
        assert recovered.search(k0) is None
        assert recovered.search(k1) is None
        assert recovered.verify() == 0
        counters = recovered.obs.snapshot()["registry"]["counters"]
        assert counters["twopc.resolve.abort"] == 2
        for shard in recovered.shards:
            assert shard.twopc.prepared() is None

    def test_decided_commit_resolves_all_shards(self):
        config = _config()
        router = ShardRouter.create(config, 2, scheme="fast")
        session, txn, k0, k1 = self._cross_txn(router)
        # Crash after the decision persisted, before any commit mark.
        router.shards[0].commit_prepared = _raiser
        with pytest.raises(SimulatedCrash):
            txn.commit()
        assert router.coordinator.decided_commit() is not None
        recovered = ShardRouter.attach(config, 2, router.pm, scheme="fast")
        assert recovered.search(k0) == b"v"
        assert recovered.search(k1) == b"v"
        counters = recovered.obs.snapshot()["registry"]["counters"]
        assert counters["twopc.resolve.commit"] == 2
        assert recovered.coordinator.decided_commit() is None

    def test_partial_commit_marks_resolve_commit(self):
        config = _config()
        router = ShardRouter.create(config, 2, scheme="fast")
        session, txn, k0, k1 = self._cross_txn(router)
        # Shard 0 commits; the crash hits before shard 1's mark.
        router.shards[1].commit_prepared = _raiser
        with pytest.raises(SimulatedCrash):
            txn.commit()
        recovered = ShardRouter.attach(config, 2, router.pm, scheme="fast")
        assert recovered.search(k0) == b"v"
        assert recovered.search(k1) == b"v"  # all-or-nothing: both land
        counters = recovered.obs.snapshot()["registry"]["counters"]
        assert counters["twopc.resolve.commit"] == 1

    def test_stale_prepare_record_after_mark_is_cleared(self):
        config = _config()
        router = ShardRouter.create(config, 2, scheme="fast")
        session, txn, k0, k1 = self._cross_txn(router)
        # Crash between shard 1's commit mark and its record clear.
        router.shards[1].twopc.clear = _raiser
        with pytest.raises(SimulatedCrash):
            txn.commit()
        assert router.shards[1].twopc.prepared() is not None
        recovered = ShardRouter.attach(config, 2, router.pm, scheme="fast")
        assert recovered.search(k0) == b"v"
        assert recovered.search(k1) == b"v"
        counters = recovered.obs.snapshot()["registry"]["counters"]
        # The mark already decided: no in-doubt resolution needed.
        assert counters.get("twopc.resolve.commit", 0) == 0
        assert counters.get("twopc.resolve.abort", 0) == 0
        for shard in recovered.shards:
            assert shard.twopc.prepared() is None

    def test_failed_prepare_aborts_already_prepared_legs(self):
        config = _config()
        router = ShardRouter.create(config, 2, scheme="fast")
        session, txn, k0, k1 = self._cross_txn(router)
        router.shards[1].prepare_commit = _raiser  # second leg fails
        with pytest.raises(SimulatedCrash):
            txn.commit()
        # Shard 0's prepare was rolled back in place — no reboot needed.
        assert router.shards[0].twopc.prepared() is None
        assert router.coordinator.decided_commit() is None
        recovered = ShardRouter.attach(config, 2, router.pm, scheme="fast")
        assert recovered.search(k0) is None
        assert recovered.search(k1) is None

    def test_clean_attach_after_completed_exchange(self):
        config = _config()
        router = ShardRouter.create(config, 2, scheme="fast")
        session, txn, k0, k1 = self._cross_txn(router)
        txn.commit()
        session.close()
        recovered = ShardRouter.attach(config, 2, router.pm, scheme="fast")
        assert recovered.search(k0) == b"v"
        assert recovered.search(k1) == b"v"
        counters = recovered.obs.snapshot()["registry"]["counters"]
        assert counters.get("twopc.resolve.commit", 0) == 0
        assert counters.get("twopc.resolve.abort", 0) == 0


class TestPerShardSnapshots:
    def test_snapshot_pins_only_touched_shards(self):
        router = ShardRouter.create(_config(), 2, scheme="fast")
        k0, k1 = _keys_on(0, 2, 1)[0], _keys_on(1, 2, 1)[0]
        router.insert(k0, b"old")
        router.insert(k1, b"old")
        with router.session("r", isolation="read_only") as session:
            txn = session.transaction()
            assert txn.search(k0) == b"old"  # pins shard 0 only
            assert router.shards[0].version_manager.capture_active
            assert not router.shards[1].version_manager.capture_active
            txn.commit()

    def test_one_shards_snapshot_does_not_retain_other_shards(self):
        """Satellite regression: a long-lived snapshot on shard 0 must
        not make shard 1 stamp commits or retain pre-images."""
        router = ShardRouter.create(_config(), 2, scheme="fast")
        k0 = _keys_on(0, 2, 1)[0]
        keys1 = _keys_on(1, 2, 8)
        router.insert(k0, b"old")
        for key in keys1:
            router.insert(key, b"old")
        with router.session("r", isolation="read_only") as reader:
            txn = reader.transaction()
            assert txn.search(k0) == b"old"
            # Churn shard 1 while shard 0's snapshot stays pinned.
            with router.session("w") as writer:
                for round_no in range(3):
                    for key in keys1:
                        writer.insert(key, b"new%d" % round_no, replace=True)
            assert router.shards[1].version_manager.versions_live() == 0
            # The pinned shard still serves its snapshot value...
            router.insert(k0, b"new", replace=True)
            assert txn.search(k0) == b"old"
            txn.commit()
        # ...and unpinning drains shard 0's chains too.
        assert router.shards[0].version_manager.versions_live() == 0

    def test_per_shard_gc_runs_under_foreign_snapshot(self):
        router = ShardRouter.create(_config(), 2, scheme="fast")
        k0 = _keys_on(0, 2, 1)[0]
        for key in _keys_on(1, 2, 12):
            router.insert(key, bytes(64))
        router.insert(k0, b"x")
        with router.session("r", isolation="read_only") as reader:
            txn = reader.transaction()
            txn.search(k0)  # pin shard 0
            # GC fans out per shard; shard 1 is unpinned and collects
            # with an empty protection set.
            router.garbage_collect()
            assert router.verify() == 13
            txn.commit()


class TestLockFacade:
    def test_disjoint_shards_use_distinct_managers(self):
        router = ShardRouter.create(_config(), 2, scheme="fast")
        k0, k1 = _keys_on(0, 2, 1)[0], _keys_on(1, 2, 1)[0]
        s0, s1 = router.session("a"), router.session("b")
        t0, t1 = s0.transaction(), s1.transaction()
        t0.insert(k0, b"x")
        t1.insert(k1, b"y")  # no conflict: different shards
        m0 = router.shards[0]._lock_manager
        m1 = router.shards[1]._lock_manager
        assert m0 is not None and m1 is not None and m0 is not m1
        t0.commit()
        t1.commit()
        s0.close()
        s1.close()
        assert router.search(k0) == b"x" and router.search(k1) == b"y"

    def test_release_all_spans_every_shard(self):
        router = ShardRouter.create(_config(), 2, scheme="fast")
        k0, k1 = _keys_on(0, 2, 1)[0], _keys_on(1, 2, 1)[0]
        session = router.session("w")
        txn = session.transaction()
        txn.insert(k0, b"x")
        txn.insert(k1, b"y")
        assert router.lock_manager.release_all(session.sid) > 0
        # Idempotent once everything is gone.
        assert router.lock_manager.release_all(session.sid) == 0
        txn.rollback()
        session.close()

    def test_wait_edges_merge_across_shards(self):
        router = ShardRouter.create(_config(), 2, scheme="fast")
        assert router.lock_manager.wait_edges() == {}
        assert router.lock_manager.find_deadlock(1) is None


class TestPerShardPageCaches:
    def test_cache_off_router_has_no_caches(self):
        router = ShardRouter.create(_config(), nshards=2)
        assert router.page_caches == ()

    def test_each_shard_fronts_its_own_cache(self):
        router = ShardRouter.create(
            _config(dram_cache_pages=4), nshards=2,
        )
        caches = router.page_caches
        assert len(caches) == 2
        assert len(set(map(id, caches))) == 2
        for shard, cache in zip(router.shards, caches):
            assert cache.store is shard.store

    def test_routed_reads_fill_the_owning_shards_cache(self):
        nshards = 2
        router = ShardRouter.create(
            _config(dram_cache_pages=4), nshards=nshards,
        )
        for shard_no in range(nshards):
            for key in _keys_on(shard_no, nshards, 4):
                router.insert(key, b"v" * 16)
        fills_before = router.obs.registry.counters()["cache.fill"]
        for shard_no in range(nshards):
            for key in _keys_on(shard_no, nshards, 4):
                assert router.search(key) == b"v" * 16
        assert router.obs.registry.counters()["cache.fill"] > fills_before
        assert all(len(cache) > 0 for cache in router.page_caches)

    def test_cross_shard_commit_invalidates_both_owners(self):
        nshards = 2
        router = ShardRouter.create(
            _config(dram_cache_pages=4), nshards=nshards,
        )
        key0 = _keys_on(0, nshards, 1)[0]
        key1 = _keys_on(1, nshards, 1)[0]
        router.insert(key0, b"old0" * 4)
        router.insert(key1, b"old1" * 4)
        # Warm both shards' caches with the pre-update images.
        assert router.search(key0) == b"old0" * 4
        assert router.search(key1) == b"old1" * 4
        with router.session() as session:
            with session.transaction() as txn:
                txn.update(key0, b"new0" * 4)
                txn.update(key1, b"new1" * 4)
        # The 2PC installs ran inside each owning shard's commit path,
        # so neither shard's cache may serve the pre-commit bytes.
        assert router.search(key0) == b"new0" * 4
        assert router.search(key1) == b"new1" * 4
