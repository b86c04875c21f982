"""The OCC writer path: snapshot reads, buffered writes, commit-time
validation, and the 2PL fallback streak."""

import pytest

from repro.core import TransactionError, open_engine
from repro.core.occ import OCCConflict
from repro.core.session import OCC_MAX_VALIDATION_FAILURES
from repro.obs import trace as ev
from repro.storage.sharding import ShardRouter

from tests.core.conftest import small_config

#: The schemes that serve OCC and read-only sessions: NVWAL, the
#: paper's single-writer baseline, serves strict 2PL only.
on_occ_schemes = pytest.mark.parametrize(
    "engine", ["fast", "fastplus"], indirect=True,
)


def _delta(engine, snapshot):
    return engine.obs.since(snapshot)["registry"]["counters"]


def _rival_update(engine, key, value):
    """Commit a conflicting write through a separate 2PL session."""
    with engine.session("rival") as rival:
        with rival.transaction() as txn:
            txn.insert(key, value, replace=True)


@on_occ_schemes
class TestOccBasics:
    def test_commit_installs_writes(self, engine):
        with engine.session("o", isolation="occ") as session:
            with session.transaction() as txn:
                txn.insert(b"k", b"v1")
        assert engine.search(b"k") == b"v1"
        counters = engine.obs.snapshot()["registry"]["counters"]
        assert counters["occ.begin"] == 1
        assert counters["occ.validation"] == 1
        assert counters["occ.commit"] == 1

    def test_reads_pin_snapshot(self, engine):
        engine.insert(b"k", b"orig")
        with engine.session("o", isolation="occ") as session:
            txn = session.transaction()
            assert txn.search(b"k") == b"orig"
            _rival_update(engine, b"other", b"x")
            # The rival's commit is invisible: reads stay at pin_ts.
            assert txn.search(b"other") is None
            assert txn.search(b"k") == b"orig"
            txn.rollback()

    def test_read_your_own_writes(self, engine):
        engine.insert(b"a", b"1")
        with engine.session("o", isolation="occ") as session:
            txn = session.transaction()
            txn.insert(b"b", b"2")
            assert txn.search(b"b") == b"2"
            assert [k for k, _v in txn.scan()] == [b"a", b"b"]
            txn.delete(b"a")
            assert txn.search(b"a") is None
            assert [k for k, _v in txn.scan()] == [b"b"]
            txn.commit()
        assert dict(engine.scan()) == {b"b": b"2"}

    def test_zero_locks_before_commit(self, engine):
        engine.insert(b"k", b"orig")
        with engine.session("o", isolation="occ") as session:
            txn = session.transaction()
            snapshot = engine.obs.snapshot()
            txn.search(b"k")
            txn.insert(b"w", b"x")
            txn.update(b"k", b"new!")
            assert _delta(engine, snapshot).get("lock.acquire", 0) == 0
            txn.commit()
            # The install is the only lock traffic the whole txn paid.
            assert _delta(engine, snapshot).get("lock.acquire", 0) > 0

    def test_read_only_occ_txn_commits_lock_free(self, engine):
        engine.insert(b"k", b"v")
        with engine.session("o", isolation="occ") as session:
            snapshot = engine.obs.snapshot()
            with session.transaction() as txn:
                assert txn.search(b"k") == b"v"
            delta = _delta(engine, snapshot)
            assert delta.get("lock.acquire", 0) == 0
            # Nothing installed, so nothing counts as an OCC commit.
            assert delta.get("occ.commit", 0) == 0

    def test_savepoint_rolls_back_buffered_writes(self, engine):
        with engine.session("o", isolation="occ") as session:
            with session.transaction() as txn:
                txn.insert(b"keep", b"1")
                token = txn.savepoint()
                txn.insert(b"drop", b"2")
                assert txn.search(b"drop") == b"2"
                txn.rollback_to(token)
                assert txn.search(b"drop") is None
        assert dict(engine.scan()) == {b"keep": b"1"}


@on_occ_schemes
class TestOccCreateTree:
    def test_create_tree_commits(self, engine):
        with engine.session("o", isolation="occ") as session:
            with session.transaction() as txn:
                txn.create_tree(1)
        assert engine.read_view().root_page_no(1)
        engine.insert(b"k", b"v", root_slot=1)
        assert engine.search(b"k", root_slot=1) == b"v"
        assert engine.search(b"k") is None

    def test_concurrent_create_of_one_slot_fails_validation(self, engine):
        """Both creates read the empty root slot; the first to commit
        moves it, so the second's read set is stale."""
        with engine.session("a", isolation="occ") as s1, \
                engine.session("b", isolation="occ") as s2:
            t1, t2 = s1.transaction(), s2.transaction()
            t1.create_tree(1)
            t2.create_tree(1)
            t1.commit()
            root = engine.read_view().root_page_no(1)
            with pytest.raises(OCCConflict):
                t2.commit()
            t2.rollback()
        assert root and engine.read_view().root_page_no(1) == root
        engine.verify()


@on_occ_schemes
class TestValidationConflict:
    def test_stale_read_aborts_commit(self, engine):
        engine.insert(b"k", b"orig")
        with engine.session("o", isolation="occ") as session:
            txn = session.transaction()
            assert txn.search(b"k") == b"orig"
            _rival_update(engine, b"k", b"dirty")
            txn.insert(b"w", b"x")
            with pytest.raises(OCCConflict):
                txn.commit()
            # The conflict leaves the transaction open for rollback.
            txn.rollback()
        assert engine.search(b"w") is None
        assert engine.search(b"k") == b"dirty"

    def test_retry_after_conflict_succeeds(self, engine):
        engine.insert(b"k", b"orig")
        with engine.session("o", isolation="occ") as session:
            txn = session.transaction()
            txn.search(b"k")
            _rival_update(engine, b"k", b"dirty")
            txn.insert(b"w", b"x")
            with pytest.raises(OCCConflict):
                txn.commit()
            txn.rollback()
            with session.transaction() as retry:
                assert retry.search(b"k") == b"dirty"
                retry.insert(b"w", b"x")
        assert engine.search(b"w") == b"x"

    def test_same_page_disjoint_keys_still_conflict(self, engine):
        # Validation is page-granular (read sets are packed page/root
        # resources): a rival commit to the same leaf invalidates a
        # read of a *different* key on that page.
        with engine.session("a", isolation="occ") as s1, \
                engine.session("b", isolation="occ") as s2:
            t1, t2 = s1.transaction(), s2.transaction()
            t1.insert(b"a", b"1")
            t2.insert(b"b", b"2")
            t1.commit()
            with pytest.raises(OCCConflict):
                t2.commit()
            t2.rollback()
        assert dict(engine.scan()) == {b"a": b"1"}

    def test_distinct_pages_both_commit(self, engine):
        # Split the tree so the two writers touch different leaves:
        # truly disjoint page sets validate and install concurrently.
        for i in range(40):
            engine.insert(b"seed%03d" % i, b"x" * 40)
        with engine.session("a", isolation="occ") as s1, \
                engine.session("b", isolation="occ") as s2:
            t1, t2 = s1.transaction(), s2.transaction()
            t1.update(b"seed001", b"y" * 40)
            t2.update(b"seed038", b"z" * 40)
            t1.commit()
            t2.commit()
        assert engine.search(b"seed001") == b"y" * 40
        assert engine.search(b"seed038") == b"z" * 40


@pytest.fixture(
    params=["fast", "fastplus", "fast-2shards", "fastplus-2shards"]
)
def host(request):
    """A plain engine per OCC-serving scheme, plus a 2-shard router
    over each: the fallback rule must mean the same on both."""
    scheme, _, sharded = request.param.partition("-")
    config = small_config(scheme=scheme)
    if sharded:
        return ShardRouter.create(config, 2)
    return open_engine(config)


def _one_key_per_shard(host):
    """One key on an engine; on a router one key per shard, so a
    transaction over all of them has a leg everywhere."""
    if not hasattr(host, "shard_of"):
        return [b"k"]
    keys = {}
    i = 0
    while len(keys) < host.nshards:
        key = b"k%d" % i
        keys.setdefault(host.shard_of(key), key)
        i += 1
    return [keys[index] for index in sorted(keys)]


class TestFallback:
    def _fail_once(self, host, session, keys, marker):
        txn = session.transaction()
        for key in keys:
            txn.search(key)
        _rival_update(host, keys[-1], marker)
        for key in keys:
            txn.insert(key, marker, replace=True)
        with pytest.raises(OCCConflict):
            txn.commit()
        txn.rollback()

    def test_fallback_after_streak_then_reset(self, host):
        keys = _one_key_per_shard(host)
        for key in keys:
            host.insert(key, b"orig")
        with host.session("o", isolation="occ") as session:
            for i in range(OCC_MAX_VALIDATION_FAILURES):
                self._fail_once(host, session, keys, b"r%d" % i)

            # Next transaction runs under classic 2PL: locks are taken
            # during the operations, before any commit — on every leg,
            # though the fallback is decided (and announced) once.
            snapshot = host.obs.snapshot()
            since_seq = host.obs.trace.seq
            txn = session.transaction()
            acquired = 0
            for key in keys:
                txn.insert(key, b"fallback", replace=True)
                delta = _delta(host, snapshot)
                assert delta.get("lock.acquire", 0) > acquired
                acquired = delta["lock.acquire"]
            assert delta.get("occ.fallback", 0) == 1
            assert delta.get("occ.begin", 0) == 0
            assert len(host.obs.trace.events(
                kind=ev.OCC_FALLBACK, since_seq=since_seq,
            )) == 1
            txn.commit()

            # The committed fallback resets the streak: optimism returns.
            snapshot = host.obs.snapshot()
            with session.transaction() as txn:
                txn.insert(b"w2", b"optimistic")
            delta = _delta(host, snapshot)
            assert delta.get("occ.begin", 0) == 1
            assert delta.get("occ.fallback", 0) == 0
        for key in keys:
            assert host.search(key) == b"fallback"
        assert host.search(b"w2") == b"optimistic"


class TestImplicitTransactionGuard:
    """Regression: ``engine.transaction()`` bypasses the lock manager,
    so it must refuse to overlap any open writer-session transaction."""

    def test_overlap_with_locked_session_raises(self, engine):
        with engine.session("w") as session:
            txn = session.transaction()
            txn.insert(b"k", b"v")
            with pytest.raises(TransactionError):
                engine.transaction()
            txn.rollback()

    @on_occ_schemes
    def test_overlap_with_occ_session_raises(self, engine):
        with engine.session("o", isolation="occ") as session:
            txn = session.transaction()
            txn.insert(b"k", b"v")
            with pytest.raises(TransactionError):
                engine.transaction()
            txn.rollback()

    @on_occ_schemes
    def test_read_only_session_is_exempt(self, engine):
        engine.insert(b"k", b"v")
        with engine.session("r", isolation="read_only") as session:
            txn = session.transaction()
            assert txn.search(b"k") == b"v"
            with engine.transaction() as implicit:
                implicit.insert(b"k2", b"v2")
            txn.rollback()
        assert engine.search(b"k2") == b"v2"

    def test_allowed_again_after_commit(self, engine):
        with engine.session("w") as session:
            with session.transaction() as txn:
                txn.insert(b"k", b"v")
            with engine.transaction() as implicit:
                implicit.insert(b"k2", b"v2")
        assert engine.search(b"k2") == b"v2"


class TestGroupedOcc:
    def test_occ_commits_join_epochs(self):
        config = small_config(
            scheme="fast", group_commit_size=2,
        )
        engine = open_engine(config, scheme="fast")
        with engine.session("o", isolation="occ") as session:
            with session.transaction() as txn:
                txn.insert(b"a", b"1")
            assert session.commit_durable is False
            with session.transaction() as txn:
                txn.insert(b"b", b"2")
            engine.drain_group_commit()
            assert session.commit_durable is True
        counters = engine.obs.snapshot()["registry"]["counters"]
        assert counters["occ.commit"] == 2
        assert counters["group.join"] >= 2
        assert dict(engine.scan()) == {b"a": b"1", b"b": b"2"}


class TestEngineApiValidation:
    def test_unknown_isolation_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.session("x", isolation="serializable")
