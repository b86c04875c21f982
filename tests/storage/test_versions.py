"""MVCC version chains: snapshot visibility, watermark GC, zero locks.

Read-only sessions (``engine.session(isolation="read_only")``) run snapshot
transactions over :mod:`repro.storage.versions`: each pins a snapshot
timestamp at begin, resolves every page read against the latest
version with commit timestamp ≤ that pin, and acquires no locks at
all.  These tests cover the visibility rules, the watermark garbage
collector (reclaim only past the minimum active snapshot), and the
do-nothing guarantee: with no reader open, the version machinery is
never even constructed.
"""

import pytest

from repro.core import TransactionError, open_engine
from repro.obs import trace as ev

from tests.core.conftest import small_config

SCHEMES = ("fast", "fastplus", "nvwal")
#: The schemes that serve snapshot sessions (NVWAL refuses them).
SNAPSHOT_SCHEMES = ("fast", "fastplus")


@pytest.fixture(params=SNAPSHOT_SCHEMES)
def engine(request):
    return open_engine(small_config(scheme=request.param))


class TestSnapshotVisibility:
    def test_snapshot_pins_state_across_writer_commits(self, engine):
        engine.insert(b"k", b"old")
        reader = engine.session("r", isolation="read_only")
        txn = reader.transaction()
        assert txn.search(b"k") == b"old"
        with engine.session("w") as writer:
            writer.insert(b"k", b"new", replace=True)
            # The open snapshot stays pinned at its begin timestamp.
            assert txn.search(b"k") == b"old"
            txn.commit()
            # A fresh snapshot pins the new commit frontier.
            txn2 = reader.transaction()
            assert txn2.search(b"k") == b"new"
            txn2.commit()
        reader.close()

    def test_uncommitted_writes_invisible_to_snapshot(self, engine):
        engine.insert(b"k", b"old")
        with engine.session("w") as writer:
            wtxn = writer.transaction()
            wtxn.insert(b"k", b"dirty", replace=True)
            with engine.session("r", isolation="read_only") as reader:
                rtxn = reader.transaction()
                assert rtxn.search(b"k") == b"old"
                wtxn.commit()
                # Still the pre-commit image: the commit published a
                # version younger than the pinned snapshot.
                assert rtxn.search(b"k") == b"old"
                rtxn.commit()

    def test_snapshot_transactions_cannot_write(self, engine):
        engine.insert(b"k", b"v")
        with engine.session("r", isolation="read_only") as reader:
            txn = reader.transaction()
            with pytest.raises(TransactionError):
                txn.insert(b"x", b"y")
            with pytest.raises(TransactionError):
                txn.update(b"k", b"y")
            with pytest.raises(TransactionError):
                txn.delete(b"k")
            with pytest.raises(TransactionError):
                txn.create_tree(1)
            # The failed writes did not poison the snapshot.
            assert txn.search(b"k") == b"v"
            txn.commit()

    def test_readers_touch_no_lock_state(self, engine):
        engine.insert(b"k", b"v")
        with engine.session("r", isolation="read_only") as reader:
            txn = reader.transaction()
            assert txn.search(b"k") == b"v"
            txn.commit()
        # No lock manager was ever instantiated, no lock events traced —
        # zero IS/S traffic, not just zero conflicts.
        assert engine._lock_manager is None
        kinds = {record[2] for record in engine.obs.trace.events()}
        assert ev.LOCK_ACQUIRE not in kinds
        assert ev.SNAPSHOT_BEGIN in kinds
        assert ev.SNAPSHOT_READ in kinds
        assert ev.SNAPSHOT_END in kinds
        assert engine.registry.value("mvcc.snapshot_reads") > 0

    @pytest.mark.parametrize("engine", SCHEMES, indirect=True)
    def test_no_reader_means_no_version_state(self, engine):
        with engine.session("w") as writer:
            for i in range(6):
                writer.insert(b"k%02d" % i, b"v" * 24)
        # Writer-only runs never construct the version manager (and so
        # stay byte-identical to the pre-MVCC engine).
        assert engine._versions is None
        assert engine.registry.value("mvcc.snapshot_reads") == 0


class TestWatermarkGC:
    def test_watermark_is_minimum_active_snapshot(self, engine):
        engine.insert(b"k", b"v0")
        versions = engine.version_manager
        older = engine.session("older", isolation="read_only")
        otxn = older.transaction()
        assert otxn.search(b"k") == b"v0"
        with engine.session("w") as writer:
            writer.insert(b"k", b"v1", replace=True)
        newer = engine.session("newer", isolation="read_only")
        ntxn = newer.transaction()
        assert ntxn.ctx.snapshot_ts > otxn.ctx.snapshot_ts
        assert versions.watermark() == otxn.ctx.snapshot_ts
        # Closing the *newer* snapshot must not advance the watermark
        # past the older one.
        ntxn.commit()
        newer.close()
        assert versions.watermark() == otxn.ctx.snapshot_ts
        otxn.commit()
        older.close()
        assert versions.watermark() == versions.last_commit_ts

    def test_long_lived_reader_pins_versions_under_churn(self, engine):
        engine.insert(b"k", b"v-original")
        with engine.session("r", isolation="read_only") as reader:
            txn = reader.transaction()
            assert txn.search(b"k") == b"v-original"
            with engine.session("w") as writer:
                for i in range(5):
                    writer.insert(b"k", b"v-churn-%d" % i, replace=True)
            versions = engine.version_manager
            # Every churn commit retained at least the leaf pre-image.
            assert versions.versions_live() >= 5
            assert engine.registry.value("mvcc.versions_live") >= 5
            # The reader still resolves its pinned version.
            assert txn.search(b"k") == b"v-original"
            txn.commit()

    def test_gc_with_active_reader_reclaims_nothing_it_can_see(self, engine):
        engine.insert(b"k", b"v0")
        with engine.session("r", isolation="read_only") as reader:
            txn = reader.transaction()
            assert txn.search(b"k") == b"v0"
            with engine.session("w") as writer:
                for i in range(3):
                    writer.insert(b"k", b"v%d" % (i + 1), replace=True)
            versions = engine.version_manager
            live_before = versions.versions_live()
            assert live_before > 0
            # Explicit collection is a no-op while the snapshot pins
            # the chain (every entry's superseded_ts > watermark).
            assert versions.collect() == 0
            assert versions.versions_live() == live_before
            assert txn.search(b"k") == b"v0"
            txn.commit()

    def test_gc_after_last_reader_reclaims_everything(self, engine):
        engine.insert(b"k", b"v0")
        reader = engine.session("r", isolation="read_only")
        txn = reader.transaction()
        assert txn.search(b"k") == b"v0"
        with engine.session("w") as writer:
            for i in range(4):
                writer.insert(b"k", b"v%d" % (i + 1), replace=True)
        versions = engine.version_manager
        retained = versions.versions_live()
        assert retained >= 4
        # Closing the last snapshot advances the watermark to the
        # commit frontier and reclaims every superseded version.
        txn.commit()
        reader.close()
        assert engine.registry.value("mvcc.gc_reclaimed") >= retained
        assert versions.versions_live() == 0
        assert engine.registry.value("mvcc.versions_live") == 0
        # Per page: back down to exactly the live version.
        root_no = versions.resolve_root(0, versions.last_commit_ts)
        assert versions.live_versions(root_no) == 1


class TestSchemeGating:
    def test_naive_rejects_read_only_sessions(self):
        engine = open_engine(small_config(scheme="naive"))
        with pytest.raises(TransactionError):
            engine.session("r", isolation="read_only")

    @pytest.mark.parametrize("isolation", ["read_only", "occ"])
    def test_nvwal_refuses_snapshot_sessions(self, isolation):
        """Open writers mutate NVWAL's shared DRAM frames before
        commit, so there is no committed page to snapshot: the engine
        serves strict-2PL sessions only, and says so by name."""
        engine = open_engine(small_config(scheme="nvwal"))
        assert engine.isolation_modes == ("locked",)
        with pytest.raises(TransactionError,
                           match="'nvwal'.*'%s'" % isolation):
            engine.session("r", isolation=isolation)
        assert engine.sessions() == []
