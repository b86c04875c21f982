"""Epoch-pipelined group commit.

Covers the grouped commit path end to end: logical equivalence with
the per-transaction path on every grouping scheme, byte-identity of the
grouping-off path, the committed-vs-durable split surfaced by
``Session.commit_durable``, fence amortization floors, and stride-1
crash sweeps through the epoch-close window (stage -> shared fence ->
group mark) asserting all-or-nothing recovery at epoch granularity.
"""

import pytest

from repro.bench.multiclient import (
    SMALL_PAGE_EPOCH_CELLS, SMALL_PAGE_EPOCH_CLIENTS, cell_config,
    cell_workloads, random_picks, run_multi_client, small_page_epoch_config,
)
from repro.core import SystemConfig, engine_class, open_engine
from repro.pm.crash import PersistAll
from repro.testing.crashsim import (
    ScheduledRun, SingleRun, crash_at, crash_sweep, failing,
)
from repro.testing.invariants import PageInvariantChecker

from .conftest import SMALL, small_config

SCHEMES = ("fast", "fastplus", "nvwal")
#: The schemes that group commits (NVWAL refuses ``group_commit_size``).
GROUPING = ("fast", "fastplus")
PAYLOAD = bytes(range(48))


def checked_cell(scheme, config, picks=None, **cell):
    """Run a bench cell through the crash driver to completion with the
    page invariant checker armed — under the ``picks`` schedule
    (``random_picks``), if given; returns the shape it ran."""
    workloads, rows = cell_workloads(**cell)
    shape = ScheduledRun(scheme, workloads, picks, preload=rows)
    result = crash_at(shape, None, config=config,
                      checker_factory=PageInvariantChecker)
    assert result.ok, result.violations
    return shape


def grouped_config(**overrides):
    params = dict(group_commit_size=4)
    params.update(overrides)
    return small_config(**params)


def _run_workload(engine, items=20):
    """Inserts, updates, multi-op transactions, deletes — every store
    path of the commit schemes."""
    for i in range(items):
        engine.insert(b"gk%04d" % i, PAYLOAD, replace=True)
    for i in range(0, items, 3):
        txn = engine.transaction()
        txn.update(b"gk%04d" % i, PAYLOAD[::-1])
        txn.commit()
    for i in range(0, items, 4):
        txn = engine.transaction()
        txn.insert(b"gx%04d" % i, PAYLOAD)
        txn.delete(b"gk%04d" % ((i + 1) % items))
        txn.commit()
    for i in range(0, items, 5):
        txn = engine.transaction()
        txn.delete(b"gx%04d" % ((i // 5) * 5))
        txn.commit()


def _contents(engine, items=20):
    return {
        prefix + b"%04d" % i: engine.search(prefix + b"%04d" % i)
        for prefix in (b"gk", b"gx")
        for i in range(items)
    }


class TestGroupedEquivalence:
    @pytest.mark.parametrize("scheme", GROUPING)
    def test_same_final_state_as_ungrouped(self, scheme):
        plain = open_engine(small_config(scheme=scheme))
        _run_workload(plain)
        grouped = open_engine(grouped_config(scheme=scheme))
        _run_workload(grouped)
        grouped.drain_group_commit()
        assert grouped.verify() == plain.verify()
        assert _contents(grouped) == _contents(plain)

    @pytest.mark.parametrize("scheme", GROUPING)
    def test_commits_visible_before_drain(self, scheme):
        """Joining the epoch publishes the commit: later transactions
        (and read views) see it immediately, durability comes later."""
        engine = open_engine(grouped_config(scheme=scheme,
                                            group_commit_size=64))
        engine.insert(b"early", PAYLOAD)
        assert engine.group.member_count > 0  # still riding the epoch
        assert engine.search(b"early") == PAYLOAD

    @pytest.mark.parametrize("scheme", GROUPING)
    def test_drain_is_idempotent(self, scheme):
        engine = open_engine(grouped_config(scheme=scheme))
        _run_workload(engine, items=6)
        engine.drain_group_commit()
        before = _contents(engine, items=6)
        engine.drain_group_commit()
        assert _contents(engine, items=6) == before


class TestGroupingOff:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_no_pipeline_without_the_knob(self, scheme):
        engine = open_engine(small_config(scheme=scheme))
        assert engine.group is None
        engine.drain_group_commit()  # must be a no-op, not an error

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_off_path_byte_identical(self, scheme):
        """An explicit ``group_commit_size=0`` run leaves the arena
        byte-for-byte identical to a default-config run — the knob
        touches nothing when off."""
        results = []
        for config in (small_config(scheme=scheme),
                       small_config(scheme=scheme, group_commit_size=0)):
            engine = open_engine(config)
            _run_workload(engine, items=12)
            results.append(engine.pm.read(0, config.arena_bytes))
        assert results[0] == results[1]


class TestGroupingRefused:
    """NVWAL, the paper's single-writer baseline, and the naive
    strawman commit one transaction at a time: asking them to group
    is an error, not a silent no-op."""

    @pytest.mark.parametrize("scheme", ("nvwal", "naive"))
    def test_config_refused_at_construction(self, scheme):
        with pytest.raises(ValueError,
                           match="'%s'.*group_commit_size" % scheme):
            open_engine(grouped_config(scheme=scheme))

    def test_group_commit_bench_refuses_nvwal(self):
        with pytest.raises(ValueError, match="'nvwal'.*group_commit_size"):
            run_multi_client("nvwal", clients=2, items=2, config=cell_config(
                "nvwal", clients=2, items=2, group_commit_size=4))


class TestCommitDurability:
    @pytest.mark.parametrize("scheme", GROUPING)
    def test_commit_durable_flips_at_epoch_close(self, scheme):
        engine = open_engine(grouped_config(scheme=scheme,
                                            group_commit_size=64))
        session = engine.session("c0")
        txn = session.transaction()
        txn.insert(b"pending", PAYLOAD)
        txn.commit()
        assert not session.commit_durable  # committed, riding the epoch
        engine.drain_group_commit()
        assert session.commit_durable

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_always_durable_without_grouping(self, scheme):
        engine = open_engine(small_config(scheme=scheme))
        session = engine.session("c0")
        txn = session.transaction()
        txn.insert(b"solid", PAYLOAD)
        txn.commit()
        assert session.commit_durable


class TestFenceAmortization:
    def _marginal_fences(self, scheme, config, items=24):
        engine = open_engine(config)
        snapshot = engine.obs.snapshot()
        for i in range(items):
            engine.insert(b"fk%04d" % i, PAYLOAD)
        engine.drain_group_commit()
        delta = engine.obs.since(snapshot)["registry"]["counters"]
        return delta.get("pm.fence", 0) / items

    def test_group_of_four_halves_fences(self):
        """The acceptance floor: group size 4 must pay at least 2x
        fewer fences per committed transaction than ungrouped
        (measured marginally — format-time fences excluded)."""
        plain = self._marginal_fences("fast", small_config(scheme="fast"))
        grouped = self._marginal_fences("fast", grouped_config(scheme="fast"))
        assert plain >= 2.0 * grouped

    @pytest.mark.parametrize("scheme", GROUPING)
    def test_grouping_never_adds_fences(self, scheme):
        """Even where the ungrouped path is already cheap (FAST+
        in-place commits) grouping must strictly reduce fences per
        transaction, never add them."""
        plain = self._marginal_fences(scheme, small_config(scheme=scheme))
        grouped = self._marginal_fences(scheme, grouped_config(scheme=scheme))
        assert grouped < plain

    @pytest.mark.parametrize("scheme", GROUPING)
    def test_one_mark_per_epoch(self, scheme):
        engine = open_engine(grouped_config(scheme=scheme))
        snapshot = engine.obs.snapshot()
        for i in range(16):
            engine.insert(b"fk%04d" % i, PAYLOAD)
        engine.drain_group_commit()
        delta = engine.obs.since(snapshot)["registry"]["counters"]
        assert delta.get("log.commit_mark", 0) == delta.get("group.close", 0)
        assert delta.get("group.join", 0) == 16


class TestEpochCloseCrashSweep:
    """Stride-1 injection through the epoch-close window.

    The workloads are sized below the group size, so the only close is
    the end-of-run drain — every armed memory event of the stage ->
    shared fence -> group mark sequence gets its own crash point, and
    recovery must land on an epoch-granular prefix (all members or
    none; the group-aware validator in crashsim rejects torn groups).
    """

    @pytest.mark.parametrize("scheme", GROUPING)
    def test_close_window_all_or_nothing(self, scheme):
        config = SystemConfig(group_commit_size=4, **SMALL)
        workload = [("insert", b"ck%02d" % i, PAYLOAD) for i in range(3)]
        failures = failing(crash_sweep(
            SingleRun(scheme, workload), config=config, stride=1, seeds=(0,),
        ))
        assert failures == []

    @pytest.mark.parametrize("scheme", GROUPING)
    def test_multi_epoch_sweep(self, scheme):
        """A workload spanning a mid-run size-triggered close plus the
        final drain: stride-1 over every armed event."""
        config = SystemConfig(group_commit_size=2, **SMALL)
        workload = [("insert", b"ck%02d" % i, PAYLOAD) for i in range(5)]
        workload.append(("update", b"ck00", PAYLOAD[::-1]))
        failures = failing(crash_sweep(
            SingleRun(scheme, workload), config=config, stride=1, seeds=(0,),
        ))
        assert failures == []


class TestRepairInAnOpenEpoch:
    @pytest.mark.parametrize("scheme", GROUPING)
    def test_repair_free_lists_asks_the_epoch_for_its_cells(self, scheme):
        """An open-epoch update leaves two cells the page's durable
        offset array cannot vouch for: the new one (live only in the
        overlay) and the old one (dead in the overlay, held by the
        epoch, and what a crash before the mark recovers).  A rebuild
        that frees either hands it to the next insert."""
        config = grouped_config(scheme=scheme, group_commit_size=8)
        engine = open_engine(config)
        for i in range(6):
            engine.insert(b"rk%d" % i, PAYLOAD)
        engine.drain_group_commit()
        durable = dict(engine.scan())
        engine.insert(b"rk0", PAYLOAD[::-1], replace=True)
        engine.repair_free_lists()
        engine.insert(b"rk9", PAYLOAD)
        assert dict(engine.scan()) == {
            **durable, b"rk0": PAYLOAD[::-1], b"rk9": PAYLOAD,
        }
        engine.pm.crash(PersistAll())  # every line, but no group mark
        recovered = engine_class(scheme).attach(config, engine.pm)
        recovered.verify()
        assert dict(recovered.scan()) == durable


class TestContendedGrid:
    """The cells of ROADMAP item 1's grid (scheme x G x clients x N x
    seed) that corrupted committed pages before deferred reclamation
    had one owner, at N <= 50; CI's ``concurrency`` job runs all 124
    (``bench_multiclient.py --group-grid``).  Each cell runs through
    the crash driver with the per-step page invariant checker armed and
    ends with its completed-run check: ``verify()`` + scan == the dict
    model replaying the commit order, live and after ``DropAll`` +
    attach."""

    @pytest.mark.parametrize("scheme,group_size,items,seed", [
        ("fast", 4, 50, 7), ("fast", 4, 50, 9), ("fast", 8, 25, 7),
        ("fast", 8, 25, 9), ("fast", 8, 50, 8),
        ("fastplus", 8, 25, 7), ("fastplus", 8, 50, 7),
    ])
    def test_cell_keeps_committed_pages_intact(self, scheme, group_size,
                                               items, seed):
        shape = checked_cell(
            scheme, cell_config(scheme, clients=8, items=items,
                                group_commit_size=group_size),
            clients=8, items=items, seed=seed,
        )
        assert len(shape.scheduler.commit_order) == 8 * items
        assert shape.checker.steps == sum(
            client.steps for client in shape.scheduler.clients)

    def test_rollback_leaves_a_page_it_only_routed_through(self):
        """Under this schedule a delete that only routed through an
        overlaid page rolls back while another writer holds the page.
        The overlay is a pending header, so the rollback used to
        rebuild that page's free list from it, coalescing chunks under
        the writer, whose next pop handed out its own live cell.  A
        rollback restores only the pages its transaction stored to."""
        checked_cell(
            "fastplus", cell_config("fastplus", clients=8, items=50,
                                    group_commit_size=4),
            random_picks(3), clients=8, items=50, seed=7,
        )


class TestSmallPageEpochFloor:
    """An epoch close (and crash replay) writes every member's header
    image of a page in log order, so an overlay floors allocation at
    the *widest* member image, not the latest one.  Before that, these
    cells placed a cell just past a later member's shorter header, and
    the close wrote an earlier member's longer header over it."""

    @pytest.mark.parametrize("scheme", GROUPING)
    @pytest.mark.parametrize("seed,group_size", SMALL_PAGE_EPOCH_CELLS)
    def test_cell_keeps_committed_pages_intact(self, scheme, seed,
                                               group_size):
        shape = checked_cell(
            scheme, small_page_epoch_config(group_size),
            **SMALL_PAGE_EPOCH_CLIENTS, seed=seed,
        )
        assert len(shape.scheduler.commit_order) == 8 * 25

    @pytest.mark.parametrize("scheme", GROUPING)
    def test_overlay_floors_at_the_widest_member_image(self, scheme):
        """One member grows a page's header past its durable length,
        the next shrinks it below; a fresh fetch before the close must
        not allocate below the first member's header, which the close
        still writes."""
        engine = open_engine(grouped_config(scheme=scheme, group_commit_size=8))
        for i in range(4):
            engine.insert(b"fk%d" % i, PAYLOAD)
        engine.drain_group_commit()
        leaf = engine.store.root(0)
        durable = len(engine.store.page(leaf).committed_header_image())
        with engine.transaction() as txn:
            txn.insert(b"fk4", PAYLOAD)
            txn.insert(b"fk5", PAYLOAD)
        wide = len(engine.group.pending_headers[leaf])
        with engine.transaction() as txn:
            for i in range(3):
                txn.delete(b"fk%d" % i)
        assert len(engine.group.pending_headers[leaf]) < durable < wide
        assert engine.group.header_extents[leaf] == wide
        assert engine._fetch_page(leaf)._floor == wide


class TestShardedGroupCommit:
    @pytest.mark.parametrize("scheme", GROUPING)
    def test_cross_shard_equivalence(self, scheme):
        """Grouped sharded runs (2PC decisions riding the epochs) end
        in the same logical state as ungrouped ones."""
        from repro.storage.sharding import ShardRouter

        keys = [b"sk%04d" % i for i in range(24)]
        finals = []
        for config in (small_config(scheme=scheme),
                       grouped_config(scheme=scheme)):
            router = ShardRouter.create(config, 2, scheme=scheme)
            session = router.session("c0")
            for i, key in enumerate(keys):
                txn = session.transaction()
                txn.insert(key, PAYLOAD, replace=True)
                if i % 3 == 2:  # a cross-shard multi-op transaction
                    txn.insert(keys[(i + 7) % len(keys)], PAYLOAD[::-1],
                               replace=True)
                txn.commit()
            router.drain_group_commit()
            finals.append((router.verify(),
                           [router.search(key) for key in keys]))
        assert finals[0] == finals[1]

    def test_commit_durable_follows_every_touched_shard(self):
        from repro.storage.sharding import ShardRouter

        router = ShardRouter.create(grouped_config(scheme="fast"), 2)
        with router.session("c0") as session:
            assert session.commit_durable is True
            session.insert(b"k", PAYLOAD)
            assert session.commit_durable is False
            router.drain_group_commit()
            assert session.commit_durable is True
