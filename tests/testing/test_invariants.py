"""Tests for the per-step page invariant checker itself."""

import pytest

from repro.core import SystemConfig, open_engine
from repro.core.scheduler import Scheduler
from repro.storage import PAGE_LEAF
from repro.testing.invariants import (
    PageInvariantChecker,
    PageInvariantViolation,
)

PAYLOAD = bytes(range(40))


def engine_of(scheme="fast", **overrides):
    params = dict(
        scheme=scheme, npages=64, page_size=512, log_bytes=16384,
        heap_bytes=1 << 20, dram_bytes=64 * 512,
    )
    params.update(overrides)
    engine = open_engine(SystemConfig(**params))
    for i in range(6):
        engine.insert(b"k%d" % i, PAYLOAD)
    engine.drain_group_commit()
    return engine


def leaf_of(engine):
    (leaf_no,) = engine.reachable_pages()
    return leaf_no


def test_silent_on_a_healthy_run_and_free_on_the_simulated_clock():
    engine = engine_of()
    checker = PageInvariantChecker(engine)
    scheduler = Scheduler(engine, on_step=checker)
    for index in range(3):
        scheduler.add_client([
            ("txn", [("insert", b"c%d-%d" % (index, i), PAYLOAD),
                     ("delete", b"k%d" % (index + i), None)])
            for i in range(3)
        ])
    scheduler.run()
    assert checker.steps == sum(c.steps for c in scheduler.clients)
    assert checker.stats["pages_checked"] > 0

    before = (engine.clock.now_ns, engine.registry.counters())
    assert checker.problems() == []
    assert (engine.clock.now_ns, engine.registry.counters()) == before


def test_reports_a_freed_live_cell_and_the_step_that_left_it():
    engine = engine_of()
    checker = PageInvariantChecker(engine)
    checker()
    page = engine.store.page(leaf_of(engine))
    freed = page.slot_offset(2)
    page.reclaim_cell(freed)  # hand a live cell out
    with pytest.raises(PageInvariantViolation) as caught:
        checker()
    # The chunk's size and link words now sit where the cell's header
    # was.
    assert str(caught.value).startswith(
        "after step 2: page %d: cell @%d (durable header) has an insane "
        "header" % (leaf_of(engine), freed)
    )


@pytest.mark.parametrize("scheme", ["fast", "fastplus"])
def test_reports_a_rebuild_that_forgot_the_epochs_held_cell(scheme):
    """The first defect of the group-commit corruption, planted: an
    open-epoch update leaves the old cell dead in the overlay but live
    in the durable header; a rebuild from the overlay's offsets alone
    frees it."""
    engine = engine_of(scheme, group_commit_size=8)
    checker = PageInvariantChecker(engine)
    engine.insert(b"k0", PAYLOAD[::-1], replace=True)
    checker()
    leaf_no = leaf_of(engine)
    (held,) = engine.group.held_cells(leaf_no)
    engine._fetch_page(leaf_no).rebuild_free_list()  # no held cells
    with pytest.raises(PageInvariantViolation) as caught:
        checker()
    assert "cell @%d (durable header)" % held in str(caught.value)


@pytest.mark.parametrize("scheme", ["fast", "fastplus"])
def test_a_rebuild_that_asks_the_epoch_is_clean(scheme):
    engine = engine_of(scheme, group_commit_size=8)
    checker = PageInvariantChecker(engine)
    engine.insert(b"k0", PAYLOAD[::-1], replace=True)
    leaf_no = leaf_of(engine)
    engine._fetch_page(leaf_no).rebuild_free_list(engine._held_cells(leaf_no))
    checker()
    claims, _ = checker._outside_claims()
    assert [owner for owner, _ in claims[leaf_no]] == [
        "epoch overlay", "held by epoch",
    ]


def test_sees_an_open_writers_pending_header_and_held_cells():
    engine = engine_of()
    checker = PageInvariantChecker(engine)
    txn = engine.transaction()
    txn.update(b"k1", PAYLOAD[::-1])
    checker()
    claims, heads = checker._outside_claims()
    owners = [owner for owner, _ in claims[leaf_of(engine)]]
    assert owners == ["pending header", "held by open context"]
    assert leaf_of(engine) in heads
    txn.rollback()
    checker()


def test_skips_the_pages_of_a_free_run():
    """GC turns every free page above the highest live one into a run
    link; those pages keep their old bytes and are no live leaves."""
    engine = engine_of()
    store = engine.store
    orphan = store.allocate_page(PAGE_LEAF)
    for slot in range(3):
        orphan.pending_insert(slot, PAYLOAD)
    orphan.apply_header(orphan.pending_header_image(), persist=True)
    orphan.reclaim_cell(orphan.slot_offset(1))  # a broken leaf...
    checker = PageInvariantChecker(engine)
    assert checker.problems()
    engine.garbage_collect()                    # ...swept into the run
    assert store.free_pages()[-1] == store.npages - 1
    assert store.page_no_of(orphan) > max(engine.reachable_pages())
    assert checker.problems() == []


def test_refuses_schemes_whose_pages_do_not_live_in_pm():
    with pytest.raises(ValueError):
        PageInvariantChecker(engine_of("nvwal"))
