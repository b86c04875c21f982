"""Dynamic invariants TC101-TC106: exact output on known-bad trace
fixtures, ring-drop detection, and live-range extraction."""

import json
import os

from repro.analysis.tracecheck import TraceChecker
from repro.core import SystemConfig, open_engine
from repro.obs import trace as ev
from repro.obs.trace import TraceRecorder

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

#: Geometry every JSON fixture is written against.
LOG_RANGE = (0x10000, 0x14000)
COMMIT_WORD = 0x10008
PAGE_RANGE = (0, 0x10000)


def _run_fixture(name):
    with open(os.path.join(FIXTURES, name)) as fh:
        fixture = json.load(fh)
    checker = TraceChecker(
        None, log_range=LOG_RANGE, commit_word=COMMIT_WORD,
        page_range=PAGE_RANGE,
    )
    live = fixture.get("live")
    if live is not None:
        checker.begin_txn([tuple(r) for r in live])
    checker.feed([tuple(event) for event in fixture["events"]])
    findings = checker.finish()
    return [f.render() for f in findings], fixture["expect"]


def test_tc101_unflushed_log_line_at_mark():
    got, expect = _run_fixture("tc101_unflushed_log.json")
    assert got == expect


def test_tc102_non_atomic_commit_mark():
    got, expect = _run_fixture("tc102_wide_mark.json")
    assert got == expect


def test_tc103_pre_commit_live_overwrite():
    got, expect = _run_fixture("tc103_live_overwrite.json")
    assert got == expect


def test_tc103_unpersisted_pointer_swap():
    got, expect = _run_fixture("tc103_unflushed_swap.json")
    assert got == expect


def test_tc104_acquire_after_release():
    got, expect = _run_fixture("tc104_acquire_after_release.json")
    assert got == expect


def test_tc105_lock_held_at_commit():
    got, expect = _run_fixture("tc105_held_at_commit.json")
    assert got == expect


def test_tc106_persistent_waitfor_cycle():
    got, expect = _run_fixture("tc106_waitfor_cycle.json")
    assert got == expect


def test_tc107_snapshot_session_acquires_lock():
    got, expect = _run_fixture("tc107_snapshot_lock.json")
    assert got == expect


def test_tc107_snapshot_reads_younger_version():
    got, expect = _run_fixture("tc107_stale_snapshot_read.json")
    assert got == expect


def test_tc107_clean_snapshot_produces_no_findings():
    checker = TraceChecker(
        None, log_range=LOG_RANGE, commit_word=COMMIT_WORD,
        page_range=PAGE_RANGE,
    )
    checker.feed([
        (1, 0.0, ev.SNAPSHOT_BEGIN, 1, 100),
        (2, 0.0, ev.SNAPSHOT_READ, 1, 100),
        (3, 0.0, ev.SNAPSHOT_READ, 1, 40),
        (4, 0.0, ev.SNAPSHOT_END, 1, 0),
        # The same session may lock freely once its snapshot is closed.
        (5, 0.0, ev.TXN_BEGIN, 1, 0),
        (6, 0.0, ev.LOCK_ACQUIRE, 1, 2199023255811),
        (7, 0.0, ev.LOCK_RELEASE, 1, 2199023255811),
        (8, 0.0, ev.TXN_COMMIT, 1, 0),
    ])
    assert checker.finish() == []


def test_tc107_gated_on_snapshot_invariant():
    checker = TraceChecker(
        None, log_range=LOG_RANGE, commit_word=COMMIT_WORD,
        page_range=PAGE_RANGE, invariants=("twopl",),
    )
    checker.feed([
        (1, 0.0, ev.SNAPSHOT_BEGIN, 1, 100),
        (2, 0.0, ev.SNAPSHOT_READ, 1, 200),
    ])
    assert checker.finish() == []


def test_tc108_commit_mark_without_prepare():
    got, expect = _run_fixture("tc108_commit_before_prepare.json")
    assert got == expect


def test_tc108_commit_mark_against_abort_decision():
    got, expect = _run_fixture("tc108_commit_against_abort.json")
    assert got == expect


def test_tc108_commit_before_decision():
    checker = TraceChecker(
        None, log_range=LOG_RANGE, commit_word=COMMIT_WORD,
        page_range=PAGE_RANGE,
    )
    checker.feed([
        (1, 0.0, ev.TWOPC_PREPARE, 5, 0),
        (2, 0.0, ev.TWOPC_COMMIT, 5, 0),
    ])
    assert [f.render() for f in checker.finish()] == [
        "trace@2: TC108: shard 0 commit mark for gtid 5 before the "
        "coordinator decision"
    ]


def test_tc108_premature_commit_decision():
    checker = TraceChecker(
        None, log_range=LOG_RANGE, commit_word=COMMIT_WORD,
        page_range=PAGE_RANGE,
    )
    checker.feed([
        (1, 0.0, ev.TWOPC_PREPARE, 5, 0),
        (2, 0.0, ev.TWOPC_DECISION, 5, (2 << 1) | 1),  # 2 participants
    ])
    assert [f.render() for f in checker.finish()] == [
        "trace@2: TC108: commit decision for gtid 5 with 1/2 "
        "participants prepared"
    ]


def test_tc108_clean_two_phase_exchange():
    checker = TraceChecker(
        None, log_range=LOG_RANGE, commit_word=COMMIT_WORD,
        page_range=PAGE_RANGE,
    )
    checker.feed([
        (1, 0.0, ev.TWOPC_PREPARE, 5, 0),
        (2, 0.0, ev.TWOPC_PREPARE, 5, 1),
        (3, 0.0, ev.TWOPC_DECISION, 5, (2 << 1) | 1),
        (4, 0.0, ev.TWOPC_COMMIT, 5, 0),
        (5, 0.0, ev.TWOPC_COMMIT, 5, 1),
    ])
    assert checker.finish() == []


def test_tc108_gated_on_twopc_invariant():
    checker = TraceChecker(
        None, log_range=LOG_RANGE, commit_word=COMMIT_WORD,
        page_range=PAGE_RANGE, invariants=("twopl",),
    )
    checker.feed([
        (1, 0.0, ev.TWOPC_COMMIT, 5, 0),
    ])
    assert checker.finish() == []


def test_shared_trace_skips_foreign_commit_marks():
    # Scoped to shard 0's geometry: shard 1's mark (no in-scope store
    # to the commit word) is out of scope, shard 0's own unflushed-line
    # violation still fires.
    checker = TraceChecker(
        None, log_range=LOG_RANGE, commit_word=COMMIT_WORD,
        page_range=PAGE_RANGE, shared_trace=True,
    )
    checker.feed([
        (1, 0.0, ev.COMMIT_MARK, 1, 0),      # another shard's mark
        (2, 0.0, ev.STORE, 0x10040, 16),     # our log line, never flushed
        (3, 0.0, ev.STORE, COMMIT_WORD, 8),
        (4, 0.0, ev.COMMIT_MARK, 2, 0),      # ours: TC101 fires
    ])
    findings = [f.render() for f in checker.finish()]
    assert len(findings) == 1 and "TC101" in findings[0]


def test_disciplined_commit_produces_no_findings():
    got, expect = _run_fixture("tc_good_commit.json")
    assert got == expect == []


def test_swap_completed_by_flush_and_fence_is_sanctioned():
    checker = TraceChecker(
        None, log_range=LOG_RANGE, commit_word=COMMIT_WORD,
        page_range=PAGE_RANGE,
    )
    checker.begin_txn([(0x100, 0x140)])
    checker.feed([
        (1, 0.0, ev.STORE, 0x100, 8),
        (2, 0.0, ev.CLFLUSH, 0x100, 0),
        (3, 0.0, ev.FENCE, 0, 0),
    ])
    assert checker.finish() == []


def test_rtm_window_stores_are_exempt():
    checker = TraceChecker(
        None, log_range=LOG_RANGE, commit_word=COMMIT_WORD,
        page_range=PAGE_RANGE,
    )
    checker.begin_txn([(0x100, 0x140)])
    checker.feed([
        (1, 0.0, ev.RTM_BEGIN, 1, 0),
        (2, 0.0, ev.STORE, 0x100, 64),
        (3, 0.0, ev.RTM_COMMIT, 0, 0),
        (4, 0.0, ev.CLFLUSH, 0x100, 0),
        (5, 0.0, ev.FENCE, 0, 0),
    ])
    assert checker.finish() == []


def test_ring_drop_is_reported():
    trace = TraceRecorder(capacity=4)
    checker = TraceChecker(
        trace, log_range=LOG_RANGE, commit_word=COMMIT_WORD,
        page_range=PAGE_RANGE,
    )
    trace.record(ev.FENCE)
    checker.advance()          # cursor at seq 1
    for _ in range(8):         # seqs 2..9; ring keeps only 6..9
        trace.record(ev.FENCE)
    checker.advance()
    findings = checker.finish()
    assert [f.rule for f in findings] == ["TC000"]
    assert "dropped 4 events" in findings[0].message


def test_live_ranges_cover_roots_headers_and_cells():
    config = SystemConfig(
        npages=64, page_size=512, log_bytes=8192,
        heap_bytes=1 << 18, dram_bytes=1 << 15,
    )
    engine = open_engine(config, scheme="fast")
    payload = bytes(32)
    for i in range(8):
        engine.insert(b"lr%03d" % i, payload)
    ranges = TraceChecker.live_ranges_of(engine)
    assert ranges == sorted(ranges)
    # The named-root pointer region is always live.
    assert (engine.store.base + 16, engine.store.base + 64) in ranges
    # Each reachable page contributes its header split around the
    # reconstructible free-list head word (bytes 6-8 are exempt).
    for page_no in engine.reachable_pages():
        base = engine.store.page(page_no).base
        assert (base, base + 6) in ranges
        assert not any(
            start <= base + 6 < stop for start, stop in ranges
        )


def test_checker_for_engine_scopes_to_arena_geometry():
    config = SystemConfig(
        npages=64, page_size=512, log_bytes=8192,
        heap_bytes=1 << 18, dram_bytes=1 << 15,
    )
    engine = open_engine(config, scheme="fast")
    checker = TraceChecker.for_engine(engine)
    assert checker.log_range == (
        config.log_base, config.log_base + config.log_bytes,
    )
    assert checker.commit_word == config.log_base + 8
    assert checker.page_range == (0, 64 * 512)


# ----------------------------------------------------------------------
# TC110 — lockset race detection (Eraser-shape)
# ----------------------------------------------------------------------

PAGE_SIZE = 0x200


def _lockset_checker(**overrides):
    kwargs = dict(
        log_range=LOG_RANGE, commit_word=COMMIT_WORD,
        page_range=PAGE_RANGE, page_size=PAGE_SIZE,
    )
    kwargs.update(overrides)
    return TraceChecker(None, **kwargs)


def _s(resource, mode):
    from repro.core.locking import encode_lock

    return encode_lock(resource, mode)


def test_tc110_two_writers_with_empty_lockset():
    checker = _lockset_checker()
    checker.feed([
        (1, 0.0, ev.TXN_BEGIN, 1, 0),
        (2, 0.0, ev.TXN_BEGIN, 2, 0),
        # Both writers store into page 1 holding only an S lock: their
        # X-candidate intersection is empty from the first store.
        (3, 0.0, ev.LOCK_ACQUIRE, 1, _s(("page", 1), "S")),
        (4, 0.0, ev.SCHED_PICK, 1, 0),
        (5, 0.0, ev.STORE, 0x240, 16),
        (6, 0.0, ev.LOCK_ACQUIRE, 2, _s(("page", 1), "S")),
        (7, 0.0, ev.SCHED_PICK, 2, 1),
        (8, 0.0, ev.STORE, 0x250, 16),
    ])
    assert [f.render() for f in checker.finish()] == [
        "trace@8: TC110: page 1 written by sessions 1,2 with an empty "
        "lockset (no consistent protecting X lock across writers)",
    ]


def test_tc110_consistent_x_lock_is_clean():
    checker = _lockset_checker()
    checker.feed([
        (1, 0.0, ev.TXN_BEGIN, 1, 0),
        (2, 0.0, ev.LOCK_ACQUIRE, 1, _s(("page", 1), "X")),
        (3, 0.0, ev.SCHED_PICK, 1, 0),
        (4, 0.0, ev.STORE, 0x240, 16),
        (5, 0.0, ev.LOCK_RELEASE, 1, _s(("page", 1), "X")),
        (6, 0.0, ev.TXN_COMMIT, 1, 0),
        (7, 0.0, ev.TXN_BEGIN, 2, 0),
        (8, 0.0, ev.LOCK_ACQUIRE, 2, _s(("page", 1), "X")),
        (9, 0.0, ev.SCHED_PICK, 2, 1),
        (10, 0.0, ev.STORE, 0x250, 16),
        (11, 0.0, ev.LOCK_RELEASE, 2, _s(("page", 1), "X")),
        (12, 0.0, ev.TXN_COMMIT, 2, 0),
    ])
    assert checker.finish() == []


def test_tc110_set_actor_attributes_without_sched_pick():
    checker = _lockset_checker()
    checker.feed([
        (1, 0.0, ev.TXN_BEGIN, 1, 0),
        (2, 0.0, ev.TXN_BEGIN, 2, 0),
        (3, 0.0, ev.LOCK_ACQUIRE, 1, _s(("page", 1), "S")),
        (4, 0.0, ev.LOCK_ACQUIRE, 2, _s(("page", 1), "S")),
    ])
    checker.set_actor(1)
    checker.feed([(5, 0.0, ev.STORE, 0x240, 16)])
    checker.set_actor(2)
    checker.feed([(6, 0.0, ev.STORE, 0x250, 16)])
    assert [f.rule for f in checker.finish()] == ["TC110"]


def test_tc110_unattributed_and_unowned_stores_are_exempt():
    checker = _lockset_checker()
    checker.feed([
        # No sched_pick/set_actor yet: preload-style stores are skipped.
        (1, 0.0, ev.STORE, 0x240, 16),
        (2, 0.0, ev.TXN_BEGIN, 1, 0),
        (3, 0.0, ev.TXN_BEGIN, 2, 0),
        # Attributed stores to a page NO session holds in any mode:
        # allocation-format traffic, sanctioned.
        (4, 0.0, ev.SCHED_PICK, 1, 0),
        (5, 0.0, ev.STORE, 0x440, 16),
        (6, 0.0, ev.SCHED_PICK, 2, 1),
        (7, 0.0, ev.STORE, 0x450, 16),
    ])
    assert checker.finish() == []


def test_tc110_dormant_without_page_geometry():
    checker = _lockset_checker(page_size=None)
    checker.feed([
        (1, 0.0, ev.TXN_BEGIN, 1, 0),
        (2, 0.0, ev.TXN_BEGIN, 2, 0),
        (3, 0.0, ev.SCHED_PICK, 1, 0),
        (4, 0.0, ev.STORE, 0x240, 16),
        (5, 0.0, ev.SCHED_PICK, 2, 1),
        (6, 0.0, ev.STORE, 0x250, 16),
    ])
    assert checker.finish() == []


def test_tc110_gated_on_lockset_invariant():
    checker = _lockset_checker(
        invariants=("flush", "atomic", "twopl"),
    )
    checker.feed([
        (1, 0.0, ev.TXN_BEGIN, 1, 0),
        (2, 0.0, ev.TXN_BEGIN, 2, 0),
        (3, 0.0, ev.LOCK_ACQUIRE, 1, _s(("page", 1), "S")),
        (4, 0.0, ev.SCHED_PICK, 1, 0),
        (5, 0.0, ev.STORE, 0x240, 16),
        (6, 0.0, ev.LOCK_ACQUIRE, 2, _s(("page", 1), "S")),
        (7, 0.0, ev.SCHED_PICK, 2, 1),
        (8, 0.0, ev.STORE, 0x250, 16),
    ])
    assert checker.finish() == []


# ---------------------------------------------------------------------------
# TC111 — DRAM page-cache coherence
# ---------------------------------------------------------------------------


def test_tc111_stale_hit_after_install_fires():
    checker = _lockset_checker()
    checker.feed([
        (1, 0.0, ev.CACHE_FILL, 1, 0),
        # A committed header install rewrites page 1's first six bytes
        # while the frame is live ...
        (2, 0.0, ev.STORE, 0x200, 8),
        # ... and the next hit serves the pre-install bytes.
        (3, 0.0, ev.CACHE_HIT, 1, 0),
    ])
    assert [f.render() for f in checker.finish()] == [
        "trace@3: TC111: cached read of page 1 served bytes older than "
        "the committed install at trace seq 2 (no invalidation between "
        "install and hit)",
    ]


def test_tc111_invalidate_between_install_and_hit_is_clean():
    checker = _lockset_checker()
    checker.feed([
        (1, 0.0, ev.CACHE_FILL, 1, 0),
        (2, 0.0, ev.STORE, 0x200, 8),
        (3, 0.0, ev.CACHE_INVAL, 1, ev.INVAL_INSTALL),
        (4, 0.0, ev.CACHE_FILL, 1, 0),
        (5, 0.0, ev.CACHE_HIT, 1, 0),
    ])
    assert checker.finish() == []


def test_tc111_refill_clears_staleness():
    # A re-fill after the install re-reads the page from PM, so the
    # frame holds post-install bytes even without an explicit inval.
    checker = _lockset_checker()
    checker.feed([
        (1, 0.0, ev.CACHE_FILL, 1, 0),
        (2, 0.0, ev.STORE, 0x200, 8),
        (3, 0.0, ev.CACHE_FILL, 1, 0),
        (4, 0.0, ev.CACHE_HIT, 1, 0),
    ])
    assert checker.finish() == []


def test_tc111_cell_store_outside_window_is_not_an_install():
    # Pre-commit record traffic lands past the six-byte header window
    # and must not mark the frame stale.
    checker = _lockset_checker()
    checker.feed([
        (1, 0.0, ev.CACHE_FILL, 1, 0),
        (2, 0.0, ev.STORE, 0x3c0, 16),
        (3, 0.0, ev.CACHE_HIT, 1, 0),
    ])
    assert checker.finish() == []


def test_tc111_free_list_head_store_is_carved_out():
    # Bytes 6-8 (the in-page free-list head) are rewritten in place
    # pre-commit and excluded from the install window, mirroring
    # TC103's live-range carve-out.
    checker = _lockset_checker()
    checker.feed([
        (1, 0.0, ev.CACHE_FILL, 1, 0),
        (2, 0.0, ev.STORE, 0x206, 2),
        (3, 0.0, ev.CACHE_HIT, 1, 0),
    ])
    assert checker.finish() == []


def test_tc111_install_on_other_page_is_clean():
    checker = _lockset_checker()
    checker.feed([
        (1, 0.0, ev.CACHE_FILL, 1, 0),
        (2, 0.0, ev.STORE, 0x400, 8),
        (3, 0.0, ev.CACHE_HIT, 1, 0),
    ])
    assert checker.finish() == []


def test_tc111_hit_without_recorded_fill_is_exempt():
    # The checker may attach mid-stream: a hit on a frame it never saw
    # filled has no baseline to compare against.
    checker = _lockset_checker()
    checker.feed([
        (1, 0.0, ev.STORE, 0x200, 8),
        (2, 0.0, ev.CACHE_HIT, 1, 0),
    ])
    assert checker.finish() == []


def test_tc111_frame_filled_before_attach_is_tracked_from_its_first_hit():
    # ...but that hit proves a frame is live.  Exempting every later
    # hit too ("implicit-fill territory") left a frame filled before
    # the checker attached unchecked for the rest of the run: the
    # seeded skip_cache_invalidate mutant escaped that way.
    from repro.analysis.selftest import DYNAMIC_FIXTURES

    findings = DYNAMIC_FIXTURES["TC111-fill-before-attach"]()
    assert [f.render() for f in findings] == [
        "trace@3: TC111: cached read of page 1 served bytes older than "
        "the committed install at trace seq 2 (no invalidation between "
        "install and hit)",
    ]


def test_tc111_dormant_without_page_geometry():
    checker = _lockset_checker(page_size=None)
    checker.feed([
        (1, 0.0, ev.CACHE_FILL, 1, 0),
        (2, 0.0, ev.STORE, 0x200, 8),
        (3, 0.0, ev.CACHE_HIT, 1, 0),
    ])
    assert checker.finish() == []


def test_tc111_gated_on_cache_invariant():
    checker = _lockset_checker(
        invariants=("flush", "atomic", "twopl", "lockset"),
    )
    checker.feed([
        (1, 0.0, ev.CACHE_FILL, 1, 0),
        (2, 0.0, ev.STORE, 0x200, 8),
        (3, 0.0, ev.CACHE_HIT, 1, 0),
    ])
    assert checker.finish() == []
