"""Seeded-bug mutants: known-broken engines the explorer must catch.

Static analyzers prove themselves on known-bad fixtures
(:mod:`repro.analysis.selftest`); a model checker has to prove itself
the same way, on *seeded concurrency bugs* — deliberate, minimal
breakages of the engine's synchronization or commit protocol that the
schedule-space explorer (:mod:`repro.analysis.explore`) is required to
detect within its default budget.  Each mutant is a context manager
that monkeypatches exactly one method for the duration of an
exploration and restores it on exit, so the mutated code path is never
visible outside the ``with`` block.

Four mutants, matching the halves of the detector suite:

``skip_page_lock``
    :meth:`MutationContext.update_record` skips its ``_claim`` — the X
    claim every mutator body takes before its store — while the other
    bodies keep theirs, so an update writes its leaf under only the
    descent's S latch.  Two sessions updating keys on one leaf
    interleave their writes with no consistent protecting X lock: the
    TC110 lockset race detector must flag the page.

``skip_lock_ahead``
    :meth:`BTree._claim_above` claims nothing, so a leaf that must
    split or be rewritten copy-on-write stores its new sibling before
    it has asked for the parent it will link it into.  The locked
    context refuses that claim after the operation's first store
    (``ClaimAfterStore``, contended or not): the explorer must report
    it as EX000 on the first split.

``mark_before_fence``
    :meth:`SlotHeaderLog.flush_frames` becomes a no-op, so the commit
    mark is published while the staged log frames are still sitting
    dirty in the cache — the mark retires *before* the lines it
    depends on, the paper's cardinal ordering sin (Section 3.2: the
    mark *is* the atomicity of the commit, and it depends on every
    staged line being flushed and fenced first).  The TC101
    flush-before-fence-before-mark invariant must flag the dirty
    lines at the mark.  (Skipping only the *fence* would be masked in
    the event-level model: the commit word's own ``persist`` issues a
    fence right before the mark event, retiring the inflight lines —
    on real hardware that still leaves the mark's line racing the
    frame lines, but the trace model is line-state-based, so the seed
    drops the flush instead.)

``skip_cache_invalidate``
    :meth:`TieredPageCache.invalidate` ignores install-reason calls,
    so committed installs stop evicting stale frames from the DRAM
    page cache (evictions and page frees stay intact).  A snapshot
    reader that cached a leaf before a concurrent writer's commit
    keeps serving the pre-commit bytes from DRAM: the TC111 cache
    coherence invariant must flag the stale hit.
"""

from contextlib import contextmanager

from repro.btree.btree import BTree
from repro.core import SystemConfig
from repro.core.base import MutationContext
from repro.obs import trace as ev
from repro.storage.cache import TieredPageCache
from repro.wal.slot_header_log import SlotHeaderLog


@contextmanager
def skip_page_lock():
    """Drop the X page claim from ``update_record`` (race seed)."""
    original = MutationContext.update_record

    def update_record(self, page, slot, payload):
        # An instance attribute shadows the locked class's claim hook
        # for this one body only.
        self._claim = None
        try:
            return original(self, page, slot, payload)
        finally:
            del self._claim

    MutationContext.update_record = update_record
    try:
        yield
    finally:
        MutationContext.update_record = original


@contextmanager
def skip_lock_ahead():
    """A structure change claims nothing above the leaf before it
    stores (plan seed)."""
    original = BTree._claim_above
    BTree._claim_above = lambda *args: None
    try:
        yield
    finally:
        BTree._claim_above = original


@contextmanager
def mark_before_fence():
    """Commit marks no longer wait for the staged lines' durability
    (ordering seed)."""
    original = SlotHeaderLog.flush_frames

    def flush_frames(self):
        pass

    SlotHeaderLog.flush_frames = flush_frames
    try:
        yield
    finally:
        SlotHeaderLog.flush_frames = original


@contextmanager
def skip_cache_invalidate():
    """Committed installs no longer invalidate the DRAM page cache
    (stale-read seed); eviction and free invalidations stay intact."""
    original = TieredPageCache.invalidate

    def invalidate(self, page_no, reason=ev.INVAL_INSTALL):
        if reason != ev.INVAL_INSTALL:
            original(self, page_no, reason)

    TieredPageCache.invalidate = invalidate
    try:
        yield
    finally:
        TieredPageCache.invalidate = original


#: name -> (mutant context manager, the rule that must fire, workloads
#: builder) — the exploration self-test registry.
def _race_workloads():
    payload = bytes(range(48))
    return {
        "preload": [(b"hot%d" % i, payload) for i in range(4)],
        "workloads": [
            [("txn", [("update", b"hot0", payload),
                      ("update", b"hot1", payload)])],
            [("txn", [("update", b"hot0", payload),
                      ("update", b"hot2", payload)])],
        ],
    }


def _ordering_workloads():
    # Each transaction updates keys on three different leaves, so its
    # commit stages three slot-header frames — past the cache line the
    # commit word lives in, where the skipped flush is observable (a
    # single-frame commit's line is flushed as a side effect of the
    # commit word's own persist).
    payload = bytes(40)
    return {
        "preload": [(b"k%05d" % i, payload) for i in range(24)],
        "workloads": [
            [("txn", [("update", b"k00000", payload),
                      ("update", b"k00011", payload),
                      ("update", b"k00023", payload)])],
            [("txn", [("update", b"k00001", payload),
                      ("update", b"k00012", payload),
                      ("update", b"k00022", payload)])],
        ],
    }


def _stale_read_workloads():
    # A snapshot reader shares one hot leaf with a locked writer under
    # a cache-enabled config.  Each read item is its own snapshot
    # transaction, so under the round-robin default schedule some read
    # lands after the writer's commit: with install invalidations
    # seeded out, that read serves the pre-commit frame from DRAM and
    # TC111 must flag the hit.
    payload = bytes(range(48))
    fresh = bytes(range(47, -1, -1))
    read = ("search", b"hot0", None)
    return {
        "preload": [(b"hot%d" % i, payload) for i in range(4)],
        "workloads": [
            {"items": [read, read, read, read], "isolation": "read_only"},
            [("txn", [("update", b"hot0", fresh)])],
        ],
        "config": SystemConfig(
            dram_cache_pages=8, npages=128, page_size=512,
            log_bytes=16384, heap_bytes=1 << 20, dram_bytes=64 * 512,
        ),
    }


def _split_workloads():
    # Appends past the ordering preload land in its rightmost leaf,
    # which holds all 8 records a 512-byte leaf fits under an internal
    # root: the first insert of either client splits it.
    spec = _ordering_workloads()
    spec["workloads"] = [[("insert", b"k%05d" % i, bytes(40))] for i in (24, 25)]
    return spec


MUTANTS = {
    "TC110-skip-page-lock": (skip_page_lock, "TC110", _race_workloads),
    "EX000-skip-lock-ahead": (skip_lock_ahead, "EX000", _split_workloads),
    "TC101-mark-before-fence": (
        mark_before_fence, "TC101", _ordering_workloads,
    ),
    "TC111-skip-cache-invalidate": (
        skip_cache_invalidate, "TC111", _stale_read_workloads,
    ),
}

__all__ = [
    "skip_page_lock", "skip_lock_ahead", "mark_before_fence",
    "skip_cache_invalidate",
    "MUTANTS",
]
