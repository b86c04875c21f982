"""Tests for the tiered DRAM page cache (``repro.storage.cache``).

Layers of guarantees:

* unit — clock/second-chance eviction, invalidation, read-only frames,
  the free -> reallocate -> read regression;
* sparse frames — which extents a fill copies per page type, that the
  hole it skips cannot be read, and that a fill costs its live lines
  and never more than the full-page copy;
* equivalence — a cache-on engine's committed state (search, scan,
  verify, page stats, arena bytes) is identical to a cache-off run of
  the same workload, deterministically and under hypothesis;
* the install seam — for every kind of committed install, warm frames
  followed by the install still read like the uncached engine, and
  stop doing so once that kind's seam helper no longer invalidates;
* default-off — ``dram_cache_pages=0`` builds no cache at all: no
  object, no counters, no trace events, bit-identical arenas and
  simulated time across repeat runs.
"""

from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SystemConfig, open_engine
from repro.core.fast import FASTEngine, FASTPlusEngine
from repro.hashindex import HashIndex
from repro.storage import PAGE_INTERNAL, PAGE_LEAF, PageStore
from repro.storage.cache import TieredPageCache
from repro.storage.slotted_page import (
    PAGE_FREE,
    PAGE_META,
    PAGE_OVERFLOW,
    encode_header,
    live_extents,
)

SMALL = dict(
    npages=256, page_size=512, log_bytes=16384,
    heap_bytes=1 << 20, dram_bytes=64 * 512,
)

SCHEMES = ("fast", "fastplus")


def make_engine(scheme="fast", cache_pages=8, **overrides):
    params = dict(SMALL, scheme=scheme, dram_cache_pages=cache_pages)
    params.update(overrides)
    return open_engine(SystemConfig(**params))


def arena_image(pm):
    """The arena as the CPU sees it: durable bytes with the dirty and
    in-flight line overlays applied."""
    return pm.visible_bytes(0, pm.size)


def cache_counters(engine):
    counters = engine.obs.registry.counters()
    return {
        name: value for name, value in counters.items()
        if name.startswith("cache.")
    }


# ----------------------------------------------------------------------
# Unit: construction and the clock ring
# ----------------------------------------------------------------------


def test_capacity_must_be_positive():
    engine = make_engine(cache_pages=8)
    with pytest.raises(ValueError):
        TieredPageCache(engine.store, 0)


def test_engine_attaches_cache_only_when_configured():
    assert make_engine(cache_pages=0).page_cache is None
    cached = make_engine(cache_pages=8)
    assert isinstance(cached.page_cache, TieredPageCache)
    assert cached.page_cache.capacity == 8


def test_nvwal_opts_out_of_the_cache_tier():
    """The tier copies PM-resident committed pages; NVWAL's pages live
    in its own volatile buffer cache and the naive scheme installs
    headers in place, so both refuse the field instead of ignoring
    it."""
    for scheme in ("nvwal", "naive"):
        with pytest.raises(ValueError,
                           match="'%s'.*dram_cache_pages" % scheme):
            make_engine(scheme=scheme, cache_pages=8)


def test_fill_then_lookup_hits():
    engine = make_engine()
    cache = engine.page_cache
    page = engine.store.allocate_page(PAGE_LEAF)
    no = engine.store.page_no_of(page)
    assert cache.lookup(no) is None          # cold: one miss
    filled = cache.fill(no)
    assert filled.page_type == PAGE_LEAF
    assert cache.lookup(no) is not None      # warm: one hit
    counters = cache_counters(engine)
    assert counters["cache.hit"] == 1
    assert counters["cache.miss"] == 1
    assert counters["cache.fill"] == 1


def test_cached_frames_are_read_only():
    engine = make_engine()
    store = engine.store
    no = store.page_no_of(store.allocate_page(PAGE_LEAF))
    frame = engine.page_cache.fill(no)
    with pytest.raises(TypeError):
        frame.apply_header(frame.header_image())


def test_eviction_respects_capacity_and_second_chance():
    engine = make_engine(cache_pages=2)
    store = engine.store
    cache = engine.page_cache
    nos = [store.page_no_of(store.allocate_page(PAGE_LEAF))
           for _ in range(3)]
    cache.fill(nos[0])
    cache.fill(nos[1])
    # Reference page 0: its clock bit earns it a second chance, so the
    # third fill must evict page 1 instead.
    assert cache.lookup(nos[0]) is not None
    cache.fill(nos[2])
    assert len(cache) == 2
    assert cache.lookup(nos[0]) is not None
    assert cache.lookup(nos[1]) is None
    counters = cache_counters(engine)
    assert counters["cache.evict"] == 1
    assert counters["cache.invalidate"] == 0


def test_invalidate_drops_the_frame():
    engine = make_engine()
    store = engine.store
    cache = engine.page_cache
    no = store.page_no_of(store.allocate_page(PAGE_LEAF))
    cache.fill(no)
    cache.invalidate(no)
    assert cache.lookup(no) is None
    assert cache_counters(engine)["cache.invalidate"] == 1
    # Invalidating an uncached page is a no-op, not an error.
    cache.invalidate(no)
    assert cache_counters(engine)["cache.invalidate"] == 1


def test_free_reallocate_read_regression():
    """A freed page's frame must die with the page: reallocation can
    give the number a brand-new identity, and a cached read afterwards
    must see the new page, not the pre-free image."""
    engine = make_engine()
    store = engine.store
    cache = engine.page_cache
    page = store.allocate_page(PAGE_LEAF)
    no = store.page_no_of(page)
    cache.fill(no)
    assert cache.lookup(no) is not None
    store.free_page(no)                       # on_page_freed fires
    assert cache.lookup(no) is None
    again = store.allocate_page(PAGE_INTERNAL)
    assert store.page_no_of(again) == no      # same number, new page
    assert cache.fill(no).page_type == PAGE_INTERNAL
    counters = cache_counters(engine)
    assert counters["cache.invalidate"] == 1


def test_garbage_collect_invalidates_swept_pages():
    engine = make_engine()
    store = engine.store
    cache = engine.page_cache
    page = store.allocate_page(PAGE_LEAF)
    no = store.page_no_of(page)
    cache.fill(no)
    # The page hangs off no tree root, so a GC sweep reclaims it — and
    # its frame must go with it.
    engine.garbage_collect()
    assert cache.lookup(no) is None


def test_reachability_walks_fill_no_frames():
    """GC and ``page_stats`` read every page their walk reads once: they
    hit the frames that exist and read the rest from PM
    (``cache.bypass``), leaving the tier's contents as they found them.
    While the store's overflow latch is clear the walk reads the
    internal pages and one leaf; once a value has spilled, every page."""
    engine = make_engine(cache_pages=4)
    for i in range(120):
        engine.insert(b"walk%04d" % i, b"v" * 24)

    def walk_twice():
        """Warm the path to the leftmost leaf, then GC and take page
        stats; returns ``(pages the walk reads, warm frames, bypasses)``."""
        path = engine.tree()._descend(engine.read_view(), b"")
        warm = set(engine.page_cache._frames)
        reachable = engine.reachable_pages()
        if engine.store.overflow_latched:
            read = reachable
        else:
            read = {entry.page_no for entry in path} | {
                no for no in reachable
                if engine._fetch_page(no).page_type == PAGE_INTERNAL
            }
        before = cache_counters(engine)
        engine.garbage_collect()
        engine.page_stats()
        after = cache_counters(engine)
        moved = {name: after[name] - before[name] for name in after}
        assert moved["cache.fill"] == moved["cache.miss"] == 0
        assert moved["cache.evict"] == 0
        assert set(engine.page_cache._frames) == warm
        return read, warm, moved["cache.bypass"]

    read, warm, bypasses = walk_twice()
    assert not engine.store.overflow_latched
    assert bypasses == 2 * len(read - warm)
    engine.insert(b"spill", b"s" * 1000)
    assert engine.store.overflow_latched
    read, warm, bypasses = walk_twice()
    assert warm and len(read) > len(warm) + 4
    assert any(engine._fetch_page(no).page_type == PAGE_OVERFLOW
               for no in read)
    assert bypasses == 2 * len(read - warm)


# ----------------------------------------------------------------------
# Sparse frames: what a fill copies, what it refuses to answer, what it
# costs
# ----------------------------------------------------------------------

_PAGE = 4096


def _fixed(page_type, nrecords, content_start):
    return encode_header(page_type, 0, content_start, 0, [0] * nrecords)[:8]


@pytest.mark.parametrize("header, expected", [
    # Slotted layouts: [0, header_end) and [content_start, page end).
    (_fixed(PAGE_LEAF, 5, 3000), (18, 3000)),
    (_fixed(PAGE_INTERNAL, 40, 2048), (88, 2048)),
    (_fixed(PAGE_META, 8, 4000), (24, 4000)),
    (_fixed(PAGE_LEAF, 0, _PAGE), (8, _PAGE)),          # empty page
    (_fixed(PAGE_LEAF, 28, 64), (64, 64)),              # no hole left
    # Everything else is live throughout: copy straight through.
    (_fixed(PAGE_OVERFLOW, 0, 0), (_PAGE, _PAGE)),      # data from +16
    (_fixed(PAGE_FREE, 0, 3000), (_PAGE, _PAGE)),       # freed page
    (_fixed(9, 5, 3000), (_PAGE, _PAGE)),               # unknown type
    (_fixed(PAGE_LEAF, 5, _PAGE + 2), (_PAGE, _PAGE)),  # past the end
    (_fixed(PAGE_LEAF, 40, 60), (_PAGE, _PAGE)),        # inside the array
], ids=["leaf", "internal", "meta", "empty-leaf", "full-leaf", "overflow",
        "freed", "unknown-type", "content-start-past-end",
        "content-start-in-header"])
def test_live_extents_by_page_type(header, expected):
    assert live_extents(header, _PAGE) == expected


def _single_leaf_engine(records, scheme="fast", **overrides):
    """A tree that is one 4 KiB leaf holding ``records`` 100-byte
    records; returns (engine, the leaf's page number)."""
    engine = make_engine(scheme, npages=32, page_size=_PAGE, **overrides)
    for i in range(records):
        engine.insert(b"k%03d" % i, b"v" * 100)
    leaf_no = engine.store.root(0)
    assert engine.store.page(leaf_no).page_type == PAGE_LEAF
    return engine, leaf_no


def test_hole_reads_raise_like_out_of_image_reads():
    engine, leaf_no = _single_leaf_engine(6)
    live = engine.store.page(leaf_no)
    head_end, tail_start = live.header_end(), live.content_start
    frame = engine.page_cache.fill(leaf_no)
    memory = frame.pm
    # The frame is addressed like the page it copies (no ``base == 0``
    # twin for page-identity comparers to trip over)...
    base = engine.store.page_base(leaf_no)
    assert frame.base == base
    # ...every copied byte answers exactly like PM...
    assert memory.read(base, head_end) == engine.pm.read(base, head_end)
    assert memory.read(base + tail_start, _PAGE - tail_start) == (
        engine.pm.read(base + tail_start, _PAGE - tail_start))
    assert [frame.record(slot) for slot in range(frame.nrecords)] == [
        live.record(slot) for slot in range(live.nrecords)]
    # ...and no hole byte answers at all, alone or inside a wider read.
    for offset in range(head_end, tail_start):
        with pytest.raises(IndexError):
            memory.read(base + offset, 1)
    for offset, length in ((head_end - 1, 2), (tail_start - 1, 2),
                           (0, _PAGE), (head_end - 4, tail_start)):
        with pytest.raises(IndexError):
            memory.read(base + offset, length)
    for offset in (head_end - 1, head_end, tail_start - 2, tail_start - 1):
        with pytest.raises(IndexError):
            memory.read_u16(base + offset)
    for addr, length in ((base + _PAGE - 1, 2), (base - 1, 2), (0, 8)):
        with pytest.raises(IndexError):
            memory.read(addr, length)      # the out-of-image reads it mirrors
    assert cache_counters(engine)["cache.fill_bytes"] == (
        head_end + _PAGE - tail_start)


def _cold_ns(engine, action):
    """Simulated ns and ``pm.load_miss`` delta of ``action`` with no PM
    line CPU-resident."""
    pm = engine.pm
    pm._rlines.clear()
    misses = pm._c_load_miss.value
    start = pm.clock.now_ns
    action()
    return pm.clock.now_ns - start, pm._c_load_miss.value - misses


def test_fill_costs_its_live_lines_and_never_more_than_the_full_copy():
    """Grow one leaf from empty to its split: every fill misses exactly
    the lines it keeps, and once the hole is too short to repay the
    second extent's first miss the fill is the old straight copy, to
    the nanosecond."""
    engine = make_engine("fast", npages=32, page_size=_PAGE)
    cache = engine.page_cache
    pm = engine.pm
    leaf_no = engine.store.root(0)
    base = engine.store.page_base(leaf_no)
    lines = _PAGE // 64
    # The hole must save more streamed lines than the extra miss costs.
    break_even = (pm._read_miss_ns - pm._stream_ns) / pm._stream_ns
    sparse = straight = 0
    for i in range(60):
        page = engine.store.page(leaf_no)
        if page.page_type != PAGE_LEAF:
            break                              # the leaf split: done
        head_lines = (page.header_end() - 1) // 64 + 1
        tail_lines = lines - page.content_start // 64
        full_ns, full_misses = _cold_ns(
            engine, lambda: pm.read(base, _PAGE))
        assert full_misses == lines
        cache.invalidate(leaf_no)
        copied = cache_counters(engine)["cache.fill_bytes"]
        fill_ns, fill_misses = _cold_ns(engine, lambda: cache.fill(leaf_no))
        copied = cache_counters(engine)["cache.fill_bytes"] - copied
        assert fill_ns <= full_ns
        if lines - head_lines - tail_lines > break_even:
            sparse += 1
            assert fill_misses == head_lines + tail_lines
            assert copied == page.header_end() + _PAGE - page.content_start
            assert fill_ns < full_ns
        else:
            straight += 1
            assert (fill_misses, fill_ns, copied) == (lines, full_ns, _PAGE)
        engine.insert(b"k%03d" % i, b"v" * 100)
    # Both sides of the rule were exercised, the short-hole side by the
    # nearly full page just before the split.
    assert sparse > 20 and straight >= 1


def test_page_stats_reads_the_free_list_from_pm():
    """The in-page free list is writer-side scratch no install
    publishes: a savepoint rollback can leave a chunk below the
    committed content area, where a sparse frame holds nothing, and a
    session rollback rewrites the list under a warm frame.  The stats
    walk must not depend on either."""
    answers = []
    for cache_pages in (0, 8):
        engine, _ = _single_leaf_engine(5, dram_cache_pages=cache_pages)
        txn = engine.session("writer").transaction()
        txn.insert(b"a001", b"A" * 40)
        txn.insert(b"a002", b"B" * 40)
        txn.delete(b"a001")                    # a cell dead to its own txn
        token = txn.savepoint()
        txn.insert(b"a003", b"C" * 40)
        txn.rollback_to(token)                 # rebuilds the list around it
        engine.search(b"k000")                 # warm a frame mid-transaction
        during = engine.page_stats()
        txn.rollback()
        answers.append((during, engine.page_stats(), list(engine.scan())))
    assert answers[0] == answers[1]


# ----------------------------------------------------------------------
# Equivalence: cache on == cache off for committed state
# ----------------------------------------------------------------------


def _apply_ops(engine, ops, index=None):
    """One autocommit transaction per op; ``index`` takes the
    ``hash-*`` kinds."""
    for kind, key, value in ops:
        if kind == "insert":
            with engine.transaction() as txn:
                txn.insert(key, value, replace=True)
        elif kind == "update":
            with engine.transaction() as txn:
                txn.update(key, value)
        elif kind == "delete":
            with engine.transaction() as txn:
                txn.delete(key)
        elif kind == "hash-insert":
            with engine.transaction() as txn:
                index.insert(txn.ctx, key, value, replace=True)
        elif kind == "hash-delete":
            with engine.transaction() as txn:
                index.delete(txn.ctx, key)
        else:
            engine.search(key)
    engine.drain_group_commit()


_DETERMINISTIC_OPS = (
    [("insert", b"k%03d" % i, b"v%03d" % i) for i in range(48)]
    + [("search", b"k%03d" % (i % 48), None) for i in range(96)]
    + [("update", b"k%03d" % i, b"w%03d" % i) for i in range(0, 48, 3)]
    + [("search", b"k%03d" % (i % 48), None) for i in range(48)]
    + [("delete", b"k%03d" % i, None) for i in range(0, 48, 7)]
    + [("search", b"k%03d" % (i % 48), None) for i in range(48)]
)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_cached_and_uncached_commit_identical_state(scheme):
    plain = make_engine(scheme, cache_pages=0)
    cached = make_engine(scheme, cache_pages=8)
    _apply_ops(plain, _DETERMINISTIC_OPS)
    _apply_ops(cached, _DETERMINISTIC_OPS)
    assert cached.page_cache is not None
    assert cache_counters(cached)["cache.hit"] > 0
    assert list(cached.scan()) == list(plain.scan())
    assert cached.verify() == plain.verify()
    # Reads never dirty the arena: the two runs' PM bytes are equal.
    assert arena_image(cached.pm) == arena_image(plain.pm)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_cache_off_runs_are_bit_identical(scheme):
    """``dram_cache_pages=0`` must behave as if the cache layer did not
    exist: no counters, no trace events, and repeat runs agree on every
    arena byte and every simulated nanosecond."""
    first = make_engine(scheme, cache_pages=0)
    second = make_engine(scheme, cache_pages=0)
    _apply_ops(first, _DETERMINISTIC_OPS)
    _apply_ops(second, _DETERMINISTIC_OPS)
    assert cache_counters(first) == {}
    assert arena_image(first.pm) == arena_image(second.pm)
    assert first.pm.clock.now_ns == second.pm.clock.now_ns


_KEYS = [b"key%02d" % i for i in range(24)]

# 2 KiB pages: small enough that a spilling value (> page - 128 bytes
# inline) stays cheap, large enough (32 lines) that most fills have a
# hole worth skipping.
_PROPERTY_GEOMETRY = dict(npages=128, page_size=2048)

_op_strategy = st.tuples(
    st.sampled_from(["insert", "update", "delete", "search",
                     "hash-insert", "hash-delete", "hash-search",
                     "savepoint", "rollback_to"]),
    st.sampled_from(_KEYS),
    st.integers(min_value=0, max_value=255),
    # Mostly small records; one in four spills to an overflow chain.
    st.sampled_from([24, 24, 24, 2000]),
)

# A run is a list of transactions: how each is opened (the engine's
# implicit transaction, or a strict-2PL session's, whose context takes
# lock claims), its ops, and whether it commits.  One-op
# committed plain transactions are the autocommit traffic that fills
# and invalidates frames between the longer ones.
_txns_strategy = st.lists(
    st.tuples(
        st.sampled_from(["plain", "session"]),
        st.lists(_op_strategy, min_size=1, max_size=5),
        st.sampled_from([True, True, True, False]),
    ),
    min_size=1,
    max_size=30,
)


def _run_transactions(engine, index, txns):
    """Run ``txns``; returns every answer an op gave from inside its
    transaction.  ``savepoint`` / ``rollback_to`` ops take and return to
    the transaction's latest savepoint (``rollback_to`` before any is a
    no-op)."""
    session = engine.session("writer")
    answers = []
    for how, ops, commits in txns:
        txn = session.transaction() if how == "session" else engine.transaction()
        token = None
        for kind, key, fill, size in ops:
            value = bytes([fill]) * (24 if kind.startswith("hash") else size)
            if kind.startswith("hash") and how == "session":
                # A raw-context call is its own top-level operation.
                txn.ctx.begin_op()
            if kind == "insert":
                txn.insert(key, value, replace=True)
            elif kind == "update":
                answers.append(txn.update(key, value))
            elif kind == "delete":
                answers.append(txn.delete(key))
            elif kind == "search":
                answers.append(txn.search(key))
            elif kind == "hash-insert":
                index.insert(txn.ctx, key, value, replace=True)
            elif kind == "hash-delete":
                answers.append(index.delete(txn.ctx, key))
            elif kind == "hash-search":
                answers.append(index.search(txn.ctx, key))
            elif kind == "savepoint":
                token = txn.savepoint()
            elif token is not None:
                txn.rollback_to(token)
        if commits:
            txn.commit()
        else:
            txn.rollback()
        # Committed reads between transactions: what fills the frames
        # the next transaction's context finds.
        answers.append(engine.search(ops[0][1]))
        answers.append(index.search(engine.read_view(), ops[0][1]))
    session.close()
    return answers


def _committed_answers(engine, index):
    """Everything a committed reader can ask, through ``read_view``."""
    view = engine.read_view()
    return {
        "search": [engine.search(key) for key in _KEYS],
        "scan": list(engine.scan()),
        "verify": engine.verify(),
        "page_stats": engine.page_stats(),
        "reachable": engine.reachable_pages(),
        "hash-search": [index.search(view, key) for key in _KEYS],
        "hash-items": sorted(index.items(view)),
        "hash-verify": index.verify(view),
    }


@given(txns=_txns_strategy, scheme=st.sampled_from(SCHEMES),
       cache_pages=st.sampled_from([1, 8]))
@settings(max_examples=25, deadline=None)
def test_cache_equivalence_property(txns, scheme, cache_pages):
    """Sparse frames answer exactly like the pages they copy — B-tree
    leaves and internals, overflow chains (copied straight through) and
    a hash index's META directory, down to a one-frame cache whose
    every fill evicts the page the descent just left — to committed
    readers and to the writers' own contexts alike: plain and
    locked-session transactions of several ops, savepoints, partial and
    full rollbacks all read through the tier, and every answer, every
    committed answer afterwards and every arena byte equals the
    uncached twin's."""
    outcomes = []
    for pages in (0, cache_pages):
        engine = make_engine(scheme, cache_pages=pages, **_PROPERTY_GEOMETRY)
        index = HashIndex(root_slot=2, nbuckets=8)
        with engine.transaction() as txn:
            index.create(txn.ctx)
        answers = _run_transactions(engine, index, txns)
        outcomes.append((answers, _committed_answers(engine, index),
                         arena_image(engine.pm)))
    assert outcomes[0] == outcomes[1]
    counters = cache_counters(engine)
    assert counters["cache.fill_skipped_bytes"] > 0
    assert counters["cache.miss"] == counters["cache.fill"]


# ----------------------------------------------------------------------
# Golden counters: the deterministic workload's exact cache profile
# ----------------------------------------------------------------------

# Keyed by (scheme, capacity): a roomy cache exercises the
# invalidation path (commits drop frames), a two-frame cache exercises
# the clock eviction path.  Both schemes read through the same tree
# shape under this workload, so their frame traffic happens to agree —
# the per-scheme parametrization is what pins that down — and only the
# bytes per fill differ (512-byte pages at 300 ns: the hole pays for a
# second extent only while a page is nearly empty).
#
# Re-pinned once, when writer contexts started to read through the
# tier.  ``cache.hit`` 374 -> 403 / 366 -> 391: the update and delete
# transactions' descents find the frames the searches before them
# filled.  ``cache.bypass`` is new: a writer's first touch that found
# no frame (all 48 opening inserts, and every page a commit just
# invalidated); FAST⁺ has three more because its first leaf splits three
# inserts sooner (the 28-record cap), after which an insert touches a
# root and a leaf.  Nothing else moves — writers fill nothing, so
# ``miss == fill`` stays the readers' — and here even the two-frame
# clock evicts the same 14 frames.
_GOLDEN = {
    ("fast", 8): {
        "cache.hit": 403, "cache.miss": 10, "cache.bypass": 81,
        "cache.fill": 10, "cache.evict": 0, "cache.invalidate": 6,
        "cache.fill_bytes": 4686, "cache.fill_skipped_bytes": 434,
    },
    ("fastplus", 8): {
        "cache.hit": 403, "cache.miss": 10, "cache.bypass": 84,
        "cache.fill": 10, "cache.evict": 0, "cache.invalidate": 6,
        "cache.fill_bytes": 4670, "cache.fill_skipped_bytes": 450,
    },
    ("fast", 2): {
        "cache.hit": 391, "cache.miss": 18, "cache.bypass": 85,
        "cache.fill": 18, "cache.evict": 14, "cache.invalidate": 2,
        "cache.fill_bytes": 6612, "cache.fill_skipped_bytes": 2604,
    },
    ("fastplus", 2): {
        "cache.hit": 391, "cache.miss": 18, "cache.bypass": 88,
        "cache.fill": 18, "cache.evict": 14, "cache.invalidate": 2,
        "cache.fill_bytes": 6516, "cache.fill_skipped_bytes": 2700,
    },
}


@pytest.mark.parametrize("capacity", (8, 2))
@pytest.mark.parametrize("scheme", SCHEMES)
def test_golden_cache_counters(scheme, capacity):
    engine = make_engine(scheme, cache_pages=capacity)
    _apply_ops(engine, _DETERMINISTIC_OPS)
    assert cache_counters(engine) == _GOLDEN[scheme, capacity]


# ----------------------------------------------------------------------
# The install seam: every kind of committed install drops its frame
# ----------------------------------------------------------------------

_SEAM_KEYS = [b"k%03d" % i for i in range(40)]
_SEAM_PROBES = _SEAM_KEYS + [b"n%03d" % i for i in range(12)]


def _seam_preload(engine):
    """Forty committed keys over five leaves under one internal root,
    with leaf page 2 fragmented by committed deletes — the only page a
    ``compact(min_waste=64)`` rewrites copy-on-write."""
    for key in _SEAM_KEYS:
        engine.insert(key, b"v" * 24)
    for key in _SEAM_KEYS[1:8:2]:
        engine.delete(key)
    engine.drain_group_commit()


def _seam_reads(engine):
    """Every probe key through ``search`` plus one full ``scan`` —
    doubles as the step that warms the frames."""
    return [engine.search(key) for key in _SEAM_PROBES], list(engine.scan())


def _cow_swap(engine, txn):
    """Defragment leaf 2 copy-on-write inside ``txn``: exactly one
    in-place pointer swap in the root, which is *not* otherwise dirtied
    — so only the swap primitive can drop the root's frame."""
    ctx = txn.inner_ctx
    assert engine.tree().compact(txn.ctx, min_waste=64) == 1
    assert len(ctx.pointer_swaps) == 1 and not ctx.root_updates
    parent_no = (ctx.pointer_swaps[0][0] - engine.store.base) // engine.store.page_size
    assert parent_no not in ctx.dirty


def _install_logged(engine, state):
    with engine.transaction() as txn:
        txn.update(b"k010", b"w" * 24)


def _install_inplace(engine, state):
    before = engine.inplace_commits
    engine.insert(b"k010", b"w" * 24, replace=True)
    assert engine.inplace_commits == before + 1


def _install_cow_swap(engine, state):
    with engine.transaction() as txn:
        _cow_swap(engine, txn)


def _open_swapped_session(engine):
    txn = engine.session("writer").transaction()
    token = txn.savepoint()
    _cow_swap(engine, txn)
    return txn, token


def _install_savepoint_reversal(engine, state):
    txn, token = state
    txn.rollback_to(token)      # un-swaps; nothing left to reverse below
    assert not txn.inner_ctx.pointer_swaps
    txn.rollback()


def _install_session_reversal(engine, state):
    txn, _ = state
    txn.rollback()


def _install_epoch_close(engine, state):
    with engine.transaction() as txn:
        txn.update(b"k010", b"w" * 24)
    assert engine.group.member_count == 1
    engine.drain_group_commit()


def _install_live_recovery(engine, state):
    # A commit whose checkpoint never ran (as if power failed right
    # after the mark) on an engine that stays alive: recovery's replay
    # loop is then the install.
    checkpoint = engine._checkpoint
    engine._checkpoint = lambda fetch: None
    try:
        engine.insert(b"k010", b"w" * 24, replace=True)
    finally:
        engine._checkpoint = checkpoint
    assert engine.log.pending_bytes()
    engine.recover()


def _install_free_then_reallocate(engine, state):
    free_before = engine.store.free_head
    with engine.transaction() as txn:
        for key in _SEAM_KEYS[14:21]:      # every record of one leaf
            txn.delete(key)
    emptied = engine.store.free_head
    assert emptied != free_before          # ...so the leaf was freed
    for key in _SEAM_PROBES[len(_SEAM_KEYS):]:
        engine.insert(key, b"x" * 24)
    # ...and a split has handed its page number to a different leaf.
    assert emptied in engine.reachable_pages()


# kind -> (scheme, extra config, open-state step run before warming,
#          the install, the seam helper whose invalidation it relies on)
_SEAM_ROWS = {
    "logged-commit": (
        "fast", {}, None, _install_logged,
        (FASTEngine, "_install_header")),
    "inplace-commit": (
        "fastplus", {}, None, _install_inplace,
        (FASTPlusEngine, "_commit_inplace")),
    "cow-defragment-swap": (
        "fast", {}, None, _install_cow_swap,
        (FASTEngine, "_swap_child_pointer")),
    "savepoint-rollback-unswap": (
        "fast", {}, _open_swapped_session, _install_savepoint_reversal,
        (FASTEngine, "_swap_child_pointer")),
    "session-rollback-unswap": (
        "fast", {}, _open_swapped_session, _install_session_reversal,
        (FASTEngine, "_swap_child_pointer")),
    "epoch-close": (
        "fast", {"group_commit_size": 4}, None,
        _install_epoch_close, (FASTEngine, "_install_header")),
    "live-recovery": (
        "fast", {}, None, _install_live_recovery,
        (FASTEngine, "_install_header")),
    "free-then-reallocate": (
        "fast", {}, None, _install_free_then_reallocate,
        (PageStore, "_link_free")),
}


@contextmanager
def _helper_stops_invalidating(monkeypatch, owner, name):
    """While active, ``owner.name`` still does its PM work but every
    ``TieredPageCache.invalidate`` it would issue is dropped."""
    helper = getattr(owner, name)

    def silenced(self, *args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(TieredPageCache, "invalidate",
                          lambda *a, **k: None)
            return helper(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(owner, name, silenced)
        yield


def _locked_session_reads(engine):
    """``_seam_reads`` asked by a strict-2PL session in one
    transaction: its context's first touch of every page goes through
    the same seam (a frame if there is one — it fills none)."""
    txn = engine.session("reader").transaction()
    answers = [txn.search(key) for key in _SEAM_PROBES], list(txn.scan())
    txn.commit()
    return answers


def run_seam_row(kind, cache_pages, monkeypatch=None, reads=_seam_reads):
    """Preload, (open the row's transaction), warm every frame, perform
    the install, and return what ``reads`` then answers.  With
    ``monkeypatch`` the row's seam helper stops invalidating for the
    duration of the install."""
    scheme, extra, open_state, install, (owner, name) = _SEAM_ROWS[kind]
    engine = make_engine(scheme, cache_pages=cache_pages, **extra)
    _seam_preload(engine)
    state = open_state(engine) if open_state is not None else None
    _seam_reads(engine)
    if monkeypatch is None:
        install(engine, state)
    else:
        with _helper_stops_invalidating(monkeypatch, owner, name):
            install(engine, state)
    return reads(engine)


@pytest.mark.parametrize("kind", sorted(_SEAM_ROWS))
def test_install_seam_keeps_cached_reads_coherent(kind, monkeypatch):
    expected = run_seam_row(kind, cache_pages=0)
    # A committed reader and a locked session's context read through
    # the same frames, so each must see the install...
    for reads in (_seam_reads, _locked_session_reads):
        assert run_seam_row(kind, cache_pages=16, reads=reads) == expected
        # ...and with the row's helper no longer invalidating each must
        # go stale — otherwise nothing enforces that call.
        try:
            stale = run_seam_row(kind, cache_pages=16,
                                 monkeypatch=monkeypatch, reads=reads)
        except IndexError:
            # A stale parent pointer led the descent into a freed page,
            # whose clobbered header has no slot 0.
            continue
        assert stale != expected
