"""Writer contexts read through the DRAM tier (DESIGN.md §17).

A ``FASTContext``'s first touch of a page goes through the engine's
committed-read seam: a *private* view over the cached frame if there
is one (a hit), else the PM page (a bypass — contexts never fill).
Every mutator promotes its page to PM, in place, before it stores.

* the view — private, at the page's own address, shares the frame's
  buffer and keeps it when the frame is dropped; refuses every
  free-space question until promoted;
* promotion — one row per mutator: frame-backed before, PM-backed
  after, and the first header read after it comes from PM;
* the askers — every free-space question the B-tree and the hash
  index ask comes after a (failed) mutator, i.e. of a promoted page;
* savepoint rollback leaves pages the transaction only read alone;
* open-epoch overlays bypass the tier for writers as for readers;
* crashes — a locked writer reading through frames the MVCC readers
  fill recovers to the committed prefix at every sampled crash point.
"""

import random
import sys

import pytest

from repro.core import SystemConfig
from repro.hashindex import HashIndex
from repro.obs import trace as ev
from repro.pm.crash import DropAll, PersistAll, RandomPersist
from repro.storage.cache import TieredPageCache
from repro.storage.slotted_page import (
    FLAG_HAS_OVERFLOW, PAGE_INTERNAL, PAGE_LEAF, SlottedPage,
)
from repro.testing.crashsim import ScheduledRun, crash_sweep, failing
from repro.testing.invariants import PageInvariantChecker
from tests.storage.test_cache import (
    _SEAM_KEYS,
    _cow_swap,
    _seam_preload,
    _seam_reads,
    SCHEMES,
    SMALL,
    arena_image,
    cache_counters,
    make_engine,
)


def _warm_engine(scheme="fast", cache_pages=16, **overrides):
    """The seam tests' tree (five leaves under one internal root, leaf
    page 2 fragmented) with every page's frame filled."""
    engine = make_engine(scheme, cache_pages=cache_pages, **overrides)
    _seam_preload(engine)
    _seam_reads(engine)
    return engine


def _leaf_no(engine, key):
    return engine.tree()._descend(engine.read_view(), key)[-1].page_no


def _locked_pages(engine, txn):
    """Page numbers ``txn``'s session holds a lock on."""
    held = engine.lock_manager.locks_of(txn.session.sid)
    return {ident for kind, ident in held if kind == "page"}


# ----------------------------------------------------------------------
# The view
# ----------------------------------------------------------------------


def test_first_touch_hits_a_frame_with_a_private_view_at_the_pages_address():
    engine = _warm_engine()
    cache, store = engine.page_cache, engine.store
    root_no = store.root(0)
    shared = cache._frames[root_no].page
    before = cache_counters(engine)
    seq = engine.trace.seq
    with engine.transaction() as txn:
        view = txn.ctx.page(root_no)
        assert view.frame_backed and view is not shared
        assert view.pm is shared.pm                    # the frame's buffer
        assert view.base == shared.base == store.page_base(root_no) != 0
        assert store.page_no_of(view) == root_no       # no second rule
        assert txn.ctx.page(root_no) is view           # one view per txn
        assert view.records() == store.page(root_no).records()
    after = cache_counters(engine)
    assert after["cache.hit"] == before["cache.hit"] + 1
    assert after["cache.miss"] == before["cache.miss"]
    assert after["cache.bypass"] == before.get("cache.bypass", 0)
    hits = engine.trace.events(ev.CACHE_HIT, since_seq=seq)
    assert [event[3] for event in hits] == [root_no]
    assert cache._frames[root_no].ref


def test_first_touch_without_a_frame_reads_pm_and_fills_nothing():
    engine = _warm_engine()
    cache = engine.page_cache
    root_no = engine.store.root(0)
    cache.invalidate(root_no)
    before = cache_counters(engine)
    frames = len(cache)
    with engine.transaction() as txn:
        page = txn.ctx.page(root_no)
        assert not page.frame_backed and page.pm is engine.pm
    after = cache_counters(engine)
    assert after["cache.bypass"] == before.get("cache.bypass", 0) + 1
    assert (after["cache.miss"], after["cache.fill"], after["cache.hit"]) == (
        before["cache.miss"], before["cache.fill"], before["cache.hit"])
    assert len(cache) == frames and root_no not in cache._frames


def test_cache_off_contexts_fetch_from_pm_directly():
    engine = make_engine(cache_pages=0)
    with engine.transaction() as txn:
        assert txn.ctx._first_touch == engine._fetch_page


_FREE_SPACE_QUESTIONS = (
    lambda page: page.freelist_head,
    lambda page: page.free_chunks(),
    lambda page: page.contiguous_free(),
    lambda page: page.total_free(),
    lambda page: page.fits_in_place([(24, True)]),
    lambda page: page.fits_after_copy(24),
)


def test_unpromoted_view_refuses_free_space_questions():
    """The frame's copy of the head word is stale and a chunk can lie
    in its hole, so — like a hole read — these raise instead of
    answering; what the committed cells say, a frame does answer."""
    engine = _warm_engine()
    leaf_no = 2                                         # the fragmented leaf
    live = engine.store.page(leaf_no)
    with engine.transaction() as txn:
        view = txn.ctx.page(leaf_no)
        assert view.frame_backed
        for question in _FREE_SPACE_QUESTIONS:
            with pytest.raises(TypeError, match="free-space"):
                question(view)
        assert view.dead_content_bytes() == live.dead_content_bytes() > 0
        txn.ctx._promote(view)
        assert [q(view) for q in _FREE_SPACE_QUESTIONS] == [
            q(live) for q in _FREE_SPACE_QUESTIONS]
    # The shared frame a committed reader gets refuses the same way.
    shared = engine.read_view().page(leaf_no)
    with pytest.raises(TypeError, match="free-space"):
        shared.total_free()


@pytest.mark.parametrize("drop", ["evict", "invalidate"])
def test_view_survives_its_frame(drop):
    """Eviction and invalidation drop the cache's reference to a buffer
    the view keeps: the open transaction goes on reading it, promotes
    it, and commits what the uncached twin commits."""
    outcomes = []
    for cache_pages in (0, 1):
        engine = make_engine(cache_pages=cache_pages)
        _seam_preload(engine)
        engine.search(b"k010")                  # one frame: k010's leaf
        leaf_no = _leaf_no(engine, b"k010")
        txn = engine.session("writer").transaction()
        assert txn.search(b"k010") == b"v" * 24
        if cache_pages:
            view = txn.inner_ctx._pages[leaf_no]
            assert view.frame_backed
            if drop == "evict":
                engine.search(b"k039")          # refills root, then a leaf
            else:
                engine.page_cache.invalidate(leaf_no)
            assert leaf_no not in engine.page_cache._frames
            assert view.frame_backed            # ...and none the wiser
        assert txn.search(b"k010") == b"v" * 24
        txn.update(b"k010", b"w" * 24)
        assert txn.search(b"k010") == b"w" * 24
        txn.commit()
        outcomes.append((_seam_reads(engine), arena_image(engine.pm)))
    assert outcomes[0] == outcomes[1]


# ----------------------------------------------------------------------
# Promotion: one row per mutator
# ----------------------------------------------------------------------


def _mutate_insert(engine, txn):
    txn.insert(b"k0105", b"n" * 24)
    return {_leaf_no(engine, b"k010")}


def _mutate_update(engine, txn):
    txn.update(b"k010", b"w" * 24)
    return {_leaf_no(engine, b"k010")}


def _mutate_delete(engine, txn):
    txn.delete(b"k010")
    return {_leaf_no(engine, b"k010")}


def _mutate_set_flags(engine, txn):
    # The B-tree sets a flag only after a cell write promoted the page;
    # called first, the mutator must promote it itself.
    leaf_no = _leaf_no(engine, b"k010")
    ctx = txn.inner_ctx
    ctx.set_page_flags(ctx._pages[leaf_no], FLAG_HAS_OVERFLOW)
    return {leaf_no}


def _mutate_cow_swap(engine, txn):
    # ``defragment`` promotes its source (leaf 2) and
    # ``overwrite_child_pointer`` the parent it stores into (the root,
    # which is not otherwise dirtied).
    _cow_swap(engine, txn)
    return {2, engine.store.root(0)}


@pytest.mark.parametrize("mutate", [
    _mutate_insert, _mutate_update, _mutate_delete, _mutate_set_flags,
    _mutate_cow_swap,
], ids=["insert_record", "update_record", "delete_record", "set_page_flags",
        "defragment+overwrite_child_pointer"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_mutators_promote_their_page_in_place(scheme, mutate):
    engine = _warm_engine(scheme)
    pm, store = engine.pm, engine.store

    def header_line_in_cpu_cache(page_no):
        return store.page_base(page_no) >> 6 in pm._rlines

    txn = engine.session("writer").transaction()
    ctx = txn.inner_ctx
    root_no = store.root(0)
    pm._rlines.clear()
    for key in _SEAM_KEYS:                  # descend to every leaf
        txn.search(key)
    views = dict(ctx._pages)
    # The context keeps a view of each leaf the searches latched, and
    # of nothing else: the root was only routed through.
    leaves = {_leaf_no(engine, key) for key in _SEAM_KEYS}
    assert set(views) == leaves == _locked_pages(engine, txn)
    assert len(views) == 5 and root_no not in views
    # Every descent went through DRAM: no page line was loaded from PM.
    assert all(view.frame_backed for view in views.values())
    assert not any(header_line_in_cpu_cache(no) for no in leaves | {root_no})
    promoted = mutate(engine, txn)
    assert set(ctx._pages) <= _locked_pages(engine, txn)
    for page_no, view in views.items():
        assert ctx._pages.get(page_no, view) is view       # in place
    for page_no in leaves | {root_no}:
        view = ctx._pages.get(page_no, views.get(page_no))
        if page_no in promoted:
            assert not view.frame_backed and view.pm is pm
            assert view._validated is store.freelist_validated
            # Its first header read after promotion came from PM.
            assert header_line_in_cpu_cache(page_no)
        else:
            assert view is None or view.frame_backed
            assert not header_line_in_cpu_cache(page_no)
    txn.commit()
    assert engine.verify() == len(list(engine.scan()))


# ----------------------------------------------------------------------
# The askers: free-space questions come after a (failed) mutator
# ----------------------------------------------------------------------


#: The B-tree asks free-space questions in ``_make_room``, of a leaf
#: (the leaf room-making the parameter calls ``_make_room``) and of an
#: internal page (``_insert_cell``); the hash index in ``insert``.
_ASKERS = {
    ("_make_room", PAGE_LEAF): "_make_room",
    ("_make_room", PAGE_INTERNAL): "_insert_cell",
}


@pytest.fixture
def asked(monkeypatch):
    """Every ``fits_after_copy`` call as (asker, was the page still
    frame-backed)."""
    calls = []
    original = SlottedPage.fits_after_copy

    def spy(self, *args, **kwargs):
        caller = sys._getframe(1).f_code.co_name
        asker = _ASKERS.get((caller, self.page_type), caller)
        calls.append((asker, self.frame_backed))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(SlottedPage, "fits_after_copy", spy)
    return calls


def _grow_tree(engine, keys):
    """One autocommit insert per key, each preceded by a committed
    search for it — so the insert's context finds frames for its whole
    descent, and the *first* mutation it attempts is the one that can
    fail on a full page."""
    for key in keys:
        engine.search(key)
        engine.insert(key, b"v" * 24)


@pytest.mark.parametrize("asker", ["_make_room", "_insert_cell"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_btree_askers_ask_promoted_pages(scheme, asker, asked):
    # 40-byte keys: ~6 records per 512-byte leaf and ~8 cells per
    # internal page, so 120 inserts split leaves (``_make_room``) and
    # overflow the root internal page (``_insert_cell``).
    keys = [b"key-%036d" % i for i in range(120)]
    outcomes = []
    for cache_pages in (0, 16):
        engine = make_engine(scheme, cache_pages=cache_pages)
        del asked[:]
        _grow_tree(engine, keys)
        assert engine.verify() == len(keys)
        outcomes.append((list(engine.scan()), arena_image(engine.pm)))
    assert outcomes[0] == outcomes[1]
    assert cache_counters(engine)["cache.hit"] > len(keys)
    assert (asker, False) in asked
    assert not any(frame_backed for _, frame_backed in asked)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_hash_index_asker_asks_promoted_pages(scheme, asked):
    keys = [b"h%03d" % i for i in range(60)]
    outcomes = []
    for cache_pages in (0, 16):
        engine = make_engine(scheme, cache_pages=cache_pages)
        index = HashIndex(root_slot=2, nbuckets=2)
        with engine.transaction() as txn:
            index.create(txn.ctx)
        del asked[:]
        for key in keys:
            index.search(engine.read_view(), key)   # warm the chain
            with engine.transaction() as txn:
                index.insert(txn.ctx, key, b"v" * 24)
        view = engine.read_view()
        assert index.verify(view) == len(keys)
        outcomes.append((sorted(index.items(view)), arena_image(engine.pm)))
    assert outcomes[0] == outcomes[1]
    assert ("insert", False) in asked
    assert not any(frame_backed for _, frame_backed in asked)


# ----------------------------------------------------------------------
# Savepoint rollback restores only what had a pending header
# ----------------------------------------------------------------------


@pytest.mark.parametrize("scheme", SCHEMES)
def test_savepoint_rollback_leaves_pages_it_only_read_alone(scheme):
    """``rollback_to`` used to rebuild the free list of *every* page
    the context held — a wasted rewrite of pages held under an S latch
    only, and on a frame-backed view ``TypeError: page images are
    read-only``."""
    outcomes = []
    for cache_pages in (0, 8):
        engine = _warm_engine(scheme, cache_pages=cache_pages)
        store = engine.store
        txn = engine.session("writer").transaction()
        ctx = txn.inner_ctx
        root_no, read_leaf = store.root(0), _leaf_no(engine, b"k030")
        assert txn.search(b"k030") == b"v" * 24     # root + a leaf: read only
        token = txn.savepoint()
        txn.insert(b"k0105", b"n" * 24)             # another leaf: mutated
        # Kept: the two latched leaves, one of them mutated; the root
        # the descents only routed through is not kept at all.
        assert set(ctx._pages) == _locked_pages(engine, txn)
        assert root_no not in ctx._pages and len(ctx._pages) == 2
        assert not ctx._pages[read_leaf].has_pending
        seq = engine.trace.seq
        txn.rollback_to(token)
        stores = engine.trace.events(ev.STORE, since_seq=seq)
        assert stores                               # the mutated leaf's list
        for page_no in (root_no, read_leaf):
            base = store.page_base(page_no)
            assert not [s for s in stores
                        if s[3] < base + store.page_size and s[3] + s[4] > base]
        assert ctx._pages[read_leaf].frame_backed == bool(cache_pages)
        assert txn.search(b"k0105") is None
        assert txn.search(b"k030") == b"v" * 24
        txn.insert(b"k0305", b"m" * 24)
        txn.commit()
        outcomes.append((_seam_reads(engine), engine.page_stats(),
                         arena_image(engine.pm)))
    assert outcomes[0] == outcomes[1]


# ----------------------------------------------------------------------
# Open-epoch overlays bypass the tier
# ----------------------------------------------------------------------


def test_open_epoch_overlay_bypasses_the_tier_for_writers():
    """An overlaid page's visible committed state is durable header +
    member image; its (still resident, pre-join) frame holds only the
    former, so a context — like a committed reader — is not even asked
    to look."""
    engine = _warm_engine(group_commit_size=4)
    leaf_no = _leaf_no(engine, b"k010")
    with engine.transaction() as txn:
        txn.update(b"k010", b"w" * 24)
    assert engine.group.overlaid(leaf_no)
    assert leaf_no in engine.page_cache._frames
    before = cache_counters(engine)
    txn = engine.session("writer").transaction()
    page = txn.ctx.page(leaf_no)
    assert not page.frame_backed and page.pm is engine.pm and page.has_pending
    after = cache_counters(engine)
    assert (after["cache.hit"], after.get("cache.bypass", 0)) == (
        before["cache.hit"], before.get("cache.bypass", 0))
    assert txn.search(b"k010") == b"w" * 24         # the member's commit
    txn.commit()
    engine.drain_group_commit()
    assert engine.search(b"k010") == b"w" * 24


# ----------------------------------------------------------------------
# Crashes: a locked writer over frames the MVCC readers fill
# ----------------------------------------------------------------------


def _crash_workloads():
    keys = [b"k%02d" % i for i in range(18)]
    writer = []
    for i, key in enumerate(keys):
        writer.append(("insert", key, b"v%02d" % i * 8))
        if i % 3 == 2:
            writer.append(("txn", [
                ("update", keys[i - 1], b"w%02d" % i * 8),
                ("delete", keys[i - 2], None),
                ("insert", b"n%02d" % i, b"x" * 24),
            ]))
    readers = [
        {"items": [("search", keys[(3 * r + j) % len(keys)], None)
                   for j in range(10)],
         "isolation": "read_only"}
        for r in range(3)
    ]
    return [writer] + readers


@pytest.mark.parametrize("scheme", SCHEMES)
def test_crash_sweep_with_a_writer_reading_through_frames(scheme, monkeypatch):
    hits = []
    original = TieredPageCache.view

    def counting_view(self, page_no):
        page = original(self, page_no)
        if page is not None:
            hits.append(page_no)
        return page

    monkeypatch.setattr(TieredPageCache, "view", counting_view)
    config = SystemConfig(dram_cache_pages=8, **SMALL)
    failures = failing(crash_sweep(
        ScheduledRun(scheme, _crash_workloads()),
        config=config,
        max_points=40,
        policies=[DropAll(), PersistAll(),
                  RandomPersist(rng=random.Random(1)),
                  RandomPersist(rng=random.Random(2))],
    ))
    assert failures == [], failures[:3]
    assert hits, "the writer's contexts never found a frame"
    if scheme == "fast":
        # One cell again, checked after every step: no free chunk or
        # cell may overlap a cell some owner still counts on.
        failures = failing(crash_sweep(
            ScheduledRun(scheme, _crash_workloads()),
            config=config,
            max_points=12,
            policies=[DropAll()],
            checker_factory=PageInvariantChecker,
        ))
        assert failures == [], failures[:3]
