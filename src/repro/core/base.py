"""Engine and transaction base classes.

An ``Engine`` owns the simulated persistent memory, the page store,
and one B-tree per named root slot.  Subclasses provide the commit
scheme by naming their ``context_class`` (a :class:`MutationContext`,
whose ``_undo`` serves savepoints and rollback alike) and implementing
``_commit`` / ``recover``.

The measured quantity everywhere is *simulated* time: the engine's
``clock`` accumulates nanoseconds charged by the memory hierarchy, and
the named segments ("search", "page_update", "commit", plus the
sub-phases) correspond to the bars of the paper's breakdown figures.
"""

from contextlib import nullcontext
from functools import partial

from repro.btree.btree import BTree
from repro.core.locking import (
    LOCK_IS, LOCK_IX, LOCK_X, page_resource, root_resource,
)
from repro.core.occ import OCCConflict, OccContext, occ_commit
from repro.core.session import ISOLATION_MODES, Session
from repro.pm.memory import PersistentMemory
from repro.storage.defrag import defragment_into
from repro.storage.pagestore import N_ROOT_SLOTS, PageStore
from repro.storage.slotted_page import CELL_HEADER_SIZE

#: Shared reusable no-op context manager: the default (session-less)
#: transaction path opens this instead of a session clock segment.
_NULL_CM = nullcontext()


def _null_segment():
    return _NULL_CM


def _resumed(begin_op, cursor):
    """``cursor``, each resumption its own operation: a lazy scan's
    page latches are reads of its own, not part of whatever operation
    (a store, say) ran in the transaction since its last step."""
    while True:
        begin_op()
        try:
            item = next(cursor)
        except StopIteration:
            return
        yield item


class TransactionError(Exception):
    """Illegal transaction state (nested begin, reuse after close...)."""


class ReadView:
    """Committed-state view for searches and scans, over the engine's
    one read seam (scheme contexts take their first touch of a page
    through it too).  ``page`` — and ``route``, the same read for a
    descent — is ``Engine._read_page`` (DRAM cache tier → open-epoch
    member overlays → the scheme's page fetch) and ``root_page_no`` is
    ``Engine._root``; every protocol member is bound straight to its
    target, so the view itself adds no call depth.  Built per
    ``read_view()`` call, never kept on the engine: a stored view would
    close an engine → view → bound-method → engine cycle and park dead
    engines' arenas until a full GC.

    ``fill=False`` reads the way a writer context's first touch does:
    a frame is hit if one exists, but a miss reads PM (``cache.bypass``)
    instead of filling one — for one-pass walks (GC reachability,
    ``page_stats``) that would otherwise evict the hot set."""

    __slots__ = ("segment", "root_page_no", "page", "route")

    def __init__(self, engine, fill=True):
        self.segment = engine.pm.clock.segment
        self.root_page_no = engine._root
        if fill:
            self.page = self.route = engine._read_page
        else:
            self.page = self.route = partial(engine._read_page, writer=True)


class MutationContext:
    """The B-tree's mutation protocol (:mod:`repro.btree.btree`),
    written once for every commit scheme (DESIGN.md §10).

    Every protocol method's body lives here; a scheme supplies only the
    hooks that say how a page change becomes durable.  Before the
    store a frame-backed view (FAST's DRAM tier) is promoted here
    (``_promote``), and NVWAL snapshots its frame in its ``_write`` /
    ``_write_pointer``, which wrap a whole page write in one
    ``volatile_buffer_caching`` span.  After the store, ``_stored``:
    FAST marks the page dirty, NVWAL and naive apply the header (naive
    also flushes it).  For a dead cell, ``_dead``: FAST defers the
    reclaim, the others reclaim at once.  NVWAL writes records without
    the in-place span and deferred flush of ``_write_record``
    (``flush_records``); the page-level
    steps ``_allocate``, ``_defragment``, ``_free``, ``_set_root`` and
    ``_repoint`` default to the PM store and to deferral.  A savepoint
    and a rollback are one undo, ``restore_state``; its durable part is
    the scheme's ``_undo``.

    Locking is the claim hook ``_claim(resource, mode)``: None here, so
    the plain path tests an attribute and makes no call; a strict-2PL
    context mixes in :class:`repro.core.locking.TwoPhaseLocking`.
    Every body claims X — on the page it writes, or the root slot —
    before its first store, and reports the store once it is done
    (``_stored_claimed``); ``lock_ahead`` claims without storing.
    """

    _claim = None

    def __init__(self, engine, session=None):
        self.engine = engine
        self.session = session
        self.store = engine.store
        self.pm = engine.pm
        self.clock = engine.pm.clock
        self.obs = engine.obs
        self.segment = self.clock.segment  # hot-path alias
        # First touch of a page.  Until this transaction mutates it the
        # page has no pending header and the committed page *is* the
        # transaction's view of it, so with a DRAM tier it comes through
        # the engine's committed-read seam: a private view over the
        # cached frame if there is one, else PM (``Engine._read_page``).
        # Every mutator promotes its page to PM first (``_promote``).
        if engine.page_cache is None:
            self._first_touch = engine._fetch_page
        else:
            self._first_touch = partial(engine._read_page, writer=True)
        self._pages = {}
        self.dirty = {}        # page_no -> page the commit publishes
        self.new_pages = {}    # page_no -> page created by this txn
        self.freed = []        # page_nos released once the txn commits
        self.root_updates = {}
        # (address, length) of each record written and not yet flushed:
        # ``flush_records`` flushes their lines, once each.
        self.unflushed = []

    def uncommitted_pages(self):
        """Pages this open transaction owns (GC protection set)."""
        return set(self.new_pages)

    # -- savepoints and rollback -------------------------------------------

    #: The savepoint of an empty transaction: restoring it is the
    #: rollback (``Engine._rollback``).  A scheme extends it with the
    #: fields its ``snapshot_state`` adds.
    BEGIN = {
        "dirty": (), "new_pages": (), "freed": 0, "root_updates": {},
        "unflushed": 0,
    }

    def snapshot_state(self):
        """A savepoint (``Transaction.savepoint``): the tracking every
        context keeps; a scheme adds what its ``_undo`` needs."""
        return {
            "dirty": tuple(self.dirty),
            "new_pages": tuple(self.new_pages),
            "freed": len(self.freed),
            "root_updates": dict(self.root_updates),
            "unflushed": len(self.unflushed),
        }

    def restore_state(self, snapshot):
        """Undo everything since ``snapshot`` — a savepoint, or
        :attr:`BEGIN` for the whole transaction: the scheme's durable
        undo (``_undo``), then the tracking.  Every list restored here
        only grew since the snapshot, so its length marks it."""
        # FAST views every page it touched in ``_pages``; NVWAL tracks
        # its frames in ``dirty`` alone.
        pages = {**self._pages, **self.dirty}
        self._undo(snapshot)
        self.dirty = {no: pages[no] for no in snapshot["dirty"]}
        self.new_pages = {no: pages[no] for no in snapshot["new_pages"]}
        del self.freed[snapshot["freed"]:]
        self.root_updates = dict(snapshot["root_updates"])
        # Records written since sit in free space no header names.
        del self.unflushed[snapshot["unflushed"]:]

    @property
    def is_read_only(self):
        return not (
            self.dirty or self.new_pages or self.freed or self.root_updates
        )

    # -- view protocol ---------------------------------------------------

    def root_page_no(self, slot):
        if slot in self.root_updates:
            return self.root_updates[slot]
        return self.engine._root(slot)

    def _lookup(self, page_no):
        """This transaction's view of ``page_no`` (its pending header
        included), cached from the first touch on."""
        page = self._pages.get(page_no)
        if page is None:
            page = self._first_touch(page_no)
            self._pages[page_no] = page
        return page

    page = route = _lookup

    def keep(self, page_no, page):
        """Cache ``page`` as this transaction's view of ``page_no``: a
        view a locked ``route`` read fresh and has just latched, so
        nobody else can install there while it is kept."""
        self._pages[page_no] = page

    def _page_no(self, page):
        return self.store.page_no_of(page)

    # -- mutation protocol -------------------------------------------------

    def insert_record(self, page, slot, payload):
        return self._edit(
            page, None, self._write_record, page, page.pending_insert, slot,
            payload,
        )

    def update_record(self, page, slot, payload):
        return self._edit(
            page, slot, self._write_record, page, page.pending_update, slot,
            payload,
        )

    def delete_record(self, page, slot):
        self._edit(page, slot, page.pending_delete, slot)

    def set_page_flags(self, page, mask):
        self._edit(page, None, page.pending_set_flags, mask)

    def _edit(self, page, dead, store, *args):
        """The one body of the four page edits: claim ``page``, then
        write it (``_write``).  The plain path computes no resource."""
        if self._claim is None:
            return self._write(page, dead, store, args)
        return self._claimed(page_resource, self._page_no(page),
                             self._write, page, dead, store, args)

    def _write(self, page, dead, store, args):
        """Run ``store(*args)`` on ``page``, record the store, and hand
        over the cell it left dead (the one that was in slot ``dead``,
        if any)."""
        if page.frame_backed:
            self._promote(page)
        if dead is not None:
            dead = page.slot_offset(dead)
        result = store(*args)
        self._stored(page)
        if dead is not None:
            self._dead(page, dead)
        return result

    def _claimed(self, resource, ident, store, *args):
        """``store(*args)`` behind an X claim on ``resource(ident)``,
        reported once done; a plain context just stores."""
        claim = self._claim
        if claim is None:
            return store(*args)
        claim(resource(ident), LOCK_X)
        result = store(*args)
        self._stored_claimed()
        return result

    def allocate_page(self, page_type):
        page_no, page = self._allocate(page_type)
        if self._claim is not None:
            # A fresh page is uncontended: the grant cannot conflict.
            self._claim(page_resource(page_no), LOCK_X)
            self._stored_claimed()
        return page_no, page

    def free_page(self, page_no):
        self._claimed(page_resource, page_no, self._free, page_no)

    def set_root(self, slot, page_no):
        self._claimed(root_resource, slot, self._set_root, slot, page_no)

    def overwrite_child_pointer(self, parent_page, slot, new_child_no):
        """Repoint ``parent_page``'s cell ``slot`` at ``new_child_no``
        with one u32 store (the paper's in-place pointer swap after a
        copy-on-write, Section 4.3)."""
        self._claimed(page_resource, self._page_no(parent_page),
                      self._write_pointer, parent_page, slot, new_child_no)

    def flush_records(self):
        """Flush every line the records written since the last call
        dirtied, each line once, however many records share it: the
        B-tree calls this as an operation's page update ends, and a
        commit before its first fence, so record bytes are durable
        before any header names them (DESIGN.md §7 item 9).  One
        record — the common case — is one ``flush_range``."""
        ranges = self.unflushed
        if not ranges:
            return
        flush_range = self.pm.flush_range
        with self.obs.span("clflush_record"):
            if len(ranges) == 1:
                flush_range(*ranges[0])
            else:
                lines = sorted({
                    line for addr, n in ranges
                    for line in range(addr >> 6, ((addr + n - 1) >> 6) + 1)
                })
                start = prev = lines[0]
                for line in lines[1:]:
                    if line != prev + 1:
                        flush_range(start << 6, (prev + 1 - start) << 6)
                        start = line
                    prev = line
                flush_range(start << 6, (prev + 1 - start) << 6)
        ranges.clear()

    def lock_ahead(self, page=None, root_slot=None):
        """Claim ``page`` — or, given none, root slot ``root_slot`` — X
        for an operation that will write it, before its first store
        (the B-tree claims an operation's whole footprint this way).
        It stores nothing, so a conflict here parks the transaction
        instead of aborting it.  A claimed frame-backed page is
        promoted, so its free space can be asked.  Returns False, and
        claims nothing, on a context without a claim hook."""
        claim = self._claim
        if claim is None:
            return False
        if page is None:
            claim(root_resource(root_slot), LOCK_X)
        else:
            claim(page_resource(self._page_no(page)), LOCK_X)
            if page.frame_backed:
                self._promote(page)
        return True

    def defragment(self, page_no):
        fresh_no, fresh = self._claimed(
            page_resource, page_no, self._defragment, page_no
        )
        if self._claim is not None:
            self._claim(page_resource(fresh_no), LOCK_X)
        return fresh_no, fresh

    # -- scheme hooks ------------------------------------------------------

    def _write_pointer(self, page, slot, child_no):
        if page.frame_backed:
            self._promote(page)
        offset = page.slot_offset(slot)
        self._repoint(page.base + offset + CELL_HEADER_SIZE, child_no)

    def _promote(self, page):
        """Re-seat a frame-backed view on its PM page, in place (the
        B-tree's descent path holds the object), before its first
        store.  No committed install can have made PM differ from the
        frame since the view was taken: a kept view is of a page this
        transaction holds a lock on, a route-only view is fresh from
        the step that X-claims it, and this transaction's own installs
        happen at its commit — bar the pointer swap, which promotes the
        parent first (DESIGN.md §17)."""
        page.promote(self.pm, self.store.freelist_validated)

    def _write_record(self, page, store, slot, payload):
        """Write a record in place into the page's free space; its lines
        are flushed by ``flush_records``, with the other records the
        operation writes."""
        with self.obs.span("in_place_record_insert"):
            offset = store(slot, payload)
        self.unflushed.append(page.record_range(offset, len(payload)))
        return offset

    def _allocate(self, page_type):
        page = self.store.allocate_page(page_type)
        page_no = self.store.page_no_of(page)
        self._pages[page_no] = page
        self._created(page_no, page)
        return page_no, page

    def _defragment(self, page_no):
        """Copy the page's live records into a fresh page (paper
        Section 4.3); the caller swaps the parent pointer."""
        with self.obs.span("defrag"):
            page = self._lookup(page_no)
            if page.frame_backed:
                self._promote(page)
            fresh = defragment_into(self.store, page)
        fresh_no = self.store.page_no_of(fresh)
        self._pages[fresh_no] = fresh
        self._created(fresh_no, fresh)
        return fresh_no, fresh

    def _created(self, page_no, page):
        """A page this transaction allocated (nothing to record)."""

    def _free(self, page_no):
        """Deferred to the commit: no page is reused within a
        transaction (savepoints and rollback rely on it), and all other
        tracking stays intact so rollback can still restore the page if
        the free itself is rolled back."""
        self.freed.append(page_no)

    def _set_root(self, slot, page_no):
        """Deferred: the new root becomes visible with the commit."""
        self.root_updates[slot] = page_no


class Transaction:
    """A database transaction: a scheme context plus B-tree bindings.

    Usable as a context manager — commits on normal exit, rolls back
    on exception::

        with engine.transaction() as txn:
            txn.insert(b"key", b"value")

    One lifecycle (begin → mode → ops → prepare → commit/rollback →
    epilogue, DESIGN.md §10) runs every ``mode``.  The mode is decided
    once, by whoever begins the transaction, and everything downstream
    dispatches on it:

    ``"plain"``
        the engine's implicit single-writer transaction: no session,
        the bare scheme context.
    ``"locked"``
        a session's strict-2PL transaction: the scheme context with
        its claim hook filled in (``TwoPhaseLocking``), simulated time
        attributed to the session's clock segment.
    ``"read_only"``
        a snapshot pinned at the current commit frontier — no scheme
        context, no locks, no IS/S traffic at all.
    ``"occ"``
        reads at a pinned *tracked* snapshot, writes buffered in a
        private write set that installs (under short X locks) only at
        commit (:mod:`repro.core.occ`).

    A session's transactions get their mode from
    ``Session._begin_mode()`` and notify the session when they finish.
    """

    def __init__(self, engine, session=None, mode="plain"):
        self.engine = engine
        self.session = session
        self.mode = mode
        if session is not None:
            self._op_segment = session.op_segment
        else:
            self._op_segment = _null_segment
        self.ctx = self._open_ctx()
        self._done = False

    def _open_ctx(self):
        engine, session, mode = self.engine, self.session, self.mode
        if mode == "read_only":
            return engine.version_manager.begin_snapshot(session)
        if mode == "occ":
            return OccContext(engine, session)
        return engine._new_context(session, locked=mode == "locked")

    @property
    def inner_ctx(self):
        """The scheme context — what the engine's commit/rollback/
        recovery paths consume.  For an OCC transaction this is the
        installed context once the write set has replayed (the
        OccContext itself before that)."""
        ctx = self.ctx
        if self.mode == "occ" and ctx.installed_ctx is not None:
            return ctx.installed_ctx
        return ctx

    @property
    def pinned_snapshot(self):
        """The MVCC snapshot this transaction pinned (read-only and
        OCC modes; None otherwise) — the session epilogue unpins it."""
        if self.mode == "read_only":
            return self.ctx
        if self.mode == "occ":
            return self.ctx.snapshot
        return None

    @property
    def is_writer(self):
        """Does a scheme context hold changes of this transaction's to
        commit or roll back?  Never for a snapshot; for an OCC
        transaction only once its write set installed."""
        return not self.inner_ctx.is_read_only

    # -- data operations ------------------------------------------------

    def _op(self, name, root_slot, intent, *args, **kwargs):
        """One logical operation under this transaction's mode: OCC
        buffers it in the write set; 2PL takes the root's intention
        lock first; every other mode goes straight to the tree."""
        ctx = self.ctx
        if self.mode == "occ":
            return getattr(ctx, name)(root_slot, *args, **kwargs)
        if self.mode == "locked":
            ctx.begin_op()
            ctx.lock_root(root_slot, intent)
        return getattr(self.engine.tree(root_slot), name)(
            ctx, *args, **kwargs
        )

    def insert(self, key, value, *, root_slot=0, replace=False):
        self._check_writable()
        with self._op_segment():
            self._op("insert", root_slot, LOCK_IX, key, value,
                     replace=replace)

    def update(self, key, value, *, root_slot=0):
        self._check_writable()
        with self._op_segment():
            return self._op("update", root_slot, LOCK_IX, key, value)

    def delete(self, key, *, root_slot=0):
        self._check_writable()
        with self._op_segment():
            return self._op("delete", root_slot, LOCK_IX, key)

    def search(self, key, *, root_slot=0):
        """Read inside the transaction (sees its own writes)."""
        self._check_open()
        with self._op_segment():
            return self._op("search", root_slot, LOCK_IS, key)

    def scan(self, lo=None, hi=None, *, root_slot=0):
        self._check_open()
        cursor = self._op("scan", root_slot, LOCK_IS, lo, hi)
        if self.mode != "locked":
            return cursor
        return _resumed(self.ctx.begin_op, cursor)

    def create_tree(self, root_slot):
        """Allocate an empty tree at ``root_slot`` (commits with txn)."""
        self._check_writable()
        with self._op_segment():
            self._op("create", root_slot, LOCK_IX)

    def drop_tree(self, root_slot):
        """Clear ``root_slot`` (commits with txn); garbage collection
        reclaims the tree's unreachable pages."""
        self._check_writable()
        with self._op_segment():
            self._op("drop", root_slot, LOCK_IX)

    def savepoint(self):
        """Capture a point to partially roll back to (``rollback_to``).

        Returns an opaque token.  Schemes that apply changes in place
        immediately (naive) cannot support this.
        """
        self._check_writable()
        snapshot = getattr(self.ctx, "snapshot_state", None)
        if snapshot is None:
            raise TransactionError(
                "the %r scheme does not support savepoints" % self.engine.scheme
            )
        return snapshot()

    def rollback_to(self, token):
        """Undo every change made after ``savepoint()`` returned
        ``token``; the transaction stays open."""
        self._check_writable()
        self.ctx.restore_state(token)

    # -- lifecycle --------------------------------------------------------

    def commit(self):
        self._check_open()
        if self.mode == "occ":
            # May raise OCCConflict, leaving the transaction OPEN: the
            # caller (normally the scheduler) rolls it back and
            # retries, eventually under the 2PL fallback.
            try:
                with self._op_segment():
                    occ_commit(self._legs(), self._commit_work)
            except OCCConflict:
                self.session._occ_failed()
                raise
            except Exception:
                # A failed commit: ``occ_commit`` has undone the install.
                self._finish(False, None)
                raise
            self._finish(True, None)
        elif self.mode == "read_only":
            # Nothing to make durable: a snapshot read nothing but
            # committed versions and wrote nothing.  Ending the
            # transaction unpins the snapshot (advancing the GC
            # watermark) via the session epilogue.
            self._finish(True, None)
        else:
            self._finish(True, self._commit_work)

    def rollback(self):
        self._check_open()
        if self.mode in ("read_only", "occ"):
            # Nothing durable to undo: a snapshot wrote nothing, and
            # an OCC write set that never installed (or whose install
            # already rolled back) lives only in the buffer.
            self._finish(False, None)
        else:
            self._finish(False, self._rollback_work)

    def _legs(self):
        """The transactions whose contexts commit together: this one
        (a sharded transaction answers with its per-shard legs)."""
        return [self]

    def _commit_work(self):
        self.engine._commit(self.inner_ctx)

    def _rollback_work(self):
        self.engine._rollback(self.inner_ctx)

    def _finish(self, committed, work):
        """The one transaction epilogue every isolation mode shares:
        run the scheme work (if any) inside the session's clock
        segment, count the outcome, then — committed, aborted, or
        crashed mid-commit — hand the transaction back to its owner.

        A commit that raises (the log has no room for its frames...)
        has stored nothing yet: it is rolled back, reported aborted,
        and the error re-raised.  A power cut is no ``Exception`` and
        runs no handler.
        """
        try:
            if work is not None:
                with self._op_segment():
                    try:
                        work()
                    except Exception:
                        if not committed:
                            raise
                        committed = False
                        self._rollback_work()
                        self.engine._c_txn_rollback.inc()
                        raise
            engine = self.engine
            (engine._c_txn_commit if committed
             else engine._c_txn_rollback).inc()
        finally:
            self._end(committed)

    def _end(self, committed):
        """Hand the finished transaction back: the session epilogue
        releases its locks, unpins its snapshot and (unless quiet)
        emits the TXN event.  A sharded transaction ends its legs
        through this, without their scheme work."""
        self._done = True
        if self.session is None:
            self.engine._active = None
        else:
            self.session._txn_finished(self, committed=committed)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if self._done:
            return False
        if exc_type is None:
            self.commit()
        else:
            self.rollback()
        return False

    def _check_open(self):
        if self._done:
            raise TransactionError("transaction already finished")

    def _check_writable(self):
        self._check_open()
        if self.mode == "read_only":
            raise TransactionError(
                "read-only snapshot transactions cannot write"
            )


class Engine:
    """Abstract storage engine over a simulated PM arena."""

    scheme = "abstract"
    #: leaf slot-header record cap (None = space-limited); FAST⁺
    #: overrides this with the one-cache-line bound.
    leaf_capacity = None
    #: The session isolation modes this scheme serves
    #: (``Session.open`` refuses the rest).  Every mode needs rollback;
    #: ``"read_only"`` and ``"occ"`` also need a committed page that
    #: open writers never touch — PM-resident state, where pre-commit
    #: records sit in unreachable free space.
    isolation_modes = ISOLATION_MODES
    #: The open group-commit epoch pipeline (``repro.core.epoch``);
    #: ``None`` = grouping off, every commit fences for itself.
    #: Schemes that support grouping construct one from the config.
    group = None
    #: Is committed state PM-resident, published only by the install
    #: primitives (FAST / FAST⁺)?  Only then do group commit (epoch
    #: overlays over durable pages) and the tiered DRAM page cache
    #: (copies of durable pages, ``repro.storage.cache``) apply; the
    #: other schemes refuse both config fields.  NVWAL's DRAM tier *is*
    #: its volatile buffer cache, whose frames open writers mutate.
    _pm_resident = False

    def __init__(self, config, pm, store):
        self.config = config
        self.pm = pm
        self.store = store
        # All instrumentation (registry counters, phase histograms,
        # event trace) flows through the arena's shared handle, and
        # the per-transaction counters are bound once.
        self.obs = pm.obs
        handle = self.obs.registry.counter_handle
        self._c_txn_begin = handle("engine.txn.begin")
        self._c_txn_commit = handle("engine.txn.commit")
        self._c_txn_rollback = handle("engine.txn.rollback")
        if not self._pm_resident:
            for field in ("group_commit_size", "dram_cache_pages"):
                if getattr(config, field) > 0:
                    raise ValueError(
                        "the %r scheme does not support %s > 0 (its "
                        "committed state is not PM-resident)"
                        % (self.scheme, field)
                    )
        self.page_cache = None
        if config.dram_cache_pages > 0:
            from repro.storage.cache import TieredPageCache

            self.page_cache = TieredPageCache(store, config.dram_cache_pages)
        self._trees = {}
        self._active = None
        self._sessions = {}      # sid -> live Session
        self._next_sid = 1
        self._lock_manager = None
        self._versions = None    # MVCC version manager (on first use)
        self._seq = 1
        # Per-commit dirty-page counts: recorded workload data (not a
        # metric) fed to the legacy block-device models that reproduce
        # the paper's write-amplification motivation (Figure 1).
        self.commit_page_counts = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build_pm(cls, config):
        """A fresh arena with the config's latency/cost/crash model."""
        return PersistentMemory.for_config(config)

    @classmethod
    def create(cls, config, pm=None):
        """Format a fresh arena and bootstrap tree 0."""
        pm = pm or cls.build_pm(config)
        store = PageStore.format(pm, config.store_base, config.npages, config.page_size)
        engine = cls(config, pm, store)
        engine._format()
        with engine.transaction() as txn:
            txn.create_tree(0)
        # A fresh database is durable on return: the bootstrap commit
        # must not sit in an open group-commit epoch (no-op otherwise).
        engine.drain_group_commit()
        return engine

    @classmethod
    def attach(cls, config, pm):
        """Re-open an existing arena (post-crash) and run recovery."""
        store = PageStore.attach(pm, config.store_base)
        engine = cls(config, pm, store)
        engine._attach_regions()
        engine.recover()
        return engine

    # Subclass hooks -----------------------------------------------------

    def _format(self):
        """Format scheme-specific regions (log, heap...)."""

    def _attach_regions(self):
        """Attach scheme-specific regions after a restart."""

    #: The scheme's :class:`MutationContext`, and the same class with
    #: :class:`repro.core.locking.TwoPhaseLocking` mixed in for strict-2PL
    #: transactions (None where the scheme serves no locked sessions).
    context_class = None
    locked_context_class = None

    def _new_context(self, session=None, locked=False):
        cls = self.locked_context_class if locked else self.context_class
        return cls(self, session)

    def _commit(self, ctx):
        raise NotImplementedError

    def _rollback(self, ctx):
        """Undo ``ctx``'s transaction, and only it (other sessions'
        open transactions are untouched): restore its begin savepoint."""
        ctx.restore_state(ctx.BEGIN)

    def recover(self):
        """Bring the committed state to consistency after a crash."""
        raise NotImplementedError

    def read_view(self):
        """A view of committed state for searches/scans."""
        return ReadView(self)

    def _read_page(self, page_no, writer=False):
        """The committed page, preferring the DRAM cache tier — the
        one rule every committed read goes by, a reader's and a writer
        context's first touch of a page alike.

        Open-epoch member overlays bypass the cache entirely: an
        overlaid page's *visible* committed state (durable header +
        pending member header) differs from its durable image, and the
        cache only ever holds durable committed images.  Cache off:
        exactly ``_fetch_page``.

        A ``writer`` — a scheme context, which until its first mutation
        of the page sees exactly the committed page — gets a private
        view it can later promote to PM, and *hits* frames without
        ever filling one: an insert-heavy writer would fill a leaf's
        frame per transaction only for its own commit to drop it.
        """
        cache = self.page_cache
        if cache is not None:
            group = self.group
            if group is None or not group.overlaid(page_no):
                if writer:
                    page = cache.view(page_no)
                else:
                    page = cache.lookup(page_no)
                    if page is None:
                        page = cache.fill(page_no)
                if page is not None:
                    return page
        return self._fetch_page(page_no)

    def _fetch_page(self, page_no):
        """The committed page, with any open-epoch member overlay
        applied (grouping off: exactly the store fetch).  NVWAL
        overrides this — its pages come from the DRAM buffer cache."""
        page = self.store.page(page_no)
        group = self.group
        if group is not None:
            image = group.pending_headers.get(page_no)
            if image is not None:
                page.overlay_header(image, group.header_extents[page_no])
        return page

    def _root(self, slot):
        """The committed root pointer, with any open-epoch member
        overlay applied.  NVWAL overrides this (its WAL root table
        overlays first)."""
        group = self.group
        if group is not None:
            page_no = group.pending_roots.get(slot)
            if page_no is not None:
                return page_no
        return self.store.root(slot)

    def _held_cells(self, page_no):
        """Offsets of the dead cells on ``page_no`` the open epoch
        holds for its close (``EpochPipeline.held_cells``) — what a
        free-list rebuild of the page must count live.  Grouping off:
        none."""
        group = self.group
        return group.held_cells(page_no) if group is not None else ()

    def drain_group_commit(self):
        """Close any open group-commit epoch: issue the shared fence
        and publish the group mark covering every pending member.
        No-op when grouping is off or the epoch is empty."""
        if self.group is not None and self.group.member_count:
            with self.obs.phase("commit"):
                self.group.close()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    @property
    def clock(self):
        return self.pm.clock

    @property
    def registry(self):
        """The shared :class:`repro.obs.MetricsRegistry`."""
        return self.obs.registry

    @property
    def trace(self):
        """The shared :class:`repro.obs.TraceRecorder`."""
        return self.obs.trace

    def tree(self, root_slot=0):
        """The B-tree bound to ``root_slot``."""
        tree = self._trees.get(root_slot)
        if tree is None:
            tree = BTree(root_slot=root_slot, leaf_capacity=self.leaf_capacity)
            self._trees[root_slot] = tree
        return tree

    def transaction(self):
        """The engine's implicit single-session transaction (the
        historical API; sessions don't pass through here)."""
        if self._active is not None:
            raise TransactionError("a transaction is already active")
        for session in self._sessions.values():
            # The implicit transaction bypasses the lock manager, so
            # letting it overlap a locked or OCC session's open
            # transaction would silently break their isolation.
            # Read-only snapshot sessions are exempt by design: MVCC
            # readers never block writers.
            if (session.in_transaction
                    and session.isolation != "read_only"):
                raise TransactionError(
                    "implicit engine.transaction() cannot overlap session "
                    "%r's open transaction; commit it first or use a "
                    "session of your own" % session.name
                )
        txn = Transaction(self)
        self._active = txn
        self._c_txn_begin.inc()
        return txn

    # -- sessions ----------------------------------------------------------

    @property
    def lock_manager(self):
        """The engine-wide lock manager shared by all sessions
        (created on first use; the single-session path never does)."""
        if self._lock_manager is None:
            from repro.core.locking import LockManager

            self._lock_manager = LockManager(obs=self.obs)
        return self._lock_manager

    @property
    def version_manager(self):
        """The engine-wide MVCC version manager (created on first use;
        runs with no read-only session never touch it)."""
        if self._versions is None:
            from repro.storage.versions import VersionManager

            self._versions = VersionManager(self)
        return self._versions

    def session(self, name=None, isolation=None):
        """Open a session (one concurrent client).

        Sessions own their transactions independently of the engine's
        implicit one: several sessions may hold open transactions at
        the same time, serialized by the shared lock manager.

        ``isolation`` picks the concurrency mode: ``"locked"``
        (strict 2PL, the default), ``"read_only"`` (MVCC snapshot
        reads — no lock manager at all, zero locks), or ``"occ"``
        (snapshot-isolation writes validated at commit, installed
        under short commit-time locks, falling back to 2PL after
        repeated validation failures).  A mode outside the scheme's
        ``isolation_modes`` raises ``TransactionError``.
        """
        return Session.open(self, name, isolation)

    def _session_closed(self, session):
        self._sessions.pop(session.sid, None)

    def sessions(self):
        """The live (unclosed) sessions, in creation order."""
        return list(self._sessions.values())

    def _protected_pages(self):
        """Pages owned by live sessions' uncommitted transactions —
        unreachable from any committed structure, but *not* garbage.
        While MVCC snapshots are active, pages reachable through any
        snapshot's pinned view are shielded too."""
        protected = set()
        for session in self._sessions.values():
            ctx = session.transaction_ctx
            if ctx is None:
                continue
            owned = getattr(ctx, "uncommitted_pages", None)
            if owned is not None:
                protected |= owned()
        if self._versions is not None and self._versions.capture_active:
            protected |= self._versions.pinned_pages()
        if self.group is not None:
            # Pages freed by epoch members: committed-free, but the
            # pre-epoch durable tree still references them until the
            # group mark — reclaiming them now would let a crash
            # resurrect a reused page.
            protected |= self.group.deferred_pages()
        return protected

    def insert(self, key, value, *, root_slot=0, replace=False):
        """Single-statement transaction (the paper's mobile workload)."""
        with self.transaction() as txn:
            txn.insert(key, value, root_slot=root_slot, replace=replace)

    def delete(self, key, *, root_slot=0):
        with self.transaction() as txn:
            return txn.delete(key, root_slot=root_slot)

    def search(self, key, *, root_slot=0):
        """Committed read."""
        return self.tree(root_slot).search(self.read_view(), key)

    def scan(self, lo=None, hi=None, *, root_slot=0):
        return self.tree(root_slot).scan(self.read_view(), lo, hi)

    def verify(self, root_slot=0):
        """Structural invariant check; returns the record count."""
        return self.tree(root_slot).verify(self.read_view())

    def active_root_slots(self):
        """Root slots holding live structures (NVWAL overlays root
        pointers in its WAL until checkpoint, so go through the view)."""
        view = self.read_view()
        return [
            slot for slot in range(N_ROOT_SLOTS)
            if view.root_page_no(slot) != 0
        ]

    def reachable_pages(self):
        """Pages referenced by any live structure.

        Root slots may hold B-trees (leaf/internal root page) or hash
        indexes (META directory page, see ``repro.hashindex``); the
        root page's type says which reachability walk applies.  The
        walk reads each page once, so it fills no DRAM-tier frame.
        While the store's overflow latch is clear no tree holds an
        overflow chain, and a tree's walk lists its leaves unread.
        """
        from repro.hashindex.index import HashIndex
        from repro.storage.slotted_page import PAGE_META

        view = ReadView(self, fill=False)
        pages = set()
        for slot in self.active_root_slots():
            root_no = view.root_page_no(slot)
            if view.page(root_no).page_type == PAGE_META:
                pages |= HashIndex.reachable_from_directory(view, root_no)
            else:
                pages |= self.tree(slot).reachable_pages(
                    view, overflow_chains=self.store.overflow_latched
                )
        return pages

    def garbage_collect(self):
        """Reclaim pages leaked by crashes (paper Section 4.4).

        Pages held by live sessions' uncommitted transactions are
        *not* garbage even though no committed structure reaches them
        yet.
        """
        return self.store.garbage_collect(
            self.reachable_pages(), protected=self._protected_pages()
        )

    def compact(self, root_slot=0, *, min_waste=64):
        """VACUUM one tree: rewrite fragmented pages copy-on-write in
        a single transaction.  Returns the number of pages rewritten.
        """
        from repro.storage.slotted_page import PAGE_META

        view = self.read_view()
        root_no = view.root_page_no(root_slot)
        if not root_no or view.page(root_no).page_type == PAGE_META:
            return 0  # empty slot / hash directory
        with self.transaction() as txn:
            return self.tree(root_slot).compact(txn.ctx, min_waste=min_waste)

    def compact_all(self, *, min_waste=64):
        """VACUUM every live tree; returns total pages rewritten."""
        return sum(
            self.compact(slot, min_waste=min_waste)
            for slot in self.active_root_slots()
        )

    def repair_free_lists(self):
        """Rebuild every reachable page's in-page free list (they are
        reconstructible; see paper Section 4.3) from its committed
        state — open-epoch overlays applied, the epoch's held cells
        live.  Call with no transaction open."""
        for page_no in self.reachable_pages():
            self._fetch_page(page_no).rebuild_free_list(
                self._held_cells(page_no)
            )

    def page_stats(self):
        """Storage-health snapshot: page counts by type, fill factor,
        and fragmentation (the quantities Section 4.3's
        defragmentation policy reasons about)."""
        from repro.storage.slotted_page import (
            PAGE_INTERNAL,
            PAGE_LEAF,
            PAGE_META,
            PAGE_OVERFLOW,
        )

        names = {
            PAGE_LEAF: "leaf",
            PAGE_INTERNAL: "internal",
            PAGE_META: "meta",
            PAGE_OVERFLOW: "overflow",
        }
        counts = {}
        used_bytes = 0
        fragmented_bytes = 0
        data_capacity = 0
        for page_no in self.reachable_pages():
            # Straight from PM, not the DRAM tier: the in-page free
            # list is writer-side scratch that no install publishes, so
            # a cached frame neither tracks it nor (for a chunk an open
            # writer left below the committed content area) holds it.
            page = self._fetch_page(page_no)
            kind = names.get(page.page_type, "other")
            counts[kind] = counts.get(kind, 0) + 1
            if page.page_type in (PAGE_LEAF, PAGE_INTERNAL):
                total_free = page.total_free()
                used_bytes += self.config.page_size - total_free
                fragmented_bytes += total_free - page.contiguous_free()
                data_capacity += self.config.page_size
        return {
            "pages_by_type": counts,
            "reachable_pages": sum(counts.values()),
            "free_pages": self.store.free_page_count(),
            "fill_factor": (used_bytes / data_capacity) if data_capacity else 0.0,
            "fragmented_bytes": fragmented_bytes,
        }

    def next_seq(self):
        seq = self._seq
        self._seq += 1
        return seq
