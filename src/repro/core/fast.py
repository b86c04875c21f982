"""FAST and FAST⁺: the paper's failure-atomic slotted-paging engines.

FAST (Section 4.1) commits every transaction through the slot-header
log: record bytes are written in place into page free space and
flushed during the page update; at commit the (small) slot headers of
all dirty pages are redo-logged, an 8-byte commit mark is persisted,
and the headers are immediately ("eagerly") checkpointed into the
pages so readers never consult the log.

FAST⁺ (Section 4.2) adds the in-place commit: when a transaction
modified exactly one page — the common case, a single-record insert —
the slot header fits one cache line (the leaf record cap is 28) and is
published with a single RTM transaction + flush; the header itself is
the commit mark and no logging happens at all.

Clock segments produced per transaction (mapped to the paper's bars):

    search                    Figure 6 "Search"
    page_update               Figure 6 "Page Update"
      in_place_record_insert    Figure 7
      clflush_record            Figure 7
      defrag                    Figure 7 "defragment(page)"
    commit                    Figure 6 "Commit"
      update_slot_header        Figure 7/8 (frame stores, unflushed)
      log_flush                 Figure 8 "Log Flush"
      atomic_commit             Figure 8 "Atomic 64B Write"
      checkpoint                Figure 8 "Checkpointing"
"""

from repro.core.base import Engine, MutationContext
from repro.core.config import FASTPLUS_LEAF_CAPACITY
from repro.core.epoch import EpochPipeline
from repro.core.locking import TwoPhaseLocking
from repro.htm.rtm import RTM
from repro.obs import trace as ev
from repro.pm.memory import CACHE_LINE
from repro.wal.slot_header_log import LogFullError, SlotHeaderLog
from repro.wal.twopc import PrepareRegion


class FASTContext(MutationContext):
    """Transaction context implementing the B-tree mutation protocol
    with in-place record writes and deferred (logged) header commits."""

    def __init__(self, engine, session=None):
        super().__init__(engine, session)
        self.reclaims = []     # (page, offset) cells dead once committed
        # Every page this transaction obtained from the store — what a
        # rollback returns to the free list and what GC must protect
        # while the txn is open.
        self.allocated = []
        # In-place child-pointer swaps (durable immediately): recorded
        # as (address, old_child, new_child) so a rollback can reverse
        # them — both directions are crash-safe because both pages are
        # committed-equivalent.
        self.pointer_swaps = []

    # -- mutation hooks ----------------------------------------------------

    def _stored(self, page):
        """Record ``page`` for the commit, adopting it as this
        transaction's view: a locked descent keeps no view of an
        internal page it only routed through, so the first mutation —
        behind its X claim — makes it the one later descents see."""
        page_no = self.store.page_no_of(page)
        self._pages[page_no] = page
        if page_no not in self.new_pages:
            self.dirty[page_no] = page

    def _dead(self, page, offset):
        """The cell stays live in the committed header until the commit
        retires it."""
        self.reclaims.append((page, offset))

    def _created(self, page_no, page):
        self.new_pages[page_no] = page
        self.allocated.append(page_no)

    def _free(self, page_no):
        """The free is deferred even for pages this transaction
        allocated: reuse within it would corrupt state through stale
        page objects (deferred cell reclaims, savepoint snapshots,
        reversed pointer swaps all reference the page by identity)."""
        # Cells awaiting post-commit reclamation on this page die with it.
        self.reclaims = [
            (page, offset) for page, offset in self.reclaims
            if self.store.page_no_of(page) != page_no
        ]
        self.new_pages.pop(page_no, None)
        self.dirty.pop(page_no, None)
        super()._free(page_no)

    def _repoint(self, position, new_child_no):
        """One 8-byte-atomic u32 store + flush, safe at any crash
        instant because the new page's durable header is
        committed-equivalent to the old page's.

        The published page becomes reachable, so its pending header
        now commits through the log like any dirty page.
        """
        with self.obs.span("defrag"):
            old_child_no = self.pm.read_u32(position)
            self.engine._swap_child_pointer(position, new_child_no)
        self.pointer_swaps.append((position, old_child_no, new_child_no))
        if new_child_no in self.new_pages:
            self.dirty[new_child_no] = self.new_pages.pop(new_child_no)

    # -- savepoints and rollback ---------------------------------------------

    BEGIN = {
        **MutationContext.BEGIN,
        "pending": {}, "reclaims": (), "swaps": 0, "allocated": 0,
    }

    def snapshot_state(self):
        state = super().snapshot_state()
        state["pending"] = {
            page_no: page.clone_pending()
            for page_no, page in self._pages.items()
        }
        state["reclaims"] = tuple(self.reclaims)
        state["swaps"] = len(self.pointer_swaps)
        state["allocated"] = len(self.allocated)
        return state

    def _undo(self, snapshot):
        """Reverse the durable child-pointer swaps made since the
        snapshot, newest first (both directions are crash-safe: the
        pages are committed-equivalent); put every page's pending
        header back to the snapshot's, dropping the ones it had none
        of; then return the pages allocated since, newest first.
        Record bytes written since sit in free space no header names.
        """
        engine = self.engine
        swaps = self.pointer_swaps
        while len(swaps) > snapshot["swaps"]:
            position, old_child, _ = swaps.pop()
            engine._swap_child_pointer(position, old_child)
        saved_pending = snapshot["pending"]
        group = engine.group
        freed = set(self.freed)
        # Dirty pages, new pages, then the ones freed since (which left
        # both): durable work is charged in the order it is done.
        for page_no, page in {
            **self.dirty, **self.new_pages, **self._pages
        }.items():
            if not (page_no in self.dirty or page_no in self.new_pages
                    or page_no in freed):
                # Only read: another writer may hold it and own its
                # free list (an epoch overlay is a pending header).
                continue
            saved = saved_pending.get(page_no)
            if saved is None and not page.has_pending:
                continue
            # The rebuilt free list must not hand out cells a committed
            # header still reaches: those the savepoint's header had
            # already dropped (this context reclaims them at commit)
            # and those the open epoch reclaims at its close — on an
            # overlaid page, and on a member's new page, whose header
            # was applied directly.
            held = [
                offset for held_page, offset in snapshot["reclaims"]
                if held_page.base == page.base
            ]
            held += engine._held_cells(page_no)
            if (saved is None and group is not None
                    and group.overlaid(page_no)):
                # Committed state is the member's overlay, not the
                # durable header.
                page.overlay_header(group.pending_headers[page_no],
                                    group.header_extents[page_no])
                page.rebuild_free_list(held)
            else:
                page.restore_pending(saved, held)
        self._pages = {
            page_no: page for page_no, page in self._pages.items()
            if page_no in saved_pending
        }
        self.reclaims = list(snapshot["reclaims"])
        allocated = self.allocated
        while len(allocated) > snapshot["allocated"]:
            self.store.free_page(allocated.pop())

    # -- bookkeeping -------------------------------------------------------

    def uncommitted_pages(self):
        """Pages this open transaction owns (GC protection set)."""
        return set(self.allocated)

    @property
    def is_single_page(self):
        """Eligible for the in-place commit: exactly one dirty page and
        no structural changes (paper Section 4.2's commit-time check)."""
        return (
            len(self.dirty) == 1
            and not self.new_pages
            and not self.freed
            and not self.root_updates
        )


class LockedFASTContext(TwoPhaseLocking, FASTContext):
    """A FAST / FAST⁺ context in a strict-2PL transaction."""


class FASTEngine(Engine):
    """Slot-header logging for every transaction (Section 4.1)."""

    scheme = "fast"
    context_class = FASTContext
    locked_context_class = LockedFASTContext
    leaf_capacity = None  # record offset array can be arbitrarily large
    #: PM-resident committed state: commits may group into epochs, and
    #: reads — committed readers' and a context's of pages it has not
    #: mutated yet — may be served from the tiered DRAM page cache
    #: (``repro.storage.cache``), invalidated by the install primitives
    #: below (``_install_header``, ``_swap_child_pointer``, FAST⁺'s
    #: ``_commit_inplace``).
    _pm_resident = True

    def __init__(self, config, pm, store):
        super().__init__(config, pm, store)
        handle = self.obs.registry.counter_handle
        self._c_checkpoint = handle("engine.checkpoint")
        self._c_logged = handle("engine.commit.logged")
        self._c_inplace = handle("engine.commit.inplace")
        self._c_fallback = handle("engine.commit.fallback")
        self._c_group_join = handle("group.join")
        self._c_group_close = handle("group.close")
        self._c_twopc_commit = handle("twopc.commit")
        self.log = None
        #: 2PC prepare region (sharded deployments only; see
        #: ``repro.wal.twopc`` / ``repro.storage.sharding``).
        self.twopc = None
        if config.group_commit_size:
            self.group = EpochPipeline(
                config.group_commit_size, self._close_epoch,
            )

    def _format(self):
        self.log = SlotHeaderLog.format(self.pm, self.config.log_base,
                                        self.config.log_bytes)
        if self.config.twopc_bytes:
            self.twopc = PrepareRegion.format(self.pm, self.config.twopc_base)

    def _attach_regions(self):
        self.log = SlotHeaderLog.attach(self.pm, self.config.log_base,
                                        self.config.log_bytes)
        if self.config.twopc_bytes:
            self.twopc = PrepareRegion.attach(self.pm, self.config.twopc_base)

    # -- commit ------------------------------------------------------------

    def _commit(self, ctx):
        with self.obs.phase("commit"):
            if ctx.is_read_only:
                return
            self.check_log_room(ctx)
            self._begin_commit(ctx)
            self._commit_durable(ctx)

    def check_log_room(self, ctx):
        """Raise ``LogFullError`` unless the log can take the commit's
        frames — asked before its first store (the MVCC publish, a 2PC
        prepare record), so a refused commit rolls back like any abort.
        Frames of an open epoch that fill the log are retired first, by
        closing it.  FAST⁺'s in-place commit asks too: it may fall back
        to logging."""
        headers = [page.header_length() for page in ctx.dirty.values()]
        try:
            self.log.check_room(headers, len(ctx.root_updates))
        except LogFullError:
            if self.group is None or not self.group.member_count:
                raise
            self.group.close()
            self.log.check_room(headers, len(ctx.root_updates))

    def _begin_commit(self, ctx):
        """The preamble every committing writer runs first (plain,
        grouped, in-place, OCC install and 2PC prepare alike)."""
        # Records an operation left unflushed (one that raised, or a
        # caller other than the B-tree) are flushed before any fence of
        # the commit: the mark may name them.
        ctx.flush_records()
        # MVCC version publication must precede every header, log,
        # RTM-publish and checkpoint store: at this instant the durable
        # pages still hold the pre-transaction committed state (record
        # bytes sit in unreachable free space; headers apply at
        # checkpoint).  No-op unless a snapshot is active.
        versions = self._versions
        if versions is not None and versions.capture_active:
            versions.publish_pm_commit(ctx)
        self.commit_page_counts.append(len(ctx.dirty) + len(ctx.new_pages))
        with self.obs.span("misc"):
            self.clock.advance(self.pm.cost.pager_commit_ns)

    def _commit_durable(self, ctx):
        """How the prepared commit becomes durable: join the open
        epoch when grouping, else log + mark + checkpoint.  (FAST⁺
        overrides this to try the in-place publish first.)"""
        if self.group is not None:
            self._commit_grouped(ctx)
        else:
            self._commit_logged(ctx)

    def _commit_logged(self, ctx):
        """The slot-header logging commit (paper Figures 3-5)."""
        self._stage_and_flush(ctx)
        with self.obs.span("atomic_commit"):
            self.log.commit(self.next_seq())
        # Eager checkpoint: apply the logged headers to the pages right
        # away so other transactions never read the log (Section 3.3).
        self._checkpoint(ctx._lookup)
        self._finish(ctx)

    def _commit_grouped(self, ctx):
        """Group commit: stage + flush this transaction's frames
        *without* the fence, join the open epoch, and let the size /
        window threshold decide when the shared fence and group mark
        retire the whole member prefix (``_close_epoch``)."""
        self._stage_and_flush(ctx, fence=False)
        self._join_epoch(ctx, self.next_seq())
        self.group.maybe_close()

    def _join_epoch(self, ctx, seq, **extra):
        """Enqueue a staged commit onto the open epoch: move its
        frames under the future group mark, record the deferred
        post-mark housekeeping, and install the visibility overlay so
        every later fetch sees this member's committed state."""
        member = {
            "seq": seq,
            "reclaims": [
                (self.store.page_no_of(page), offset)
                for page, offset in ctx.reclaims
            ],
            "freed": list(ctx.freed),
        }
        member.update(extra)
        headers = [
            (page_no, page.pending_header_image())
            for page_no, page in ctx.dirty.items()
        ]
        self.log.join_group()
        self.group.join(member, headers, ctx.root_updates.items())
        #: Surfaced to sessions: ``Session.commit_durable`` reports
        #: False until this seq's epoch closes.
        ctx.commit_seq = seq
        self._c_group_join.inc()

    def _close_epoch(self):
        """Close the open epoch: ONE sfence makes every member's
        staged lines durable at once, ONE ≤8-byte group mark — the
        last member's seq, tail covering the whole prefix — commits
        them all, then the coalesced checkpoint and the members'
        deferred housekeeping (cell reclaims, page frees, 2PC record
        clears) run."""
        group = self.group
        with self.obs.span("log_flush"):
            self.pm.sfence()
        with self.obs.span("atomic_commit"):
            self.log.commit(group.members[-1]["seq"])
        self._checkpoint(self.store.page)
        members = group.take()
        for member in members:
            # Reclaims go through fresh page objects: the members' own
            # page handles still hold pre-close pending headers whose
            # free-list heads may be stale against the checkpointed
            # state when several members touched one page.
            for page_no, offset in member["reclaims"]:
                self.store.page(page_no).reclaim_cell(offset)
            for page_no in member["freed"]:
                self.store.free_page(page_no)
            if member.get("twopc_clear"):
                self.twopc.clear()
        self._c_group_close.inc()

    def _stage_and_flush(self, ctx, fence=True):
        """Front half shared by the logged commit, the 2PC prepare,
        and the grouped commit: everything the commit mark will depend
        on is written and flushed.  With ``fence`` the lines are also
        fenced (a grouped member defers that to the epoch's shared
        fence)."""
        # New pages are unreachable until the commit mark, so their
        # headers are applied directly (Figure 4 step 3: the sibling is
        # fully built in place, never logged).
        with self.obs.span("new_page_headers"):
            for page in ctx.new_pages.values():
                if page.has_pending:
                    image = page.pending_header_image()
                    page.apply_header(image)
                    self.pm.flush_range(page.base, len(image))
        # Stage + store the slot-header frames (no flushes yet).
        with self.obs.span("update_slot_header"):
            for page_no, page in ctx.dirty.items():
                self.log.stage_page_header(page_no, page.pending_header_image())
            for slot, page_no in ctx.root_updates.items():
                self.log.stage_root_update(slot, page_no)
            self.log.write_frames()
        with self.obs.span("log_flush"):
            self.log.flush_frames()
            if fence:
                self.pm.sfence()

    # -- two-phase commit (sharded deployments only) -----------------------

    def prepare_commit(self, ctx, gtid, shard_index):
        """2PC phase one: persist this shard's redo frames and the
        prepare record, but *not* the commit word — the frames stay
        invisible until :meth:`commit_prepared` publishes them.
        Returns the log sequence number the commit will use.  The
        coordinator has asked ``check_log_room`` of every participant
        first."""
        with self.obs.phase("commit"):
            self._begin_commit(ctx)
            self._stage_and_flush(ctx)
            seq = self.next_seq()
            self.twopc.prepare(gtid, seq, self.log.staged_bytes)
            self.obs.event(ev.TWOPC_PREPARE, gtid, shard_index)
            return seq

    def commit_prepared(self, ctx, gtid, seq, shard_index):
        """2PC phase two on one shard: publish the commit mark the
        prepare withheld, clear the prepare record, checkpoint.

        Under grouping the participant instead *joins* its shard's
        open epoch — the frames are already durable (the prepare
        fenced them), so the epoch's shared mark will publish them,
        and the prepare-record clear is deferred to the close (until
        then the record + coordinator decision are what recovery
        resolves an unmarked participant from)."""
        if self.group is not None:
            with self.obs.phase("commit"):
                self._c_twopc_commit.inc()
                self.obs.event(ev.TWOPC_COMMIT, gtid, shard_index)
                self._join_epoch(ctx, seq, twopc_clear=True)
            return
        with self.obs.phase("commit"):
            with self.obs.span("atomic_commit"):
                self.log.commit(seq)
            self._c_twopc_commit.inc()
            self.obs.event(ev.TWOPC_COMMIT, gtid, shard_index)
            # From the mark on, plain single-shard recovery suffices:
            # the prepare record has done its job.
            self.twopc.clear()
            self._checkpoint(ctx._lookup)
            self._finish(ctx)

    def abort_prepared(self, ctx):
        """Back out of a prepare that will not commit (another shard
        failed to prepare): the frames are durable but unpublished, so
        dropping the staged state and clearing the record aborts."""
        self.log.discard()
        self.twopc.clear()

    def _checkpoint(self, fetch):
        """The checkpoint tail every marked commit shares (logged
        commit, 2PC participant, epoch close): apply the committed
        frames to pages obtained through ``fetch``, fence, truncate."""
        with self.obs.span("checkpoint"):
            applied = self._apply_replay(self.log.replay(), fetch)
            self.pm.sfence()
            self.log.truncate()
            self._c_checkpoint.inc()
            self.obs.event(ev.CHECKPOINT, applied)

    def _apply_replay(self, entries, fetch):
        """Apply committed log frames to the pages, coalescing the
        flushes: when several frames target the same page (epoch
        members) or the root-directory line (multi-root transactions),
        every store is applied in log order but only the *last* store
        of each target flushes its lines — one durable line set per
        target per checkpoint, all fenced by the caller.  A superseded
        frame longer than the final one still has its extra lines
        flushed (the final flush covers the widest image seen)."""
        entries = list(entries)
        last_flush = {}
        flush_len = {}
        for index, entry in enumerate(entries):
            if entry[0] == "page":
                key = entry[1]
                flush_len[key] = max(flush_len.get(key, 0), len(entry[2]))
            else:
                key = "roots"
            last_flush[key] = index
        applied = 0
        for index, entry in enumerate(entries):
            applied += 1
            if entry[0] == "page":
                _, page_no, image = entry
                page = fetch(page_no)
                self._install_header(page_no, page, image)
                if last_flush[page_no] == index:
                    self.pm.flush_range(page.base, flush_len[page_no])
            else:
                _, slot, page_no = entry
                self.store.set_root(slot, page_no, persist=False)
                if last_flush["roots"] == index:
                    self.pm.flush_range(self.store.base, 64)
        return applied

    # -- install primitives ------------------------------------------------
    #
    # A committed page changes at exactly three kinds of instant: a
    # logged slot header is applied, a child pointer is swapped in
    # place, or FAST⁺ publishes a header through RTM
    # (``_commit_inplace``).  Each is one function, and each drops the
    # page's DRAM cache frame itself — nobody else in ``core/`` calls
    # ``TieredPageCache.invalidate``.

    def _install_header(self, page_no, page, image):
        """Apply a committed slot-header image to its PM page — the
        install of logged commits, epoch closes, 2PC participants and
        recovery replay (which can also run on a live engine).  The
        caller flushes.

        Under grouping the image can be older than the page's free
        list: it was serialised at the member's join, and later
        writers popped chunks and rollbacks rebuilt the list before
        the close applied it.  The head word lives in PM, so such an
        install leaves it alone.  (Ungrouped, nothing can touch the
        page between serialising the image and applying it — the
        writer still holds it — so the image's copy is PM's.)"""
        page.apply_header(image, keep_freelist_head=self.group is not None)
        cache = self.page_cache
        if cache is not None:
            cache.invalidate(page_no)

    def _swap_child_pointer(self, position, child_no):
        """The paper's in-place parent-pointer swap (Section 4.3): one
        8-byte-atomic u32 store + persist at arena address
        ``position``, forward or reversing.  It changes the parent's
        committed content *without* marking it dirty (no checkpoint
        will ever touch it), so its frame must die here."""
        # repro: allow[PM001] the paper's atomic pointer swap: one u32 store + immediate persist
        self.pm.write_u32(position, child_no)
        self.pm.persist(position, 4)
        cache = self.page_cache
        if cache is not None:
            store = self.store
            cache.invalidate((position - store.base) // store.page_size)

    def _finish(self, ctx):
        """Post-commit housekeeping: reclaim dead cells, free pages.

        These touch only reconstructible state (free lists, the page
        free list), so they happen after the commit mark.
        """
        for page, offset in ctx.reclaims:
            page.reclaim_cell(offset)
        for page_no in ctx.freed:
            self.store.free_page(page_no)

    # -- rollback / recovery -------------------------------------------------

    def _rollback(self, ctx):
        super()._rollback(ctx)
        self.log.discard()

    def recover(self):
        """Crash recovery (paper Section 4.4).

        * commit mark present -> replay the logged headers (idempotent
          checkpoint), then truncate;
        * no commit mark -> nothing to do: the pages' durable headers
          are the pre-transaction state and every partial record write
          sits in unreachable free space.

        Afterwards, leaked pages are garbage collected and in-page free
        lists are lazily rebuilt from the offset arrays.
        """
        self.obs.inc("engine.recovery")
        self.store.freelist_validated.clear()
        if self.log.pending_bytes():
            for entry in self.log.replay():
                self.obs.inc("engine.recovery.replayed")
                self.obs.event(ev.RECOVERY_REPLAY, entry[1])
                if entry[0] == "page":
                    _, page_no, image = entry
                    page = self.store.page(page_no)
                    self._install_header(page_no, page, image)
                    self.pm.flush_range(page.base, len(image))
                else:
                    _, slot, page_no = entry
                    self.store.set_root(slot, page_no, persist=False)
                    self.pm.flush_range(self.store.base, 64)
            self.pm.sfence()
            self.log.truncate()
        self._seq = self.log.committed_seq() + 1
        if self.config.eager_recovery_gc:
            self.garbage_collect()


class FASTPlusEngine(FASTEngine):
    """FAST plus the RTM in-place commit (Section 4.2).

    Single-page transactions publish their slot header with one RTM
    transaction followed by one flush + fence; everything else falls
    back to slot-header logging.  Leaf pages cap their offset array at
    28 records so the header always fits the RTM write set (one cache
    line); internal pages stay unlimited because internal updates only
    ever happen alongside a leaf split, which logs anyway.
    """

    scheme = "fastplus"
    leaf_capacity = FASTPLUS_LEAF_CAPACITY

    #: After this many transient RTM aborts the commit falls back to
    #: slot-header logging instead of retrying forever — the paper's
    #: alternative fallback policy (footnote 1).  ``None`` = retry
    #: until the hardware transaction succeeds.
    rtm_max_retries = 64

    def __init__(self, config, pm, store):
        super().__init__(config, pm, store)
        self.rtm = RTM(pm, max_write_lines=1)

    # Commit-path shares live in the shared registry (they survive
    # crash/attach cycles with the arena, like every other counter).

    @property
    def inplace_commits(self):
        return self.registry.value("engine.commit.inplace")

    @property
    def logged_commits(self):
        return self.registry.value("engine.commit.logged")

    @property
    def rtm_fallbacks(self):
        return self.registry.value("engine.commit.fallback")

    def _commit_durable(self, ctx):
        # Grouping bypasses the in-place path entirely: an RTM header
        # publish is its own per-page commit mark and would fence for
        # itself, so grouped transactions always take the logged path
        # where the epoch can absorb them.
        if self.group is None and ctx.is_single_page:
            (page,) = ctx.dirty.values()
            image = page.pending_header_image()
            line_start = page.base - page.base % CACHE_LINE
            if page.base + len(image) <= line_start + CACHE_LINE:
                self._commit_inplace(ctx, page)
                return
        self._c_logged.inc()
        super()._commit_durable(ctx)

    def _commit_inplace(self, ctx, page):
        """One RTM store of the header + one flush: optimal commit.

        If the best-effort hardware transaction keeps aborting, the
        commit falls back to slot-header logging (the page's pending
        header is still intact, so the logged path proceeds normally).
        """
        with self.obs.span("log_flush"):
            # The records flushed during the page update must be durable
            # before the header becomes visible.
            self.pm.sfence()
        fell_back = []

        def fall_back_to_logging():
            fell_back.append(True)

        with self.obs.span("atomic_commit"):
            page.commit_pending_inplace(
                self.rtm,
                max_retries=self.rtm_max_retries,
                fallback=fall_back_to_logging,
            )
        if fell_back:
            self._c_fallback.inc()
            self._c_logged.inc()
            self._commit_logged(ctx)
            return
        self._c_inplace.inc()
        # The RTM publish IS the install: the page's durable header
        # changed without a checkpoint, so the frame dies here.
        cache = self.page_cache
        if cache is not None:
            cache.invalidate(self.store.page_no_of(page))
        self._finish(ctx)
