"""The NVWAL engine: volatile buffer cache + persistent WAL.

This is the paper's comparison baseline (Section 5).  Transactions
update page copies in a DRAM buffer cache ("volatile buffer caching"
in Figure 7); at commit the dirty pages are word-diffed against their
transaction-start snapshots and only the deltas go to a persistent WAL
(differential logging), allocated from a user-level persistent heap
and indexed by a volatile WAL index.  Checkpointing is lazy: dirty
pages reach the PM database pages only when the WAL passes a size
threshold.

Clock segments (mapping to Figure 8's commit-time bars):

    volatile_buffer_caching   Figure 7 (DRAM updates + page fetches)
    nvwal_computation         "NVWAL Computation" (differential diff)
    heap_mgmt                 "Heap Management"
    log_flush                 "Log Flush"
    atomic_commit             commit-mark store (part of "Log Flush"
                              in the paper's accounting)
    wal_index                 "Misc" (WAL index construction)
    nvwal_checkpoint          lazy checkpoint (the paper excludes it
                              from per-query commit time; reported
                              separately by the harness)
"""

from collections import OrderedDict

from repro.core.base import Engine, MutationContext
from repro.core.locking import TwoPhaseLocking
from repro.obs import trace as ev
from repro.pm.memory import VolatileMemory
from repro.storage.slotted_page import SlottedPage
from repro.wal.nvwal import (
    FRAME_FREE,
    FRAME_PAGE,
    FRAME_ROOT,
    NVWALog,
    encode_frame,
    word_diff,
)


class BufferCache:
    """Page frames in DRAM with LRU eviction of unpinned pages."""

    def __init__(self, dram, page_size):
        self.dram = dram
        self.page_size = page_size
        self.nframes = dram.size // page_size
        if self.nframes < 4:
            raise ValueError("DRAM buffer cache needs at least 4 frames")
        self._frame_of = OrderedDict()  # page_no -> frame index (LRU order)
        self._free = list(range(self.nframes))
        self.pinned = set()
        #: Bases of the frames whose page's free list has been
        #: validated since the frame was loaded (the ``SlottedPage``
        #: views over the frames share it); a frame re-arms when it is
        #: handed to another page.
        self.freelist_validated = set()

    def lookup(self, page_no):
        """Frame base address if resident (refreshes LRU)."""
        frame = self._frame_of.get(page_no)
        if frame is None:
            return None
        self._frame_of.move_to_end(page_no)
        return frame * self.page_size

    def install(self, page_no):
        """Assign a frame (evicting an unpinned page if needed)."""
        if self._free:
            frame = self._free.pop()
        else:
            victim = next(
                (no for no in self._frame_of if no not in self.pinned), None
            )
            if victim is None:
                raise MemoryError("buffer cache full of pinned pages")
            frame = self._frame_of.pop(victim)
        self._frame_of[page_no] = frame
        self.freelist_validated.discard(frame * self.page_size)
        return frame * self.page_size

    def drop(self, page_no):
        frame = self._frame_of.pop(page_no, None)
        if frame is not None:
            self._free.append(frame)
        self.pinned.discard(page_no)

    def clear(self):
        self._frame_of.clear()
        self._free = list(range(self.nframes))
        self.pinned.clear()
        self.freelist_validated.clear()


class NVWALContext(MutationContext):
    """Transaction context: volatile page updates + commit-time WAL."""

    def __init__(self, engine, session=None):
        super().__init__(engine, session)
        self.snapshots = {}   # page_no -> bytes at first touch

    # -- mutation hooks ----------------------------------------------------

    def _write(self, page, dead, store, args):
        with self.obs.span("volatile_buffer_caching"):
            self._snapshot(page)
            return super()._write(page, dead, store, args)

    def _write_pointer(self, page, slot, child_no):
        with self.obs.span("volatile_buffer_caching"):
            self._snapshot(page)
            super()._write_pointer(page, slot, child_no)

    def _snapshot(self, page):
        """Snapshot the frame at its first touch (the commit word-diffs
        against it) and pin it dirty."""
        page_no = page.page_no
        if page_no in self.snapshots:
            self.dirty.setdefault(page_no, page)
            return
        self.snapshots[page_no] = self.engine.dram.visible_bytes(
            page.base, page.page_size
        )
        self.dirty[page_no] = page
        self.engine.cache.pinned.add(page_no)

    def _write_record(self, page, store, slot, payload):
        """A DRAM frame: nothing to flush."""
        return store(slot, payload)

    def _stored(self, page):
        page.apply_header(page.pending_header_image())

    def _dead(self, page, offset):
        page.reclaim_cell(offset)  # volatile copy: free to move

    def _allocate(self, page_type):
        engine = self.engine
        with self.obs.span("volatile_buffer_caching"):
            page_no = engine.store.reserve_page_no()
            base = engine.cache.install(page_no)
            engine.dram.write(base, bytes(engine.config.page_size))
            page = SlottedPage.initialize(
                engine.dram, base, engine.config.page_size, page_type,
                persist=False, validated=engine.cache.freelist_validated,
            )
            page.page_no = page_no
            engine.cache.pinned.add(page_no)
            self.dirty[page_no] = page
            self.snapshots[page_no] = bytes(engine.config.page_size)
            self.new_pages[page_no] = page
        return page_no, page

    def _repoint(self, position, new_child_no):
        """Volatile pointer rewrite (NVWAL pages live in DRAM)."""
        self.engine.dram.write_u32(position, new_child_no)

    def _defragment(self, page_no):
        """In the volatile cache, defragmentation is an in-frame
        compaction — no copy-on-write is needed because DRAM pages may
        shift records freely (paper Section 4.3's contrast)."""
        with self.obs.span("volatile_buffer_caching"):
            page = self._lookup(page_no)
            self._snapshot(page)
            records = page.records()
            base, size = page.base, page.page_size
            page_type, flags = page.page_type, page.flags
            self.engine.dram.write(base, bytes(size))
            fresh = SlottedPage.initialize(
                self.engine.dram, base, size, page_type, persist=False,
                validated=self.engine.cache.freelist_validated,
            )
            fresh.pending_set_flags(flags)
            for slot, payload in enumerate(records):
                fresh.pending_insert(slot, payload)
            fresh.apply_header(fresh.pending_header_image())
            fresh.page_no = page_no
            self.dirty[page_no] = fresh
        return page_no, fresh

    # -- savepoints and rollback ---------------------------------------------

    BEGIN = {**MutationContext.BEGIN, "content": {}, "snapshots": {}}

    def snapshot_state(self):
        """A savepoint: the tracking, plus the DRAM page images."""
        state = super().snapshot_state()
        dram = self.engine.dram
        page_size = self.engine.config.page_size
        state["content"] = {
            page_no: dram.visible_bytes(page.base, page_size)
            for page_no, page in self.dirty.items()
        }
        state["snapshots"] = dict(self.snapshots)
        return state

    def _undo(self, snapshot):
        """Put every frame back to its image at the snapshot — a page
        first dirtied since goes back to its transaction-start image —
        and release the pages allocated since."""
        engine = self.engine
        content = snapshot["content"]
        for page_no, page in self.dirty.items():
            if page_no in content:
                engine.dram.write(page.base, content[page_no])
                page._pending = None
            elif page_no in self.new_pages:
                engine.cache.drop(page_no)
                engine.store.free_page(page_no)
            else:
                engine.dram.write(page.base, self.snapshots[page_no])
                page._pending = None
                engine.cache.pinned.discard(page_no)
        self.snapshots = dict(snapshot["snapshots"])

    # -- view protocol ---------------------------------------------------

    def _lookup(self, page_no):
        """The frame this transaction dirtied, else the buffer cache's
        (read afresh: the fetch keeps the cache's LRU order)."""
        page = self.dirty.get(page_no)
        if page is not None:
            return page
        return self.engine._fetch_page(page_no)

    page = route = _lookup

    def keep(self, page_no, page):
        """Nothing to cache: ``page`` re-reads the buffer cache's frame."""

    def _page_no(self, page):
        return page.page_no  # DRAM frames carry their page number


class LockedNVWALContext(TwoPhaseLocking, NVWALContext):
    """An NVWAL context in a strict-2PL transaction."""


class NVWALEngine(Engine):
    """DRAM buffer cache + differential WAL in PM (the baseline)."""

    scheme = "nvwal"
    context_class = NVWALContext
    locked_context_class = LockedNVWALContext
    leaf_capacity = None
    #: The paper's baseline as SQLite runs it: writers commit one at a
    #: time, each with its own fence and commit mark.  Open writers
    #: mutate the shared DRAM frames before commit, so there is no
    #: committed page for a snapshot (MVCC or OCC read phase) to read.
    isolation_modes = ("locked",)

    def __init__(self, config, pm, store):
        super().__init__(config, pm, store)
        self._c_checkpoint = self.obs.registry.counter_handle(
            "engine.checkpoint")
        self.dram = VolatileMemory(
            config.dram_bytes,
            latency=config.latency,
            cost=config.cost,
            obs=pm.obs,
        )
        self.cache = BufferCache(self.dram, config.page_size)
        self.wal = None

    @property
    def checkpoints(self):
        return self.registry.value("engine.checkpoint")

    def _format(self):
        self.wal = NVWALog.format(self.pm, self.config.heap_base,
                                  self.config.heap_bytes)

    def _attach_regions(self):
        self.wal = NVWALog.attach(self.pm, self.config.heap_base,
                                  self.config.heap_bytes)

    # ------------------------------------------------------------------
    # Page fetch path (DRAM miss -> database page + WAL deltas)
    # ------------------------------------------------------------------

    def _root(self, slot):
        if slot in self.wal.roots:
            return self.wal.roots[slot]
        return self.store.root(slot)

    def _fetch_page(self, page_no):
        base = self.cache.lookup(page_no)
        if base is None:
            with self.obs.span("volatile_buffer_caching"):
                base = self.cache.install(page_no)
                content = self.pm.read(
                    self.store.page_base(page_no), self.config.page_size
                )
                self.dram.write(base, content)
                for offset, data in self.wal.deltas_for(page_no):
                    self.dram.write(base + offset, data)
        page = SlottedPage(self.dram, base, self.config.page_size,
                           validated=self.cache.freelist_validated)
        page.page_no = page_no  # reverse mapping for snapshotting
        return page

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------

    def _commit(self, ctx):
        with self.obs.phase("commit"):
            if ctx.is_read_only:
                return
            self.commit_page_counts.append(len(ctx.dirty))
            with self.obs.span("misc"):
                self.clock.advance(self.pm.cost.pager_commit_ns)
            seq = self.next_seq()
            deltas = {}
            freed = set(ctx.freed)
            with self.obs.span("nvwal_computation"):
                for page_no, page in ctx.dirty.items():
                    if page_no in freed:
                        continue
                    current = self.dram.visible_bytes(
                        page.base, self.config.page_size
                    )
                    deltas[page_no] = word_diff(ctx.snapshots[page_no], current)
                    self.clock.advance(
                        self.pm.cost.diff_byte_ns * self.config.page_size
                    )
            frames = []
            for page_no, ranges in deltas.items():
                if not ranges:
                    continue
                frame = encode_frame(seq, FRAME_PAGE, page_no, ranges)
                frames.append(self._append(frame))
            for page_no in ctx.freed:
                frames.append(
                    self._append(encode_frame(seq, FRAME_FREE, page_no, []))
                )
            for slot, page_no in ctx.root_updates.items():
                payload = [(0, page_no.to_bytes(4, "little"))]
                frames.append(
                    self._append(encode_frame(seq, FRAME_ROOT, slot, payload))
                )
            with self.obs.span("log_flush"):
                self.pm.sfence()
            with self.obs.span("atomic_commit"):
                self.wal.commit(seq)
            with self.obs.span("wal_index"):
                self.wal.publish(frames)
                self.clock.advance(self.pm.cost.wal_index_insert_ns * len(frames))
            self.wal.roots.update(ctx.root_updates)
            for page_no in ctx.freed:
                self.cache.drop(page_no)
                self.store.free_page(page_no)
            for page_no in ctx.dirty:
                self.cache.pinned.discard(page_no)
        if self.wal.bytes_used >= self.config.nvwal_checkpoint_bytes:
            self.checkpoint()

    def _append(self, frame):
        with self.obs.span("heap_mgmt"):
            addr = self.wal.heap.pmalloc(len(frame))
        with self.obs.span("log_flush"):
            self.wal.install_frame(addr, frame)
        return addr

    # ------------------------------------------------------------------
    # Checkpoint + recovery
    # ------------------------------------------------------------------

    def checkpoint(self):
        """Lazy checkpoint: write every WAL-covered page back to the
        database region and reset the log (paper Section 2.2)."""
        self._c_checkpoint.inc()
        self.obs.event(ev.CHECKPOINT, len(self.wal.index))
        with self.obs.span("nvwal_checkpoint"):
            for page_no in list(self.wal.index):
                page = self._fetch_page(page_no)
                content = self.dram.visible_bytes(
                    page.base, self.config.page_size
                )
                target = self.store.page_base(page_no)
                # repro: allow[PM001] checkpoint writeback of whole WAL-protected pages, flushed below
                self.pm.write(target, content)
                self.pm.flush_range(target, self.config.page_size)
            for slot, page_no in self.wal.roots.items():
                self.store.set_root(slot, page_no, persist=False)
                self.pm.flush_range(self.store.base, 64)
            self.pm.sfence()
            self.wal.roots.clear()
            self.wal.reset()

    def recover(self):
        """After a crash: DRAM is gone; the WAL chain prefix up to the
        commit mark is rebuilt into the index (done by ``attach``), and
        reads reconstruct pages from database + deltas on demand."""
        self.obs.inc("engine.recovery")
        self.cache.clear()
        self._seq = self.wal.committed_seq + 1
        if self.config.eager_recovery_gc:
            self.garbage_collect_after_recovery()

    def repair_free_lists(self):
        """Nothing to repair: a frame's free list is part of the page
        image — loaded from committed bytes, rolled back by image — so
        it is never stale, and a rebuild the WAL never sees would only
        desynchronise the frame from its deltas."""

    def garbage_collect_after_recovery(self):
        """Reclaim pages leaked by uncommitted allocations.

        A page is live if a tree reaches it *or* the WAL still carries
        deltas for it (it may hold committed content not yet
        checkpointed).
        """
        reachable = self.reachable_pages()
        reachable |= set(self.wal.index)
        self.store.garbage_collect(reachable)
