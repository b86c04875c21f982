"""The failure-atomic slotted page (paper Sections 3.1-3.3).

Layout of a page of ``page_size`` bytes::

    +--------+--------------------------+------------~~~+------------+
    | fixed  | record offset array      |  free space   | record     |
    | 8 B    | u16 x nrecords (grows ->)|               | content    |
    |        |                          |   (<- grows)  | area       |
    +--------+--------------------------+------------~~~+------------+
    0        8                          header_end      content_start

Fixed metadata (8 bytes, so that one 64-byte cache line holds it plus
28 two-byte record offsets — the paper's ``(64-8)/2`` bound for FAST⁺
leaf pages):

    offset 0  u8   page type (free / leaf / internal / meta)
    offset 1  u8   flags (bit 0: ``FLAG_HAS_OVERFLOW``; others 0)
    offset 2  u16  number of records
    offset 4  u16  content_start — beginning of the record content area
    offset 6  u16  free-list head (0 = empty)

``FLAG_HAS_OVERFLOW`` means "this leaf may hold overflow cells".  The
page never sets it (it does not know the cell format): the B-tree does,
through :meth:`pending_set_flags`, whenever it writes an overflow cell
into a leaf, so reachability can skip a clear leaf's records.  Being
in the header, it commits atomically with the offset array that makes
the cell reachable — on every commit path, since all of them carry the
whole header image — so in every committed state a clear bit means no
overflow cell.  It is sticky: deleting the cell does not clear it, and
copy-on-write defragmentation carries it to the fresh page.

A record cell is ``u16 payload length`` followed by the payload; cells
are allocated backward from ``content_start`` or carved out of the
in-page free list of reclaimed cells.

Failure-atomicity protocol
--------------------------
The slot header *is* the per-page commit mark.  All mutation therefore
goes through a two-phase API:

1. ``pending_insert / pending_update / pending_delete`` write record
   bytes into free space (never over live data) and update only a
   *volatile* pending copy of the header — the paper's "new record
   offset array constructed in the CPU cache";
2. the commit scheme then either writes ``pending_header_image()`` to
   the page in one failure-atomic cache-line store (in-place commit,
   Section 3.2) or redo-logs it and checkpoints after the transaction's
   commit mark (slot-header logging, Section 3.3).

A crash before step 2 leaves the durable header untouched, so the
partially written record bytes are unreachable free space (paper
Section 4.4: "perishable scratch space").

The free list is intentionally *not* crash-consistent: it is fully
reconstructible from the record offset array (Section 4.3), which
:meth:`rebuild_free_list` implements.  It is validated lazily — once
per page per attach (or per DRAM frame load), on the first mutation
after the page's bytes stopped being trusted — and whoever outlives a
transaction remembers that it was (``validated`` below).

Two pieces of free-list state have exactly one owner:

* the **head word** (offset 6) lives in the page's memory.  Every
  change writes it through (:meth:`_set_freelist_head`); a header
  image that was serialised earlier carries a copy that may be stale,
  so :meth:`overlay_header` never trusts an image for it and
  :meth:`apply_header` can be told not to;
* a **dead cell awaiting reclamation** — dropped from a header that is
  not durable yet, so a crash can still make it live — belongs to
  whoever will reclaim it.  The page cannot see such cells from its
  offset array; every rebuild that can run while they exist is handed
  them as ``held`` and counts them live.
"""

import struct as _struct

FIXED_HEADER_SIZE = 8
SLOT_SIZE = 2
# Cell header: u16 payload length + u16 allocated size.  Recording the
# allocated size (not just the payload length) keeps free-list
# reconstruction exact even when a free-chunk allocation absorbed an
# unusably small remainder.
CELL_HEADER_SIZE = 4
_MIN_CHUNK = 4

PAGE_FREE = 0
PAGE_LEAF = 1
PAGE_INTERNAL = 2
PAGE_META = 3
PAGE_OVERFLOW = 4

FLAG_HAS_OVERFLOW = 0x01

_OFF_TYPE = 0
_OFF_FLAGS = 1
_OFF_NRECORDS = 2
_OFF_CONTENT_START = 4
_OFF_FREELIST = 6


class PageFullError(Exception):
    """The page cannot hold the record (split or defragment needed).

    ``needs_defrag`` is True when the *total* free space would suffice
    but no contiguous chunk does (paper Section 4.3's trigger for
    copy-on-write defragmentation).
    """

    def __init__(self, message, needs_defrag=False):
        super().__init__(message)
        self.needs_defrag = needs_defrag


class RecordTooLargeError(Exception):
    """The record cannot fit even in an empty page."""


def max_header_records(header_budget):
    """How many record offsets fit in ``header_budget`` header bytes
    (the paper's 28 for a 64-byte cache line)."""
    return (header_budget - FIXED_HEADER_SIZE) // SLOT_SIZE


class _PendingHeader:
    """Volatile (CPU-cache) copy of a page's slot header."""

    __slots__ = ("page_type", "flags", "content_start", "freelist_head",
                 "offsets")

    def __init__(self, page_type, flags, content_start, freelist_head, offsets):
        self.page_type = page_type
        self.flags = flags
        self.content_start = content_start
        self.freelist_head = freelist_head
        self.offsets = offsets

    @property
    def nrecords(self):
        return len(self.offsets)

    def clone(self):
        return _PendingHeader(
            self.page_type, self.flags, self.content_start,
            self.freelist_head, list(self.offsets),
        )


class SlottedPage:
    """A slotted page at ``base`` within a ``PersistentMemory``.

    Args:
        pm: the persistent memory holding the page.
        base: byte address of the page start (cache-line aligned).
        page_size: page size in bytes.
        header_capacity: optional cap on the number of record offsets
            (FAST⁺ leaf pages use 28 so the header fits one cache
            line); ``None`` means limited only by free space.
        validated: the set of page bases whose free lists have been
            validated, kept by whatever hands out views of this memory
            and outlives them (the ``PageStore``, NVWAL's
            ``BufferCache``); its keeper empties it when the bytes stop
            being trusted.  ``None`` — a view nobody keeps state for —
            validates every time a pending header is begun.
        frame_backed: ``pm`` is a read-only copy of the page's
            *committed* bytes (a DRAM-tier frame) at the page's own
            address.  Such a view reads records and headers like the
            page it copies but refuses every free-space question: the
            in-page free list is writer-side scratch no install
            publishes, so the copied head word goes stale under the
            frame and a chunk an open writer left below the committed
            content area lies in the frame's hole.  A writer
            :meth:`promote` s its view before its first mutation.
    """

    def __init__(self, pm, base, page_size, header_capacity=None, *,
                 validated=None, frame_backed=False):
        self.pm = pm
        self.base = base
        self.page_size = page_size
        self.header_capacity = header_capacity
        self.frame_backed = frame_backed
        self._validated = validated
        self._pending = None
        # While a pending header exists, no allocation may dip below
        # the *committed* header's extent: those bytes are still the
        # durable offset array a crash would recover from.
        self._floor = 0

    # ------------------------------------------------------------------
    # Initialisation
    # ------------------------------------------------------------------

    @classmethod
    def initialize(cls, pm, base, page_size, page_type, *, header_capacity=None,
                   persist=True, validated=None):
        """Format a fresh page of ``page_type`` and return it.  Its
        (empty) free list counts as validated."""
        page = cls(pm, base, page_size, header_capacity, validated=validated)
        if validated is not None:
            validated.add(base)
        pm.write(base + _OFF_TYPE, bytes([page_type]))
        pm.write(base + _OFF_FLAGS, b"\x00")
        pm.write_u16(base + _OFF_NRECORDS, 0)
        pm.write_u16(base + _OFF_CONTENT_START, page_size)
        pm.write_u16(base + _OFF_FREELIST, 0)
        if persist:
            pm.persist(base, FIXED_HEADER_SIZE)
        return page

    def promote(self, pm, validated):
        """Re-seat a frame-backed view, in place, on the PM page it
        copies (same ``base``): from here on every read and store goes
        to ``pm``, and ``validated`` is the keeper of the page's lazy
        free-list check.  The caller guarantees the frame was the
        page's committed state when the view was taken and that no
        install can have landed since (DESIGN.md §17)."""
        self.pm = pm
        self._validated = validated
        self.frame_backed = False

    def _no_free_space_answer(self):
        return TypeError(
            "frame-backed view of the page at %#x cannot answer free-space "
            "questions (the in-page free list lives in PM); promote it first"
            % self.base
        )

    # ------------------------------------------------------------------
    # Header accessors (pending overlay wins)
    # ------------------------------------------------------------------

    @property
    def page_type(self):
        if self._pending is not None:
            return self._pending.page_type
        return self.pm.read_u8(self.base + _OFF_TYPE)

    @property
    def cell_align(self):
        """Cell-allocation alignment.

        Internal B-tree pages align cells to 8 bytes so that the child
        pointer at the start of each cell payload (4-byte cell header +
        4-byte pointer = one word) can be overwritten failure-atomically
        during copy-on-write pointer swaps.  Other pages pack at 2.
        """
        return 8 if self.page_type == PAGE_INTERNAL else 2

    @property
    def flags(self):
        if self._pending is not None:
            return self._pending.flags
        return self.pm.read_u8(self.base + _OFF_FLAGS)

    @property
    def nrecords(self):
        if self._pending is not None:
            return self._pending.nrecords
        return self.pm.read_u16(self.base + _OFF_NRECORDS)

    @property
    def content_start(self):
        if self._pending is not None:
            return self._pending.content_start
        return self.pm.read_u16(self.base + _OFF_CONTENT_START)

    @property
    def freelist_head(self):
        if self.frame_backed:
            raise self._no_free_space_answer()
        if self._pending is not None:
            return self._pending.freelist_head
        return self.pm.read_u16(self.base + _OFF_FREELIST)

    def slot_offset(self, slot):
        """Content-area offset of the record in ``slot``."""
        if self._pending is not None:
            return self._pending_offset(slot)
        if not 0 <= slot < self.nrecords:
            raise IndexError("slot %d out of range" % slot)
        return self.pm.read_u16(self.base + FIXED_HEADER_SIZE + SLOT_SIZE * slot)

    def slots(self):
        """All record offsets, in slot order."""
        if self._pending is not None:
            return list(self._pending.offsets)
        count = self.nrecords
        if not count:
            return []
        raw = self.pm.read(self.base + FIXED_HEADER_SIZE, SLOT_SIZE * count)
        return [
            int.from_bytes(raw[i : i + SLOT_SIZE], "little")
            for i in range(0, len(raw), SLOT_SIZE)
        ]

    def header_length(self):
        """Length in bytes of the effective slot header."""
        return FIXED_HEADER_SIZE + SLOT_SIZE * self.nrecords

    def header_image(self):
        """The effective slot header as bytes (fixed part + offsets)."""
        if self._pending is not None:
            return self._encode(self._pending)
        return self.pm.read(self.base, self.header_length())

    def committed_header_image(self):
        """The header as currently stored in the page, ignoring any
        pending overlay (mid-transaction this is the committed state:
        transactions never write the in-page header before commit)."""
        count = self.pm.read_u16(self.base + _OFF_NRECORDS)
        return self.pm.read(self.base, FIXED_HEADER_SIZE + SLOT_SIZE * count)

    def committed_offsets(self):
        """Record offsets of the committed (in-page) header."""
        image = self.committed_header_image()
        return [
            int.from_bytes(image[i : i + SLOT_SIZE], "little")
            for i in range(FIXED_HEADER_SIZE, len(image), SLOT_SIZE)
        ]

    # ------------------------------------------------------------------
    # Records
    # ------------------------------------------------------------------

    def record(self, slot):
        """Payload bytes of the record in ``slot``:
        ``read_cell(slot_offset(slot))``.  This is the B-tree search
        probe, the single hottest call in the system; with no pending
        header it is the memory's fused ``read_record`` (the same
        simulated loads, in one host frame)."""
        if self._pending is None:
            return self.pm.read_record(self.base, slot)
        return self.read_cell(self._pending_offset(slot))

    def _pending_offset(self, slot):
        """The pending header's offset for ``slot``, bound-checked as
        the committed header's is (a host-side check: no load)."""
        offsets = self._pending.offsets
        if not 0 <= slot < len(offsets):
            raise IndexError("slot %d out of range" % slot)
        return offsets[slot]

    def read_cell(self, offset):
        """Payload of the cell at content-area ``offset``."""
        length = self.pm.read_u16(self.base + offset)
        return self.pm.read(self.base + offset + CELL_HEADER_SIZE, length)

    def cell_allocated_size(self, offset):
        """Bytes the cell at ``offset`` occupies (header + padding +
        any absorbed free-chunk remainder)."""
        return self.pm.read_u16(self.base + offset + 2)

    def records(self):
        """All record payloads in slot order."""
        return [self.read_cell(offset) for offset in self.slots()]

    # ------------------------------------------------------------------
    # Space accounting
    # ------------------------------------------------------------------

    def header_end(self, nrecords=None):
        count = self.nrecords if nrecords is None else nrecords
        return FIXED_HEADER_SIZE + SLOT_SIZE * count

    def contiguous_free(self):
        """Free bytes between the offset array and the content area."""
        if self.frame_backed:
            raise self._no_free_space_answer()
        return self.content_start - self.header_end()

    def free_chunks(self):
        """(offset, size) of every free-list chunk, in list order."""
        chunks = []
        offset = self.freelist_head
        seen = set()
        while offset and offset not in seen:
            seen.add(offset)
            size = self.pm.read_u16(self.base + offset)
            nxt = self.pm.read_u16(self.base + offset + 2)
            chunks.append((offset, size))
            offset = nxt
        return chunks

    def total_free(self):
        """Contiguous free space plus all free-list chunks."""
        return self.contiguous_free() + sum(size for _, size in self.free_chunks())

    def dead_content_bytes(self):
        """Bytes of the content area no record of the effective header
        occupies — what a copy-on-write rewrite would win back.
        Decoded from the offset array and the cells, never from the
        free list, so a frame-backed view answers it too."""
        live = sum(self.cell_allocated_size(offset) for offset in self.slots())
        return (self.page_size - self.content_start) - live

    def fits_after_copy(self, payload_len, extra_slots=1, sizes=None):
        """Would the record fit once live records are copied
        contiguously into a fresh page?  This is the trigger for the
        paper's copy-on-write defragmentation (Section 4.3), including
        the same-transaction reinsert-into-an-overflowing-page case:
        cells made dead by *this* transaction cannot be reused in
        place, but a copy-on-write page reclaims their space.

        ``sizes`` asks it of another set of cells of this page's type,
        one allocated size each, in place of the page's own records
        (a B-tree plans a split's halves with it)."""
        if self.frame_backed:
            raise self._no_free_space_answer()
        count = (self.nrecords if sizes is None else len(sizes)) + extra_slots
        if self.header_capacity is not None and count > self.header_capacity:
            return False
        if sizes is None:
            sizes = [self.cell_allocated_size(offset) for offset in self.slots()]
        need = self._cell_need(payload_len)
        return self.header_end(count) + need + sum(sizes) <= self.page_size

    def fits_in_place(self, cells):
        """Would :meth:`_allocate_cell` place every cell of ``cells`` —
        ``(payload_len, adds_slot)`` pairs, stored in that order —
        without a ``PageFullError``?  The same rules (header capacity,
        first fit from the free list, then the gap above the offset
        array) run on a copy of the free list.  It begins the pending
        header, so the list is validated first, and stores nothing
        else."""
        if self.frame_backed:
            raise self._no_free_space_answer()
        pending = self.begin_pending()
        count, start = pending.nrecords, pending.content_start
        chunks = [size for _, size in self.free_chunks()]
        capacity = self.header_capacity
        for payload_len, adds_slot in cells:
            if adds_slot and capacity is not None and count + 1 > capacity:
                return False
            need = self._cell_need(payload_len)
            header_end = max(self.header_end(count + 1), self._floor)
            count += adds_slot
            fit = next((i for i, size in enumerate(chunks) if size >= need), None)
            if header_end <= start and fit is not None:
                chunks[fit] -= need   # a remainder under a chunk is absorbed
                if chunks[fit] < _MIN_CHUNK:
                    del chunks[fit]
            elif start - need >= header_end:
                start -= need
            else:
                return False
        return True

    def copied_size(self, offset):
        """Bytes the cell at ``offset`` takes once copied into a fresh
        page (no absorbed free-chunk remainder)."""
        return self._cell_need(self.pm.read_u16(self.base + offset))

    # ------------------------------------------------------------------
    # Two-phase mutation: content writes + volatile pending header
    # ------------------------------------------------------------------

    def begin_pending(self):
        """Load the durable header into the volatile pending copy.

        Also the lazy free-list correction point (paper Section 4.3):
        the first mutation of a page since its bytes were last
        untrusted checks the list against the offset array and
        rebuilds it if a crash left it inconsistent — so recovery
        never walks pages eagerly, and no later transaction walks this
        one again.  No dead cell can be awaiting reclamation here:
        one exists only once a transaction mutated the page, and that
        transaction's first mutation came through this check.
        """
        if self._pending is None:
            validated = self._validated
            if validated is None or self.base not in validated:
                if validated is not None:
                    validated.add(self.base)
                counters = self.pm.obs.registry
                counters.inc("page.freelist.check")
                if self.freelist_head and not self.free_list_consistent():
                    counters.inc("page.freelist.rebuild")
                    self.rebuild_free_list()
            self._floor = self.header_length()
            self._pending = self._decode(self.header_image())
        return self._pending

    @property
    def has_pending(self):
        return self._pending is not None

    def overlay_header(self, image, extent=0):
        """Install ``image`` as this page's volatile header overlay.

        Group commit: an epoch member's header image is redo-logged
        and covered by the shared group mark, but not yet applied to
        the page (the coalesced checkpoint runs at epoch close).
        Until then every fresh fetch of the page must see the member's
        committed state — this installs it as the pending overlay.

        The free-list consistency check is skipped (a pending header
        now exists, so :meth:`begin_pending` has nothing to load) and
        the page is *not* marked validated: judged against the
        *durable* offset array the member's new cells look dead, and a
        rebuild would hand live cells back to the allocator.  Nothing
        needs marking either — a page is overlaid only after a
        transaction mutated it, which validated it.

        The head word is the page's, not the image's: the image froze
        the value the member saw when it was logged, and every later
        pop, reclaim or rebuild moved the one in memory.  The floor
        protects the durable offset array (still what a crash
        pre-checkpoint replays over), the overlay's own extent, and
        ``extent``: the widest image the epoch's close will still write
        here.  The close and crash replay apply every member's image in
        log order, so an earlier member's longer header lands over any
        cell placed between the latest image's end and its own.
        """
        committed = self.committed_header_image()
        self._floor = max(len(committed), len(image), extent)
        self._pending = self._decode(image)
        self._pending.freelist_head = int.from_bytes(
            committed[_OFF_FREELIST:FIXED_HEADER_SIZE], "little"
        )
        return self._pending

    def clone_pending(self):
        """A snapshot of the pending header (None if clean) — used by
        savepoints for partial rollback."""
        return None if self._pending is None else self._pending.clone()

    def restore_pending(self, snapshot, held=()):
        """Reinstate a snapshot taken by :meth:`clone_pending`.

        The in-page free list is rebuilt from the restored offset
        array: chunks consumed after the savepoint become free again
        and cells written after it return to free space (they were
        never reachable from a committed header).  ``held``: cells the
        restored header already dropped but a committed header still
        reaches (see :meth:`rebuild_free_list`).
        """
        self._pending = None if snapshot is None else snapshot.clone()
        if self._pending is not None and self._floor == 0:
            self._floor = len(self.committed_header_image())
        self.rebuild_free_list(held)

    def discard_pending(self, held=()):
        """Forget all uncommitted header changes (rollback).

        Record bytes already written into free space stay where they
        are — they are unreachable, and the free list is rebuilt from
        the committed offset array (plus ``held``, see
        :meth:`rebuild_free_list`).
        """
        self._pending = None
        self.rebuild_free_list(held)

    def pending_insert(self, slot, payload):
        """Write ``payload`` into free space; add it at ``slot`` in the
        pending header.  Returns the cell offset."""
        pending = self.begin_pending()
        if self.header_capacity is not None and (
            pending.nrecords + 1 > self.header_capacity
        ):
            raise PageFullError("offset array at header capacity")
        offset = self._allocate_cell(payload)
        pending.offsets.insert(slot, offset)
        return offset

    def pending_update(self, slot, payload):
        """Out-of-place update (paper Section 3.2): write the new
        version into free space and repoint the pending slot."""
        pending = self.begin_pending()
        self._pending_offset(slot)
        offset = self._allocate_cell(payload)
        pending.offsets[slot] = offset
        return offset

    def pending_delete(self, slot):
        """Remove ``slot`` from the pending header (the cell itself is
        reclaimed only after commit)."""
        pending = self.begin_pending()
        self._pending_offset(slot)
        pending.offsets.pop(slot)

    def pending_set_flags(self, mask):
        """OR ``mask`` into the pending header's flags byte."""
        self.begin_pending().flags |= mask

    def pending_header_image(self):
        """The pending header serialised — what gets redo-logged or
        written by the in-place commit."""
        if self._pending is None:
            raise RuntimeError("no pending changes")
        return self._encode(self._pending)

    def record_range(self, offset, payload_len):
        """``(address, length)`` of the cell written at ``offset`` for a
        ``payload_len``-byte record: the bytes its flush must cover."""
        return self.base + offset, self._cell_need(payload_len)

    # ------------------------------------------------------------------
    # Header application (commit side)
    # ------------------------------------------------------------------

    def apply_header(self, image, *, persist=False, keep_freelist_head=False):
        """Overwrite the durable slot header with ``image``.

        Used by slot-header-log checkpointing (and by tests).  With
        ``persist`` the header lines are flushed and fenced.  With
        ``keep_freelist_head`` the page's own head word survives: for
        an ``image`` serialised before the page's free list last
        changed, whose copy of it is stale.
        """
        if keep_freelist_head:
            image = (
                image[:_OFF_FREELIST]
                + self.pm.read(self.base + _OFF_FREELIST, 2)
                + image[FIXED_HEADER_SIZE:]
            )
        self.pm.write(self.base, image)
        if persist:
            self.pm.persist(self.base, len(image))
        self._pending = None

    def publish_header(self, image, *, keep_pending=True):
        """Persist ``image`` as the page's durable header while keeping
        the pending overlay intact.

        Used by copy-on-write defragmentation: the fresh page's durable
        header exposes only the *committed* records (so swapping the
        parent's child pointer to it is crash-safe at any instant),
        while the transaction continues to see its full pending view.
        """
        self.pm.write(self.base, image)
        self.pm.persist(self.base, len(image))
        self._floor = max(self._floor, len(image))
        if not keep_pending:
            self._pending = None

    def commit_pending_inplace(self, rtm, *, max_retries=None, fallback=None):
        """The paper's in-place commit: one RTM transaction stores the
        whole pending header, then a single flush + fence persist it.

        Requires the header to fit the RTM write-set limit (one cache
        line), which ``header_capacity=28`` guarantees for leaves.

        ``max_retries``/``fallback`` implement the paper's alternative
        fallback policy: after that many transient aborts, ``fallback``
        runs instead (e.g. slot-header logging) and its result is
        returned; the pending header is left intact for it.
        """
        image = self.pending_header_image()
        sentinel = object()
        result = rtm.execute(
            lambda txn: txn.write(self.base, image),
            max_retries=max_retries,
            fallback=(lambda: sentinel) if fallback is not None else None,
        )
        if result is sentinel:
            return fallback()
        self.pm.persist(self.base, len(image))
        self._pending = None
        return None

    # ------------------------------------------------------------------
    # Free list (reconstructible; never needs to be failure-atomic)
    # ------------------------------------------------------------------

    def reclaim_cell(self, offset):
        """Add the (dead) cell at ``offset`` to the free list.

        Called after commit/checkpoint for cells dropped by updates and
        deletes.  Not flushed: the list is reconstructible.
        """
        self._push_chunk(offset, self.cell_allocated_size(offset))

    def rebuild_free_list(self, held=()):
        """Recompute the free list from the record offset array
        (Section 4.3: gaps between live cells in the content area).

        ``held`` lists the offsets of cells that are dead in the
        effective header yet must not be handed out: a header that is
        not durable yet dropped them, so until it is they are what a
        crash recovers, and their owner reclaims them afterwards.  The
        caller asks that owner; they count as live here.
        """
        live = sorted(
            (offset, self.cell_allocated_size(offset))
            for offset in (*self.slots(), *held)
        )
        self._set_freelist_head(0)
        cursor = self.content_start
        for offset, size in live:
            if offset > cursor:
                self._write_chunk_sorted(cursor, offset - cursor)
            cursor = max(cursor, offset + size)
        if self.page_size > cursor:
            self._write_chunk_sorted(cursor, self.page_size - cursor)

    def free_list_consistent(self):
        """Does the free list account for exactly the dead bytes of the
        content area?  (The paper's lazy consistency check.)"""
        dead = self.dead_content_bytes()
        chunk_total = sum(size for _, size in self.free_chunks())
        return chunk_total == dead

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _cell_need(self, payload_len):
        """Allocation size for a cell on this page (alignment-aware)."""
        align = self.cell_align
        raw = CELL_HEADER_SIZE + payload_len
        return max(_MIN_CHUNK, (raw + align - 1) // align * align)

    def _allocate_cell(self, payload):
        """Write a cell for ``payload`` into free space; return offset."""
        pending = self._pending
        need = self._cell_need(len(payload))
        max_payload = self.page_size - FIXED_HEADER_SIZE - SLOT_SIZE - CELL_HEADER_SIZE
        if len(payload) > max_payload:
            raise RecordTooLargeError(
                "%d-byte record exceeds page capacity %d" % (len(payload), max_payload)
            )
        header_end = max(self.header_end(pending.nrecords + 1), self._floor)
        # 1. first-fit from the free list (SQLite checks freeblocks
        # before consuming the gap, which keeps content_start high and
        # the offset array free to grow) — allowed only if the array
        # still has room for one more slot.
        if header_end <= pending.content_start:
            chunk = self._pop_chunk(need)
            if chunk is not None:
                offset, allocated = chunk
                self._write_cell(offset, payload, allocated)
                return offset
        # 2. contiguous free space between offset array and content area
        if pending.content_start - need >= header_end:
            offset = pending.content_start - need
            pending.content_start = offset
            self._write_cell(offset, payload, need)
            return offset
        if self.total_free() >= need + SLOT_SIZE:
            raise PageFullError(
                "no contiguous chunk for %d bytes" % need, needs_defrag=True
            )
        raise PageFullError("page full (%d bytes requested)" % need)

    def _write_cell(self, offset, payload, allocated):
        self.pm.write_u16(self.base + offset, len(payload))
        self.pm.write_u16(self.base + offset + 2, allocated)
        self.pm.write(self.base + offset + CELL_HEADER_SIZE, payload)

    def _pop_chunk(self, need):
        """First-fit allocation from the free list; splits remainders."""
        prev = None
        offset = self.freelist_head
        guard = 0
        while offset and guard < self.page_size:
            guard += 1
            size = self.pm.read_u16(self.base + offset)
            nxt = self.pm.read_u16(self.base + offset + 2)
            if size >= need:
                remainder = size - need
                if remainder >= _MIN_CHUNK:
                    rem_off = offset + need
                    self.pm.write_u16(self.base + rem_off, remainder)
                    self.pm.write_u16(self.base + rem_off + 2, nxt)
                    self._relink(prev, rem_off)
                    return offset, need
                self._relink(prev, nxt)
                return offset, size  # remainder absorbed into the cell
            prev = offset
            offset = nxt
        return None

    def _push_chunk(self, offset, size):
        self.pm.write_u16(self.base + offset, size)
        self.pm.write_u16(self.base + offset + 2, self.freelist_head)
        self._set_freelist_head(offset)

    def _write_chunk_sorted(self, offset, size):
        """Append a chunk during rebuild (called in ascending-offset
        order, so pushing keeps the list reverse-sorted — fine)."""
        self._push_chunk(offset, size)

    def _relink(self, prev, target):
        if prev is None:
            self._set_freelist_head(target)
        else:
            self.pm.write_u16(self.base + prev + 2, target)

    def _set_freelist_head(self, offset):
        if self._pending is not None:
            self._pending.freelist_head = offset
        self.pm.write_u16(self.base + _OFF_FREELIST, offset)

    def _decode(self, image):
        count = (len(image) - FIXED_HEADER_SIZE) // SLOT_SIZE
        offsets = list(
            _struct.unpack_from("<%dH" % count, image, FIXED_HEADER_SIZE)
        )
        return _PendingHeader(
            page_type=image[_OFF_TYPE],
            flags=image[_OFF_FLAGS],
            content_start=int.from_bytes(image[4:6], "little"),
            freelist_head=int.from_bytes(image[6:8], "little"),
            offsets=offsets,
        )

    def _encode(self, header):
        return encode_header(
            header.page_type,
            header.flags,
            header.content_start,
            header.freelist_head,
            header.offsets,
        )


def encode_header(page_type, flags, content_start, freelist_head, offsets):
    """Serialise a slot header (fixed 8 bytes + record offset array)."""
    return _struct.pack(
        "<BBHHH%dH" % len(offsets),
        page_type,
        flags,
        len(offsets),
        content_start,
        freelist_head,
        *offsets,
    )


def live_extents(fixed_header, page_size):
    """Which bytes of a committed page a reader of its header can
    reach, decoded from the page's first ``FIXED_HEADER_SIZE`` bytes:
    ``(head_end, tail_start)``, meaning ``[0, head_end)`` and
    ``[tail_start, page_size)``.

    For the slotted layouts (leaf, internal, META) that is the header
    with its offset array, and the content area from ``content_start``
    (every cell offset and free-list chunk lies there).  Between them
    is the free-space hole, which holds nothing committed — only open
    writers' not-yet-published cells.  Any other type (overflow pages
    keep data from +16, freed pages a link word), and any header whose
    fields do not describe that layout, is live throughout:
    ``(page_size, page_size)``.
    """
    if fixed_header[_OFF_TYPE] in (PAGE_LEAF, PAGE_INTERNAL, PAGE_META):
        nrecords, content_start = _struct.unpack_from(
            "<HH", fixed_header, _OFF_NRECORDS
        )
        header_end = FIXED_HEADER_SIZE + SLOT_SIZE * nrecords
        if header_end <= content_start <= page_size:
            return header_end, content_start
    return page_size, page_size

