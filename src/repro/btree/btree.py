"""Scheme-agnostic B+-tree on failure-atomic slotted pages.

The tree never touches persistent memory directly: every read goes
through a *view* and every mutation through a *transaction context*,
both duck-typed.  The commit schemes (FAST, FAST⁺, NVWAL, the unsafe
naive baseline) provide these objects, which is what lets one tree
implementation run under every recovery scheme the paper compares.
Every context is a :class:`repro.core.base.MutationContext`, which
owns the body of each protocol method below; a scheme supplies only
the hooks around the store (and 2PL only the claim hook).

View protocol (read path)::

    view.root_page_no(slot) -> int
    view.page(page_no) -> SlottedPage      # pending overlay included
    view.route(page_no) -> SlottedPage     # the same, for a point descent

Context protocol (mutation path) — extends the view protocol::

    ctx.insert_record(page, slot, payload) -> offset
    ctx.update_record(page, slot, payload) -> offset
    ctx.delete_record(page, slot)
    ctx.set_page_flags(page, mask)         # OR into the header's flags
    ctx.allocate_page(page_type) -> (page_no, SlottedPage)
    ctx.free_page(page_no)                 # deferred to post-commit
    ctx.set_root(slot, page_no)            # atomic with the commit
    ctx.overwrite_child_pointer(page, slot, child_no)  # in-place swap
    ctx.defragment(page_no) -> (new_no, new_page)
    ctx.lock_ahead(page=None, root_slot=None)  # claim before storing
    ctx.flush_records()    # flush the lines records dirtied, once each

Structural notes (paper Section 4):

* splits allocate a *left sibling* that receives the smaller keys,
  leaving the original page (and its committed cells) in place —
  Figure 4's algorithm;
* the separator pushed into the parent is the largest key of the left
  sibling;
* a page whose total free space suffices but is fragmented is rewritten
  copy-on-write and the parent's child pointer is swapped as part of
  the same transaction (Section 4.3);
* plan, claim, then store: every operation claims the pages and root
  slot it will write through ``ctx.lock_ahead`` before its first store
  — the leaf, then, when the leaf cannot take its cell, each ancestor
  up to the first that can take what the level below sends it
  (Bayer & Schkolnick's safe node), the root slot above an unsafe root,
  and the overflow-chain pages a replace or delete frees — so a
  locking context that meets another transaction can wait instead of
  discarding what it stored (a claim after a store raises there).  A
  split or copy-on-write then re-points the descent path's entries
  (``_PathEntry``) at the pages now holding the cell, and the insert
  finishes there: nothing re-descends from the root;
* a point descent (search, insert, delete, update) reads through
  ``view.route``, which is ``view.page`` everywhere but under 2PL:
  there an internal page it only routes through gets an
  instant-duration S check instead of an S lock held to commit, and
  only the leaf keeps one (DESIGN.md §10).  Range scans read through
  ``view.page``: a lazy cursor outlives its step, so it keeps S on
  every page it passes;
* every leaf-cell write goes through :meth:`BTree._put_leaf_cell`, which
  sets a leaf's ``FLAG_HAS_OVERFLOW`` header bit with its first overflow
  cell, so reachability reads the records of flagged leaves only — and,
  while the page store's overflow latch is clear, reads no leaf at all.
"""

from contextlib import nullcontext

from repro.btree import overflow
from repro.btree.cells import (
    OVERFLOW_FLAG,
    RIGHTMOST_KEY_LEN,
    internal_cell,
    is_overflow_cell,
    leaf_cell,
    leaf_key,
    overflow_leaf_cell,
    parse_internal,
    parse_leaf_any,
)
from repro.storage.slotted_page import (
    FLAG_HAS_OVERFLOW,
    PAGE_INTERNAL,
    PAGE_LEAF,
    PageFullError,
    RecordTooLargeError,
)


#: The key-length bits of a leaf cell's first u16 (``leaf_key``).
_KEY_LEN_BITS = ~OVERFLOW_FLAG


def _pending_record(page, slot):
    return page.record(slot)


def _prober(page):
    """``(probe, at)`` with ``probe(at, slot) == page.record(slot)``:
    the memory's fused ``read_record`` at the page's base when no
    pending header exists, the page's own ``record`` otherwise."""
    if page.has_pending:
        return _pending_record, page
    return page.pm.read_record, page.base


def _segment(view, name):
    """The view's clock segment, if it measures phases (paper Section 5
    splits insertion time into Search / Page Update / Commit)."""
    opener = getattr(view, "segment", None)
    return opener(name) if opener is not None else nullcontext()


class DuplicateKeyError(KeyError):
    """INSERT of a key that already exists (without replace)."""


class _PathEntry:
    """One step of a root-to-leaf descent."""

    __slots__ = ("page_no", "page", "parent_slot")

    def __init__(self, page_no, page, parent_slot):
        self.page_no = page_no
        self.page = page
        self.parent_slot = parent_slot


class BTree:
    """A B+-tree identified by a root-pointer slot in the page store.

    Args:
        root_slot: which named root pointer of the ``PageStore`` holds
            this tree's root page number.
        leaf_capacity: max records per leaf (FAST⁺ uses 28 so the leaf
            slot-header fits one cache line; ``None`` = space-limited).
        internal_capacity: max cells per internal page (``None`` for
            both schemes — the paper keeps internal headers unlimited
            and always logs them).
    """

    def __init__(self, *, root_slot=0, leaf_capacity=None, internal_capacity=None):
        self.root_slot = root_slot
        self.leaf_capacity = leaf_capacity
        self.internal_capacity = internal_capacity

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def create(self, ctx):
        """Allocate an empty root leaf and point the root slot at it."""
        ctx.lock_ahead(root_slot=self.root_slot)
        page_no, _ = ctx.allocate_page(PAGE_LEAF)
        ctx.set_root(self.root_slot, page_no)

    def drop(self, ctx):
        """Clear the root slot: the tree's pages become unreachable."""
        ctx.set_root(self.root_slot, 0)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def search(self, view, key):
        """Value stored under ``key``, or ``None``."""
        with _segment(view, "search"):
            leaf = self._descend(view, key)[-1].page
            found, slot = self._leaf_search(leaf, key)
            if not found:
                return None
            return self._read_value(view, leaf.record(slot))

    def _read_value(self, view, payload):
        """A leaf cell's full value, following any overflow chain."""
        _, value, spilled = parse_leaf_any(payload)
        if spilled is None:
            return value
        total, head = spilled
        value = value + overflow.read_chain(view, head)
        assert len(value) == total, "overflow chain length mismatch"
        return value

    def contains(self, view, key):
        with _segment(view, "search"):
            leaf = self._descend(view, key)[-1].page
            return self._leaf_search(leaf, key)[0]

    def scan(self, view, lo=None, hi=None):
        """Yield ``(key, value)`` in key order for lo <= key <= hi."""
        root = view.root_page_no(self.root_slot)
        if root:
            yield from self._scan_page(view, root, lo, hi)

    def count(self, view):
        """Number of records in the tree."""
        return sum(1 for _ in self.scan(view))

    def height(self, view):
        """Number of levels (1 = a single leaf)."""
        levels = 1
        page = view.page(view.root_page_no(self.root_slot))
        while not self._typed(page):
            levels += 1
            _, child = parse_internal(page.record(0))
            page = view.page(child)
        return levels

    def reachable_pages(self, view, *, overflow_chains=True):
        """Page numbers of every page in the tree, including overflow
        chains (for GC).  A leaf's records are read only if its header
        says it may hold an overflow cell (``FLAG_HAS_OVERFLOW``), so
        the walk costs a header line per leaf, not a read per record.

        ``overflow_chains=False`` (the page store's overflow latch is
        clear: no chain was ever written) reads no leaf beyond one:
        see :meth:`_pages_without_chains`."""
        if not overflow_chains:
            return self._pages_without_chains(view)
        pages = set()
        stack = [view.root_page_no(self.root_slot)]
        while stack:
            page_no = stack.pop()
            if not page_no or page_no in pages:
                continue
            pages.add(page_no)
            page = view.page(page_no)
            if not self._typed(page):
                for payload in page.records():
                    stack.append(parse_internal(payload)[1])
            elif page.flags & FLAG_HAS_OVERFLOW:
                for payload in page.records():
                    if is_overflow_cell(payload):
                        _, _, (_, head) = parse_leaf_any(payload)
                        # Following the links read every chain page:
                        # list them, don't push them to be read again.
                        pages.update(overflow.chain_page_nos(view, head))
        return pages

    def _pages_without_chains(self, view):
        """Every page of a tree that holds no overflow cell.  Leaves all
        sit at one depth (a split grows a level only at the root, and an
        empty-leaf unlink removes one only there), so one leftmost
        descent finds it; the internal levels above it are read and the
        children of the last one are listed without being read."""
        root = view.root_page_no(self.root_slot)
        if not root:
            return set()
        pages = {root}
        level = [root]
        for _ in range(self.height(view) - 1):
            level = [
                parse_internal(payload)[1]
                for page_no in level
                for payload in self._typed_page(view, page_no).records()
            ]
            pages.update(level)
        return pages

    def verify(self, view):
        """Check structural invariants; returns the record count.

        Raises ``AssertionError`` on: unsorted keys, separator bounds
        violated, malformed rightmost cells, uneven leaf depth, a
        truncated overflow chain, or an overflow cell in a leaf whose
        ``FLAG_HAS_OVERFLOW`` bit is clear.
        """
        root = view.root_page_no(self.root_slot)
        leaf_depths = set()
        count = self._verify_page(view, root, None, None, 0, leaf_depths)
        assert len(leaf_depths) <= 1, "leaves at differing depths: %s" % leaf_depths
        return count

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------

    def insert(self, ctx, key, value, *, replace=False):
        """Insert ``key -> value``; with ``replace`` update an existing
        key out-of-place instead of raising ``DuplicateKeyError``."""
        with _segment(ctx, "search"):
            path = self._descend(ctx, key)
            leaf = path[-1]
            found, slot = self._leaf_search(leaf.page, key)
        with _segment(ctx, "page_update"):
            if found and not replace:
                raise DuplicateKeyError(repr(key))
            chain = self._chain_of(ctx, leaf.page.record(slot)) if found else ()
            payload, tail = self._spill(key, value, leaf.page.page_size)
            # A chain to write or free: claim the whole footprint before
            # the first store, since the leaf attempt would be one.
            if (chain or tail) and ctx.lock_ahead(leaf.page):
                if not leaf.page.fits_in_place([(len(payload), not found)]):
                    self._claim_above(ctx, path, slot, payload, found)
                for page_no in chain:
                    ctx.lock_ahead(ctx.page(page_no))
            if tail:
                payload = overflow_leaf_cell(
                    key, value[: len(value) - len(tail)], len(value),
                    overflow.write_chain(ctx, tail),
                )
            self._make_room(ctx, path, len(path) - 1, slot, payload,
                            replace=found)
            for page_no in chain:
                ctx.free_page(page_no)
            ctx.flush_records()

    def _spill(self, key, value, page_size):
        """``(cell, tail)``: the leaf cell of ``key -> value`` and the
        value tail it spills to an overflow chain, or None.  A spilled
        cell names chain head 0 until the chain is written, after the
        claims; the head is fixed-width, so the length is final."""
        payload = leaf_cell(key, value)
        if len(payload) <= overflow.max_local_payload(page_size):
            return payload, None
        local_room = overflow.local_payload_after_spill(page_size) - (
            2 + len(key) + 8
        )
        if local_room < 0:
            raise RecordTooLargeError(
                "key of %d bytes leaves no room in a %d-byte page"
                % (len(key), page_size)
            )
        cell = overflow_leaf_cell(key, value[:local_room], len(value), 0)
        return cell, value[local_room:]

    def _chain_of(self, view, payload):
        """Page numbers of an outgoing record's overflow chain (none for
        an inline record)."""
        if not is_overflow_cell(payload):
            return ()
        _, _, (_, head) = parse_leaf_any(payload)
        return overflow.chain_page_nos(view, head)

    def update(self, ctx, key, value):
        """Out-of-place update of an existing key; False if absent."""
        if not self.contains(ctx, key):
            return False
        self.insert(ctx, key, value, replace=True)
        return True

    def delete(self, ctx, key):
        """Delete ``key``; returns False if it was not present.

        A leaf emptied by the deletion is unlinked from its parent and
        freed (and an internal root left with a single child collapses),
        so delete-heavy workloads return pages to the store.  The
        parent, the root slot and the chain pages are claimed before
        the first store.
        """
        with _segment(ctx, "search"):
            path = self._descend(ctx, key)
            leaf = path[-1]
            found, slot = self._leaf_search(leaf.page, key)
        if not found:
            return False
        with _segment(ctx, "page_update"):
            chain = self._chain_of(ctx, leaf.page.record(slot))
            empties = len(path) > 1 and leaf.page.nrecords == 1
            if (chain or empties) and ctx.lock_ahead(leaf.page):
                if empties:
                    parent = path[-2]
                    ctx.lock_ahead(parent.page)
                    if len(path) == 2 and parent.page.nrecords == 2:
                        ctx.lock_ahead(root_slot=self.root_slot)
                for page_no in chain:
                    ctx.lock_ahead(ctx.page(page_no))
            ctx.delete_record(leaf.page, slot)
            for page_no in chain:
                ctx.free_page(page_no)
            if empties:
                self._unlink_empty_leaf(ctx, path)
            ctx.flush_records()
        return True

    def _unlink_empty_leaf(self, ctx, path):
        """Drop an empty leaf's cell from its parent and free the page
        (all through pending operations, so it commits atomically); a
        root parent left with a single child hands it the root role."""
        leaf = path[-1]
        parent = path[-2]
        slot = leaf.parent_slot
        nrec = parent.page.nrecords
        if slot == nrec - 1:
            # The empty leaf is the rightmost child: promote the
            # previous child to rightmost and drop its old cell.
            if nrec < 2:
                return  # a lone child: keep the leaf as the catch-all
            _, prev_child = parse_internal(parent.page.record(slot - 1))
            try:
                ctx.update_record(parent.page, slot, internal_cell(None, prev_child))
            except PageFullError:
                return  # no room for the rewrite: harmless to keep
            ctx.delete_record(parent.page, slot - 1)
        else:
            ctx.delete_record(parent.page, slot)
        ctx.free_page(leaf.page_no)
        if len(path) == 2 and parent.page.nrecords == 1:
            _, only_child = parse_internal(parent.page.record(0))
            ctx.set_root(self.root_slot, only_child)
            ctx.free_page(parent.page_no)

    # ------------------------------------------------------------------
    # Descent helpers
    # ------------------------------------------------------------------

    def _typed_page(self, view, page_no):
        page = view.page(page_no)
        self._typed(page)
        return page

    def _typed(self, page):
        """Give ``page`` the header capacity of its type; True for a
        leaf.  One load of the type byte (none under a pending
        header)."""
        leaf = page.page_type == PAGE_LEAF
        page.header_capacity = (
            self.leaf_capacity if leaf else self.internal_capacity
        )
        return leaf

    def _descend(self, view, key):
        path = []
        page_no = view.root_page_no(self.root_slot)
        parent_slot = None
        route = view.route
        while True:
            page = route(page_no)
            path.append(_PathEntry(page_no, page, parent_slot))
            if self._typed(page):
                return path
            parent_slot = self._child_slot(page, key)
            _, page_no = parse_internal(page.record(parent_slot))

    def _leaf_search(self, page, key):
        """Binary search a leaf -> (found, slot).  Each probe is one
        record read, its key decoded inline as ``leaf_key`` does (a
        payload too short to hold the length goes through it)."""
        lo, hi = 0, page.nrecords
        probe, at = _prober(page)
        while lo < hi:
            mid = (lo + hi) // 2
            payload = probe(at, mid)
            try:
                mid_key = payload[
                    2 : 2 + ((payload[0] | payload[1] << 8) & _KEY_LEN_BITS)
                ]
            except IndexError:
                mid_key = leaf_key(payload)
            if mid_key < key:
                lo = mid + 1
            elif mid_key > key:
                hi = mid
            else:
                return True, mid
        return False, lo

    def _child_slot(self, page, key):
        """Slot of the internal cell routing ``key`` (rightmost wins).
        Each probe's separator is decoded inline as ``parse_internal``
        does (a payload too short to hold the length goes through it)."""
        nrec = page.nrecords
        lo, hi = 0, nrec - 1  # the last cell is the rightmost catch-all
        probe, at = _prober(page)
        while lo < hi:
            mid = (lo + hi) // 2
            payload = probe(at, mid)
            try:
                key_len = payload[4] | payload[5] << 8
            except IndexError:
                key_len = int.from_bytes(payload[4:6], "little")
            if key_len != RIGHTMOST_KEY_LEN and payload[6 : 6 + key_len] < key:
                lo = mid + 1
            else:
                hi = mid
        return lo

    # ------------------------------------------------------------------
    # Insert machinery: plan, claim, then store
    # ------------------------------------------------------------------

    def _put_leaf_cell(self, ctx, page, slot, payload, *, replace=False):
        """Write a leaf cell — insert it at ``slot``, or with
        ``replace`` repoint ``slot`` at it — and flag the leaf when the
        cell is its first overflow cell (same transaction, so the bit
        commits with the header that makes the cell reachable)."""
        if replace:
            ctx.update_record(page, slot, payload)
        else:
            ctx.insert_record(page, slot, payload)
        if is_overflow_cell(payload) and not page.flags & FLAG_HAS_OVERFLOW:
            ctx.set_page_flags(page, FLAG_HAS_OVERFLOW)

    def _make_room(self, ctx, path, depth, slot, cell, *, replace=False):
        """Store ``cell`` at ``slot`` of ``path[depth]`` — inserted, or
        with ``replace`` repointing the slot — rewriting the page
        copy-on-write if compaction would make it fit (paper Section
        4.3: committed fragments and cells this transaction made dead)
        and splitting it otherwise (Figure 4), until it does.  A
        replace that finds no room first drops the old version from
        the page's pending view (on FAST pages the two cannot share a
        page before the commit) and places the new one as an insert.

        The path follows the cell: a copy-on-write re-points its entry
        at the fresh page, a split at whichever half now holds the slot,
        and the child below (whose cell this is) gets the final slot —
        so nothing re-descends from the root.  A leaf store that finds no
        room claims what the rest will write first (:meth:`_claim_above`,
        which finds the claims of a planned spill or chain held): the
        attempt stored nothing."""
        entry = path[depth]
        leaf = unplanned = entry is path[-1]
        own = replace  # the cell is the child's own, not a new one before it
        while True:
            try:
                if leaf:
                    self._put_leaf_cell(ctx, entry.page, slot, cell,
                                        replace=replace)
                elif replace:
                    ctx.update_record(entry.page, slot, cell)
                else:
                    ctx.insert_record(entry.page, slot, cell)
                break
            except PageFullError:
                if unplanned:
                    unplanned = False
                    self._claim_above(ctx, path, slot, cell, replace)
            if replace:
                ctx.delete_record(entry.page, slot)
                replace = False
                continue
            depth = path.index(entry)
            if entry.page.fits_after_copy(len(cell)):
                self._copy_on_write(ctx, path, depth)
                continue
            if slot == 0 and entry.page.nrecords == 1:
                # A split would move the record, and the cell with it.
                raise PageFullError(
                    "a %d-byte cell does not fit beside its neighbour"
                    % len(cell)
                )
            sibling_no, sibling, half = self._split(ctx, path, depth)
            if slot < half:
                entry.page_no, entry.page = sibling_no, sibling
                entry.parent_slot -= 1
            else:
                slot -= half
        if not leaf:
            path[path.index(entry) + 1].parent_slot = slot + (not own)

    def _claim_above(self, ctx, path, slot, cell, replace):
        """Claim, bottom-up, what making room for ``cell`` at the leaf's
        ``slot`` will write above the leaf (Bayer & Schkolnick's safe
        node): each ancestor up to and including the first that takes,
        in place, every cell the level below may send it, and the root
        slot if there is none.  An ancestor is judged after its claim,
        by the rule its stores will meet (``fits_in_place``).  A level
        sent one cell is planned again one level up; if several, the
        rest of the path is claimed.  A context that takes no locks
        claims nothing, and nothing is planned."""
        depth = len(path) - 1
        length = len(cell)
        while depth:
            entry, parent = path[depth], path[depth - 1]
            if not ctx.lock_ahead(parent.page):
                return
            swap = len(parent.page.record(entry.parent_slot))
            sends = self._sends(entry.page, slot, length, replace, swap)
            if parent.page.fits_in_place(sends):
                return
            if len(sends) > 1:
                for above in reversed(path[: depth - 1]):
                    ctx.lock_ahead(above.page)
                break
            ((length, adds_slot),) = sends
            replace = not adds_slot
            slot = entry.parent_slot
            depth -= 1
        ctx.lock_ahead(root_slot=self.root_slot)

    def _sends(self, page, slot, length, replace, swap):
        """The cells :meth:`_make_room` stores one level up while
        ``page`` makes room for a ``length``-byte cell at ``slot``, as
        ``fits_in_place`` pairs in order: a separator per split, and a
        ``swap``-byte cell where a page that holds committed cells is
        rewritten copy-on-write.  It runs ``_make_room``'s
        loop on the cells' sizes alone, taking every in-place attempt
        on a page that keeps dead cells as failing: the longest run,
        of which the real one is a prefix."""
        offsets = page.slots()
        if replace:
            del offsets[slot]
        sizes = [page.cell_allocated_size(offset) for offset in offsets]
        sends = []
        while not page.fits_after_copy(length, sizes=sizes):
            if slot == 0 and len(sizes) <= 1:
                raise PageFullError(
                    "a %d-byte cell does not fit beside its neighbour" % length
                )
            half = max(1, len(sizes) // 2)
            separator = page.read_cell(offsets[half - 1])
            if page.page_type == PAGE_LEAF:
                separator = internal_cell(leaf_key(separator), 0)
            sends.append((len(separator), True))
            if slot < half:
                # The new left sibling: it takes a cell in place exactly
                # when it would after a copy, and its rewrite swaps its
                # pointer in place.
                offsets = offsets[:half]
                sizes = [page.copied_size(offset) for offset in offsets]
                swap = 0
            else:
                offsets, sizes, slot = offsets[half:], sizes[half:], slot - half
        if swap:
            sends.append((swap, False))
        return sends

    def _copy_on_write(self, ctx, path, depth):
        """Defragment ``path[depth]`` copy-on-write, swap the parent
        pointer (paper Section 4.3) and re-point the entry.

        A context may defragment *in place* (NVWAL's volatile cache can
        shift records freely), in which case the page number is
        unchanged and no pointer swap or free is needed.
        """
        entry = path[depth]
        new_no, new_page = ctx.defragment(entry.page_no)
        new_page.header_capacity = entry.page.header_capacity
        if new_no != entry.page_no:
            self._swap_child(ctx, path, depth, new_no)
            ctx.free_page(entry.page_no)
        entry.page_no, entry.page = new_no, new_page

    def _swap_child(self, ctx, path, depth, new_page_no):
        """Repoint the parent at a copy-on-write page.

        Two regimes (paper Section 4.3):

        * **in-place** — when the fresh page carries *every* committed
          record of the old one, its durable header is
          committed-equivalent, so a single 8-byte-atomic pointer store
          is crash-safe at any instant;
        * **transactional** — when this transaction already removed
          committed records from the page's pending view (a split moved
          them to a not-yet-committed sibling), the pointer must flip
          atomically with the commit, so it goes through a normal
          out-of-place cell update, making room in the parent if it
          has none.

        The root-pointer case always goes through the transaction (an
        8-byte-atomic root slot update).
        """
        entry = path[depth]
        if entry.parent_slot is None:
            ctx.set_root(self.root_slot, new_page_no)
            return
        parent = path[depth - 1]
        committed = set(entry.page.committed_offsets())
        if committed <= set(entry.page.slots()):
            ctx.overwrite_child_pointer(parent.page, entry.parent_slot, new_page_no)
            return
        sep, _ = parse_internal(parent.page.record(entry.parent_slot))
        self._make_room(ctx, path, depth - 1, entry.parent_slot,
                        internal_cell(sep, new_page_no), replace=True)

    def _split(self, ctx, path, depth):
        """Split ``path[depth]``: allocate a left sibling that takes
        the smaller half (paper Figure 4) and link it into the parent
        (growing the tree when the page is the root).

        Returns ``(sibling_no, sibling_page, half)`` — ``half`` is how
        many leading slots moved out, so callers with a pending cell
        can route it to the correct side.
        """
        entry = path[depth]
        page = entry.page
        nrec = page.nrecords
        if nrec < 1:
            raise PageFullError("cannot split an empty page")
        half = max(1, nrec // 2)
        page_type = page.page_type
        sibling_no, sibling = ctx.allocate_page(page_type)
        leaf = page_type == PAGE_LEAF
        sibling.header_capacity = (
            self.leaf_capacity if leaf else self.internal_capacity
        )
        if leaf:
            for i in range(half):
                self._put_leaf_cell(ctx, sibling, i, page.record(i))
            separator = leaf_key(page.record(half - 1))
        else:
            # The moved boundary cell becomes the sibling's rightmost;
            # its key is the separator pushed into the parent.
            for i in range(half - 1):
                ctx.insert_record(sibling, i, page.record(i))
            separator, child = parse_internal(page.record(half - 1))
            ctx.insert_record(sibling, half - 1, internal_cell(None, child))
        for _ in range(half):
            ctx.delete_record(page, 0)
        cell = internal_cell(separator, sibling_no)
        if depth:
            self._make_room(ctx, path, depth - 1, entry.parent_slot, cell)
        else:
            self._grow_root(ctx, path, cell)
        return sibling_no, sibling, half

    def _grow_root(self, ctx, path, cell):
        """The root split: a new root holds ``cell`` (the new left
        sibling) and the old root as its rightmost child."""
        old_root = path[0]
        root_no, root = ctx.allocate_page(PAGE_INTERNAL)
        root.header_capacity = self.internal_capacity
        ctx.insert_record(root, 0, cell)
        ctx.insert_record(root, 1, internal_cell(None, old_root.page_no))
        ctx.set_root(self.root_slot, root_no)
        path.insert(0, _PathEntry(root_no, root, None))
        old_root.parent_slot = 1

    # ------------------------------------------------------------------
    # Scan / verify internals
    # ------------------------------------------------------------------

    def _scan_page(self, view, page_no, lo, hi):
        page = view.page(page_no)
        if self._typed(page):
            for payload in page.records():
                key = leaf_key(payload)
                if lo is not None and key < lo:
                    continue
                if hi is not None and key > hi:
                    return
                yield key, self._read_value(view, payload)
            return
        for payload in page.records():
            sep, child = parse_internal(payload)
            if lo is not None and sep is not None and sep < lo:
                continue
            yield from self._scan_page(view, child, lo, hi)
            if hi is not None and sep is not None and sep >= hi:
                return

    # ------------------------------------------------------------------
    # Maintenance (VACUUM)
    # ------------------------------------------------------------------

    def compact(self, ctx, *, min_waste=64):
        """Rewrite fragmented pages copy-on-write (the paper's Section
        4.3 mechanism, applied proactively).  Returns the number of
        pages rewritten.  Runs inside the caller's transaction as one
        operation: it finds the pages first and claims each, with its
        parent (or the root slot), before the first rewrite."""
        root_no = ctx.root_page_no(self.root_slot)
        paths = []
        self._fragmented(
            ctx, [_PathEntry(root_no, ctx.page(root_no), None)],
            min_waste, paths,
        )
        for path in paths:
            ctx.lock_ahead(path[-1].page)
            if len(path) > 1:
                ctx.lock_ahead(path[-2].page)
            else:
                ctx.lock_ahead(root_slot=self.root_slot)
        for path in paths:
            self._copy_on_write(ctx, path, len(path) - 1)
        return len(paths)

    def _fragmented(self, ctx, path, min_waste, found):
        """Append to ``found``, children first, the path to every page
        below ``path[-1]`` (itself included) with ``min_waste`` dead
        bytes or more."""
        page = path[-1].page
        if not self._typed(page):
            for slot in range(page.nrecords):
                _, child_no = parse_internal(page.record(slot))
                child = _PathEntry(child_no, ctx.page(child_no), slot)
                self._fragmented(ctx, path + [child], min_waste, found)
        # Asked of the cells, not of the free list: a context may hold
        # the page as a copy of its committed bytes until it mutates it.
        if page.dead_content_bytes() >= min_waste:
            found.append(path)

    def _verify_page(self, view, page_no, lo, hi, depth, leaf_depths):
        page = view.page(page_no)
        if self._typed(page):
            leaf_depths.add(depth)
            keys = [leaf_key(p) for p in page.records()]
            assert keys == sorted(keys), "leaf %d keys unsorted" % page_no
            assert len(set(keys)) == len(keys), "leaf %d duplicate keys" % page_no
            for key in keys:
                assert lo is None or key > lo, "key below bound in leaf %d" % page_no
                assert hi is None or key <= hi, "key above bound in leaf %d" % page_no
            for payload in page.records():
                if is_overflow_cell(payload):
                    assert page.flags & FLAG_HAS_OVERFLOW, (
                        "leaf %d holds an overflow cell but "
                        "FLAG_HAS_OVERFLOW is clear" % page_no
                    )
                    _, prefix, (total, head) = parse_leaf_any(payload)
                    tail = overflow.read_chain(view, head)
                    assert len(prefix) + len(tail) == total, (
                        "overflow chain of leaf %d truncated" % page_no
                    )
            return len(keys)
        cells = [parse_internal(p) for p in page.records()]
        assert cells, "empty internal page %d" % page_no
        assert cells[-1][0] is None, "internal %d missing rightmost" % page_no
        seps = [sep for sep, _ in cells[:-1]]
        assert all(sep is not None for sep in seps), (
            "internal %d rightmost not last" % page_no
        )
        assert seps == sorted(seps), "internal %d separators unsorted" % page_no
        count = 0
        prev = lo
        for sep, child in cells:
            upper = sep if sep is not None else hi
            count += self._verify_page(view, child, prev, upper, depth + 1, leaf_depths)
            prev = upper if upper is not None else prev
        return count
