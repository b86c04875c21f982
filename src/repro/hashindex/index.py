"""Static hashing with overflow chains on slotted pages.

Layout:

* the **directory** is one slotted page holding ``nbuckets`` fixed
  4-byte records — bucket head page numbers (0 = bucket not yet
  allocated).  Updating an entry is an ordinary out-of-place record
  update, so directory changes commit atomically with the transaction
  under every scheme;
* a **bucket** is a chain of slotted pages.  Slot 0 of each bucket
  page is the chain cell (u32 next page number); records live in
  slots 1..n, unordered, encoded as ``u16 key_len | key | value``.

Inserting into a full bucket appends an overflow page — a multi-page
transaction that FAST⁺ automatically routes through slot-header
logging, exactly like a B-tree split.  When the chain's last page has
no room left for its new chain cell, the overflow page is linked in
as the bucket's head instead (through the directory).

The index uses the same view/context protocol as ``repro.btree``, so
any transaction's context — every scheme's is a
``repro.core.base.MutationContext`` — works unchanged::

    index = HashIndex(root_slot=2)
    with engine.transaction() as txn:
        index.create(txn.ctx)
        index.insert(txn.ctx, b"key", b"value")
"""

import zlib

from repro.btree.cells import leaf_cell, leaf_key, parse_leaf
from repro.storage.slotted_page import PAGE_LEAF, PAGE_META, PageFullError

_CHAIN_SLOT = 0
_FIRST_RECORD_SLOT = 1


class HashIndex:
    """A persistent hash index bound to a root-pointer slot."""

    def __init__(self, *, root_slot, nbuckets=64):
        if nbuckets < 1:
            raise ValueError("need at least one bucket")
        self.root_slot = root_slot
        self.nbuckets = nbuckets

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def create(self, ctx):
        """Allocate the directory page with all buckets unassigned."""
        page_no, directory = ctx.allocate_page(PAGE_META)
        for bucket in range(self.nbuckets):
            ctx.insert_record(directory, bucket, (0).to_bytes(4, "little"))
        ctx.set_root(self.root_slot, page_no)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def bucket_of(self, key):
        return zlib.crc32(key) % self.nbuckets

    def search(self, view, key):
        """Value stored under ``key``, or None."""
        head_no = self._bucket_head(self._directory(view), self.bucket_of(key))
        if head_no == 0:
            return None
        for page, slot in self._chain_pages(view, head_no, key):
            if slot is not None:
                return parse_leaf(page.record(slot))[1]
        return None

    def insert(self, ctx, key, value, *, replace=False):
        """Insert ``key -> value``; with ``replace`` overwrite."""
        payload = leaf_cell(key, value)
        directory = self._directory(ctx)
        bucket = self.bucket_of(key)
        head_no = self._bucket_head(directory, bucket)
        # Claim what any outcome may write — the directory slot and the
        # bucket's chain — before the first store.
        if ctx.lock_ahead(directory):
            for page_no in self._chain_page_nos(ctx, head_no):
                ctx.lock_ahead(ctx.page(page_no))
        if head_no == 0:
            head_no, head = self._new_bucket_page(ctx)
            ctx.update_record(
                directory, bucket, head_no.to_bytes(4, "little")
            )
        for page, slot in self._chain_pages(ctx, head_no, key):
            if slot is not None:
                if not replace:
                    raise KeyError("duplicate key %r" % key)
                try:
                    ctx.update_record(page, slot, payload)
                    return
                except PageFullError:
                    if page.fits_after_copy(len(payload)):
                        page = self._copy_on_write(ctx, directory, bucket,
                                                   head_no, page)
                        ctx.update_record(page, slot, payload)
                        return
                # No room here even compacted: move the record along
                # the chain, as a fresh insert would place it.
                ctx.delete_record(page, slot)
                break
        # Not present: append to the first chain page with room.
        page = ctx.page(head_no)
        while True:
            try:
                ctx.insert_record(page, page.nrecords, payload)
                return
            except PageFullError:
                if page.fits_after_copy(len(payload)):
                    # Fragmented page: rewrite copy-on-write and
                    # repoint whoever references it.
                    page = self._copy_on_write(ctx, directory, bucket,
                                               head_no, page)
                    continue
                next_no = self._next_of(page)
                if next_no == 0:
                    overflow_no, overflow = self._new_bucket_page(ctx)
                    pointer = overflow_no.to_bytes(4, "little")
                    try:
                        ctx.update_record(page, _CHAIN_SLOT, pointer)
                    except PageFullError:
                        # No room for the tail's new chain cell: the
                        # new page becomes the bucket's head instead.
                        ctx.update_record(overflow, _CHAIN_SLOT,
                                          head_no.to_bytes(4, "little"))
                        ctx.update_record(directory, bucket, pointer)
                    page = overflow
                else:
                    page = ctx.page(next_no)

    def delete(self, ctx, key):
        """Remove ``key``; returns False if absent."""
        head_no = self._bucket_head(self._directory(ctx), self.bucket_of(key))
        if head_no == 0:
            return False
        for page, slot in self._chain_pages(ctx, head_no, key):
            if slot is not None:
                ctx.delete_record(page, slot)
                return True
        return False

    def items(self, view):
        """All (key, value) pairs (unordered, as hash files are)."""
        directory = self._directory(view)
        for bucket in range(self.nbuckets):
            page_no = self._bucket_head(directory, bucket)
            while page_no:
                page = view.page(page_no)
                for slot in range(_FIRST_RECORD_SLOT, page.nrecords):
                    yield parse_leaf(page.record(slot))
                page_no = self._next_of(page)

    def count(self, view):
        return sum(1 for _ in self.items(view))

    # ------------------------------------------------------------------
    # Integrity / GC support
    # ------------------------------------------------------------------

    def verify(self, view):
        """Every record hashes to the bucket that holds it; chains are
        acyclic.  Returns the record count."""
        directory = self._directory(view)
        assert directory.nrecords == self.nbuckets, "directory truncated"
        count = 0
        for bucket in range(self.nbuckets):
            seen = set()
            page_no = self._bucket_head(directory, bucket)
            while page_no:
                assert page_no not in seen, "cycle in bucket %d" % bucket
                seen.add(page_no)
                page = view.page(page_no)
                keys = set()
                for slot in range(_FIRST_RECORD_SLOT, page.nrecords):
                    key = leaf_key(page.record(slot))
                    assert self.bucket_of(key) == bucket, (
                        "key %r misplaced in bucket %d" % (key, bucket)
                    )
                    assert key not in keys, "duplicate %r in page" % key
                    keys.add(key)
                    count += 1
                page_no = self._next_of(page)
        return count

    def reachable_pages(self, view):
        """Directory + every bucket/overflow page (for GC)."""
        root = view.root_page_no(self.root_slot)
        if not root:
            return set()
        return self.reachable_from_directory(view, root)

    @staticmethod
    def reachable_from_directory(view, root_page_no):
        """Reachability walk from a directory page, without needing the
        index object (used by engine-level garbage collection, which
        recognises hash directories by their META page type)."""
        pages = {root_page_no}
        directory = view.page(root_page_no)
        for bucket in range(directory.nrecords):
            page_no = int.from_bytes(directory.record(bucket), "little")
            while page_no and page_no not in pages:
                pages.add(page_no)
                chain = view.page(page_no)
                page_no = int.from_bytes(chain.record(_CHAIN_SLOT), "little")
        return pages

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _directory(self, view):
        return view.page(view.root_page_no(self.root_slot))

    @staticmethod
    def _bucket_head(directory, bucket):
        return int.from_bytes(directory.record(bucket), "little")

    @staticmethod
    def _next_of(page):
        return int.from_bytes(page.record(_CHAIN_SLOT), "little")

    def _new_bucket_page(self, ctx):
        page_no, page = ctx.allocate_page(PAGE_LEAF)
        ctx.insert_record(page, _CHAIN_SLOT, (0).to_bytes(4, "little"))
        return page_no, page

    def _chain_pages(self, view, head_no, key):
        """Yield (page, slot-of-key-or-None) along the bucket chain."""
        page_no = head_no
        while page_no:
            page = view.page(page_no)
            found = None
            for slot in range(_FIRST_RECORD_SLOT, page.nrecords):
                if leaf_key(page.record(slot)) == key:
                    found = slot
                    break
            yield page, found
            page_no = self._next_of(page)

    def _copy_on_write(self, ctx, directory, bucket, head_no, page):
        """Defragment a chain page and repoint its referrer."""
        old_no = next(
            no for no in self._chain_page_nos(ctx, head_no)
            if ctx.page(no) is page or ctx.page(no).base == page.base
        )
        new_no, fresh = ctx.defragment(old_no)
        if new_no == old_no:
            return fresh
        pointer = new_no.to_bytes(4, "little")
        if old_no == head_no:
            ctx.update_record(directory, bucket, pointer)
        else:
            previous = self._predecessor(ctx, head_no, old_no)
            ctx.update_record(previous, _CHAIN_SLOT, pointer)
        ctx.free_page(old_no)
        return fresh

    def _chain_page_nos(self, view, head_no):
        page_no = head_no
        while page_no:
            yield page_no
            page_no = self._next_of(view.page(page_no))

    def _predecessor(self, view, head_no, target_no):
        for page_no in self._chain_page_nos(view, head_no):
            page = view.page(page_no)
            if self._next_of(page) == target_no:
                return page
        raise KeyError("page %d not in chain" % target_no)
