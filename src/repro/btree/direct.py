"""Direct (unlogged) transaction context.

``DirectContext`` applies every mutation to the page immediately:
record bytes are flushed, then the slot header is overwritten in place
with ordinary stores and flushed.  There is no write-ahead state and no
atomic commit of the header.

It serves two purposes:

* the context for B-tree unit tests, where crash safety is not under
  test and immediate application keeps assertions simple;
* the **naive in-place baseline** of the atomicity ablation: under the
  8-byte-atomic crash model a multi-word slot header *can tear*, which
  is exactly the failure the paper's in-place commit (RTM + line-atomic
  flush) and slot-header logging exist to prevent.

It also doubles as a read view (``root_page_no`` / ``page`` /
``route``).
"""

from repro.storage.defrag import defragment_into


class DirectContext:
    """Immediate-application context over a ``PageStore``."""

    def __init__(self, store):
        self.store = store
        self._pages = {}

    # ------------------------------------------------------------------
    # View protocol
    # ------------------------------------------------------------------

    def root_page_no(self, slot):
        return self.store.root(slot)

    def page(self, page_no):
        page = self._pages.get(page_no)
        if page is None:
            page = self.store.page(page_no)
            self._pages[page_no] = page
        return page

    route = page

    # ------------------------------------------------------------------
    # Mutation protocol
    # ------------------------------------------------------------------

    def insert_record(self, page, slot, payload):
        offset = page.pending_insert(slot, payload)
        page.flush_record(offset, len(payload))
        self._apply(page)
        return offset

    def update_record(self, page, slot, payload):
        old_offset = page.slot_offset(slot)
        offset = page.pending_update(slot, payload)
        page.flush_record(offset, len(payload))
        self._apply(page)
        page.reclaim_cell(old_offset)
        return offset

    def delete_record(self, page, slot):
        old_offset = page.slot_offset(slot)
        page.pending_delete(slot)
        self._apply(page)
        page.reclaim_cell(old_offset)

    def set_page_flags(self, page, mask):
        page.pending_set_flags(mask)
        self._apply(page)

    def allocate_page(self, page_type):
        page = self.store.allocate_page(page_type)
        page_no = self.store.page_no_of(page)
        self._pages[page_no] = page
        return page_no, page

    def free_page(self, page_no):
        self._pages.pop(page_no, None)
        self.store.free_page(page_no)

    def set_root(self, slot, page_no):
        self.store.set_root(slot, page_no)

    def overwrite_child_pointer(self, parent_page, slot, new_child_no):
        from repro.storage.slotted_page import CELL_HEADER_SIZE

        offset = parent_page.slot_offset(slot)
        position = parent_page.base + offset + CELL_HEADER_SIZE
        self.store.pm.write_u32(position, new_child_no)
        self.store.pm.persist(position, 4)

    def lock_ahead(self, page=None, root_slot=None):
        """Nothing to claim: a direct context serves no sessions."""

    def defragment(self, page_no):
        fresh = defragment_into(self.store, self.page(page_no))
        fresh_no = self.store.page_no_of(fresh)
        self._pages[fresh_no] = fresh
        fresh.apply_header(fresh.pending_header_image(), persist=True)
        return fresh_no, fresh

    # ------------------------------------------------------------------

    def _apply(self, page):
        """Overwrite the header in place — deliberately *not* atomic."""
        page.apply_header(page.pending_header_image(), persist=True)
