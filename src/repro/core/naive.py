"""Naive in-place engine: the strawman for the atomicity ablation.

Every mutation overwrites the slot header in place with ordinary
stores and flushes — no log, no RTM, no commit mark.  With
failure-atomic writes narrower than the header (the 8-byte crash
model), a crash can persist *part* of a header update, exactly the
torn-commit hazard the paper's two mechanisms eliminate.  The ablation
benchmark (and the crash-consistency harness) demonstrate this: the
naive engine is the fastest and the only one that corrupts.
"""

from repro.core.base import Engine
from repro.storage.defrag import defragment_into


class NaiveContext:
    """Applies every header change immediately and non-atomically."""

    def __init__(self, engine):
        self.engine = engine
        self.store = engine.store
        self.pm = engine.pm
        self.clock = engine.pm.clock
        self.obs = engine.obs
        self._pages = {}

    # -- view protocol ---------------------------------------------------

    def segment(self, name):
        return self.obs.span(name)

    def root_page_no(self, slot):
        return self.store.root(slot)

    def page(self, page_no):
        page = self._pages.get(page_no)
        if page is None:
            page = self.store.page(page_no)
            self._pages[page_no] = page
        return page

    route = page

    # -- mutation protocol -------------------------------------------------

    def insert_record(self, page, slot, payload):
        with self.obs.span("in_place_record_insert"):
            offset = page.pending_insert(slot, payload)
        with self.obs.span("clflush_record"):
            page.flush_record(offset, len(payload))
        self._apply(page)
        return offset

    def update_record(self, page, slot, payload):
        old_offset = page.slot_offset(slot)
        with self.obs.span("in_place_record_insert"):
            offset = page.pending_update(slot, payload)
        with self.obs.span("clflush_record"):
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
        # repro: allow[PM001] the naive scheme's whole point is unprotected in-place stores
        self.pm.write_u32(position, new_child_no)
        self.pm.persist(position, 4)

    def lock_ahead(self, page=None, root_slot=None):
        """Nothing to claim: the naive baseline serves no sessions."""

    def defragment(self, page_no):
        with self.obs.span("defrag"):
            fresh = defragment_into(self.store, self.page(page_no))
        fresh_no = self.store.page_no_of(fresh)
        self._pages[fresh_no] = fresh
        # Naive semantics: apply the full view immediately.
        fresh.apply_header(fresh.pending_header_image())
        self.pm.persist(fresh.base, fresh.header_length())
        return fresh_no, fresh

    def _apply(self, page):
        """In-place header overwrite — *not* failure-atomic."""
        image = page.pending_header_image()
        page.apply_header(image)
        self.pm.flush_range(page.base, len(image))
        self.pm.sfence()


class NaiveEngine(Engine):
    """Unlogged in-place slotted paging (no crash atomicity)."""

    scheme = "naive"
    #: Sessions need rollback (lock conflicts abort transactions); the
    #: naive scheme has none, so it stays single-session by design.
    #: This also rules out MVCC snapshot reads (``read_only`` sessions):
    #: in-place header overwrites destroy the committed pre-images the
    #: version chains are built from.
    isolation_modes = ()

    def _new_context(self, session=None):
        return NaiveContext(self)

    def _commit(self, ctx):
        with self.obs.phase("commit"):
            pass  # everything was already applied in place

    def _rollback(self, ctx):
        raise NotImplementedError(
            "the naive engine cannot roll back: changes are applied in "
            "place immediately (that is the point of the ablation)"
        )

    def recover(self):
        """Best effort only: collect orphans (free lists correct
        themselves lazily).  Torn headers are *not* detectable — see
        the ablation."""
        self.obs.inc("engine.recovery")
        self.store.freelist_validated.clear()
        if self.config.eager_recovery_gc:
            self.garbage_collect()
