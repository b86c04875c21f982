"""Naive in-place engine: the strawman for the atomicity ablation.

Every mutation overwrites the slot header in place with ordinary
stores and flushes — no log, no RTM, no commit mark.  With
failure-atomic writes narrower than the header (the 8-byte crash
model), a crash can persist *part* of a header update, exactly the
torn-commit hazard the paper's two mechanisms eliminate.  The ablation
benchmark (and the crash-consistency harness) demonstrate this: the
naive engine is the fastest and the only one that corrupts.
"""

from repro.core.base import Engine, MutationContext


class NaiveContext(MutationContext):
    """Applies every header change immediately and non-atomically."""

    #: Nothing to restore: every change is already in place.
    snapshot_state = restore_state = None

    def _stored(self, page):
        """In-place header overwrite — *not* failure-atomic.  The
        record just written is flushed first, as the header names it."""
        self.flush_records()
        image = page.pending_header_image()
        page.apply_header(image)
        self.pm.flush_range(page.base, len(image))
        self.pm.sfence()

    def _dead(self, page, offset):
        page.reclaim_cell(offset)

    def _free(self, page_no):
        self._pages.pop(page_no, None)
        self.store.free_page(page_no)

    def _set_root(self, slot, page_no):
        self.store.set_root(slot, page_no)

    def _repoint(self, position, new_child_no):
        # repro: allow[PM001] the naive scheme's whole point is unprotected in-place stores
        self.pm.write_u32(position, new_child_no)
        self.pm.persist(position, 4)

    def _defragment(self, page_no):
        fresh_no, fresh = super()._defragment(page_no)
        # Naive semantics: apply the full view immediately.
        fresh.apply_header(fresh.pending_header_image())
        self.pm.persist(fresh.base, fresh.header_length())
        return fresh_no, fresh


class NaiveEngine(Engine):
    """Unlogged in-place slotted paging (no crash atomicity)."""

    scheme = "naive"
    context_class = NaiveContext
    #: Sessions need rollback (lock conflicts abort transactions); the
    #: naive scheme has none, so it stays single-session by design.
    #: This also rules out MVCC snapshot reads (``read_only`` sessions):
    #: in-place header overwrites destroy the committed pre-images the
    #: version chains are built from.
    isolation_modes = ()

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
