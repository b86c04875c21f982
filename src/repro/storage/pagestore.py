"""Fixed-size-page arena over persistent memory.

``PageStore`` carves a region of PM into pages.  Page 0 is the store
header (magic, geometry, the free-page list head, and a small table of
named root pointers used by the B-tree and the catalog); all other
pages are handed out by :meth:`allocate_page`.

Crash-safety contract (paper Section 4.4): popping a page off the free
list is persisted with a single 8-byte-atomic head update, so a crash
can at worst *leak* a page that no committed structure references yet
("the sibling page can be safely garbage collected").
:meth:`garbage_collect` rebuilds the free list from a reachability set,
reclaiming such orphans.
"""

from repro.storage.slotted_page import SlottedPage

_MAGIC = 0x51A7_7ED0  # "slotted"
_OFF_MAGIC = 0
_OFF_PAGE_SIZE = 4
_OFF_NPAGES = 8
_OFF_FREE_HEAD = 12
_OFF_ROOTS = 16
N_ROOT_SLOTS = 12


class OutOfPagesError(Exception):
    """The arena has no free pages left."""


class PageStore:
    """Page allocator over ``[base, base + npages * page_size)``."""

    def __init__(self, pm, base, npages, page_size):
        if page_size % 64:
            raise ValueError("page_size must be cache-line aligned")
        if npages < 2:
            raise ValueError("need at least a header page and one data page")
        self.pm = pm
        self.base = base
        self.npages = npages
        self.page_size = page_size
        #: Page-reuse hook for dependent layers (the tiered DRAM page
        #: cache): called with the page number whenever a page is
        #: linked into the free list (``_link_free``), because a freed
        #: page can be reallocated with new content, and nothing
        #: derived from its old identity may survive that.  None =
        #: nobody listening.
        self.on_page_freed = None
        #: Bases of the pages whose in-page free lists have been
        #: validated since this store was attached (a page formatted
        #: here starts out validated).  Every ``SlottedPage`` view the
        #: store hands out shares it, so the lazy check of paper
        #: Section 4.3 runs once per page per attach instead of once
        #: per view; recovery on a live engine empties it.
        self.freelist_validated = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @classmethod
    def format(cls, pm, base, npages, page_size):
        """Initialise a fresh store with all data pages free."""
        store = cls(pm, base, npages, page_size)
        pm.write_u32(base + _OFF_PAGE_SIZE, page_size)
        pm.write_u32(base + _OFF_NPAGES, npages)
        pm.write_u32(base + _OFF_FREE_HEAD, 1 if npages > 1 else 0)
        for slot in range(N_ROOT_SLOTS):
            pm.write_u32(base + _OFF_ROOTS + 4 * slot, 0)
        for page_no in range(1, npages):
            nxt = page_no + 1 if page_no + 1 < npages else 0
            pm.write_u32(store.page_base(page_no), nxt)
            pm.persist(store.page_base(page_no), 4)
        pm.write_u32(base + _OFF_MAGIC, _MAGIC)
        pm.persist(base, _OFF_ROOTS + 4 * N_ROOT_SLOTS)
        return store

    @classmethod
    def attach(cls, pm, base):
        """Open an existing store (after restart or crash)."""
        if pm.read_u32(base + _OFF_MAGIC) != _MAGIC:
            raise ValueError("no page store at %#x" % base)
        page_size = pm.read_u32(base + _OFF_PAGE_SIZE)
        npages = pm.read_u32(base + _OFF_NPAGES)
        return cls(pm, base, npages, page_size)

    @staticmethod
    def bytes_needed(npages, page_size):
        """Arena bytes a store of this geometry occupies."""
        return npages * page_size

    # ------------------------------------------------------------------
    # Page addressing
    # ------------------------------------------------------------------

    def page_base(self, page_no):
        """Byte address of page ``page_no``."""
        if not 1 <= page_no < self.npages:
            raise IndexError("page %d out of range" % page_no)
        return self.base + page_no * self.page_size

    def page(self, page_no, header_capacity=None):
        """A ``SlottedPage`` view of an existing page."""
        return SlottedPage(
            self.pm, self.page_base(page_no), self.page_size, header_capacity,
            validated=self.freelist_validated,
        )

    def page_no_of(self, page):
        """Page number of a ``SlottedPage`` belonging to this store."""
        return (page.base - self.base) // self.page_size

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    @property
    def free_head(self):
        return self.pm.read_u32(self.base + _OFF_FREE_HEAD)

    def reserve_page_no(self):
        """Pop a free page number without formatting the page.

        Used by engines that materialise the page elsewhere first
        (NVWAL builds it in the volatile buffer cache).  The pop is one
        8-byte-atomic head update; a crash can at worst leak the page.
        """
        head = self.free_head
        if not head:
            raise OutOfPagesError("no free pages")
        nxt = self.pm.read_u32(self.page_base(head))
        self.pm.write_u32(self.base + _OFF_FREE_HEAD, nxt)
        self.pm.persist(self.base + _OFF_FREE_HEAD, 4)
        return head

    def allocate_page(self, page_type, *, header_capacity=None):
        """Pop a free page and format it as ``page_type``.

        Returns an initialised ``SlottedPage``.  The page is durable
        but unreachable until the caller links it into a committed
        structure; if a crash intervenes, garbage collection reclaims
        it.
        """
        head = self.reserve_page_no()
        return SlottedPage.initialize(
            self.pm,
            self.page_base(head),
            self.page_size,
            page_type,
            header_capacity=header_capacity,
            validated=self.freelist_validated,
        )

    def _link_free(self, page_no, next_no):
        """Chain ``page_no`` in front of ``next_no`` on the free list
        and tell the owner its old identity is gone — the one step
        ``free_page`` and ``garbage_collect`` share (the caller then
        publishes the new head)."""
        base = self.page_base(page_no)
        self.pm.write_u32(base, next_no)
        self.pm.persist(base, 4)
        if self.on_page_freed is not None:
            self.on_page_freed(page_no)

    def free_page(self, page_no):
        """Return ``page_no`` to the free list."""
        self._link_free(page_no, self.free_head)
        self.pm.write_u32(self.base + _OFF_FREE_HEAD, page_no)
        self.pm.persist(self.base + _OFF_FREE_HEAD, 4)

    def free_page_count(self):
        """Number of pages currently on the free list."""
        count = 0
        page_no = self.free_head
        while page_no:
            count += 1
            page_no = self.pm.read_u32(self.page_base(page_no))
        return count

    def garbage_collect(self, reachable, *, protected=frozenset()):
        """Rebuild the free list as every page not in ``reachable``.

        ``reachable`` is the set of page numbers referenced by
        committed structures (e.g. a B-tree walk from the root).  Pages
        leaked by a crash between allocation and linking are thereby
        reclaimed (paper Section 4.4).  ``protected`` pages survive
        even when unreachable — they belong to other live sessions'
        uncommitted transactions.
        """
        freed = 0
        head = 0
        for page_no in range(self.npages - 1, 0, -1):
            if page_no in reachable or page_no in protected:
                continue
            self._link_free(page_no, head)
            head = page_no
            freed += 1
        self.pm.write_u32(self.base + _OFF_FREE_HEAD, head)
        self.pm.persist(self.base + _OFF_FREE_HEAD, 4)
        return freed

    # ------------------------------------------------------------------
    # Named roots
    # ------------------------------------------------------------------

    def root(self, slot):
        """Read named root pointer ``slot`` (0 = unset)."""
        if not 0 <= slot < N_ROOT_SLOTS:
            raise IndexError("root slot %d out of range" % slot)
        return self.pm.read_u32(self.base + _OFF_ROOTS + 4 * slot)

    def set_root(self, slot, page_no, *, persist=True):
        """Atomically repoint named root ``slot`` to ``page_no``.

        A root pointer is 4 bytes inside one 8-byte word, so the update
        is failure-atomic by the hardware's 8-byte guarantee.
        """
        if not 0 <= slot < N_ROOT_SLOTS:
            raise IndexError("root slot %d out of range" % slot)
        self.pm.write_u32(self.base + _OFF_ROOTS + 4 * slot, page_no)
        if persist:
            self.pm.persist(self.base + _OFF_ROOTS + 4 * slot, 4)
