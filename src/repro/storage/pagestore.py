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

Free-list links.  The head word and a free page's first word each hold
a link: 0 ends the list, a page number ``n`` continues it at page ``n``,
and a *run* link ``RUN | F`` (bit 31 set) stands for every page in
``[F, npages)``, handed out in ascending order without reading them.
:meth:`format` publishes the head ``RUN | 1``: a fresh store costs the
same few stores, flushes and fences whatever its size, and allocation
hands out pages 1, 2, ... without reading their link words.
:meth:`garbage_collect` writes a run too: every page above the highest
reachable or protected page is free, so it relinks just the free pages
below that mark and names the rest with one link.  Its publish order
makes every crash state the old list, the new list, or the new list
with the run leaked:

1. relink the free pages below ``F`` in descending page order, each
   link persisted before the next, the first (the list's tail) to 0 —
   a crash here leaves the old list, which, once it reaches a relinked
   page, follows only new links, each to a larger page, so it cannot
   loop;
2. publish the head;
3. persist the tail's link as ``RUN | F`` (if no free page lies below
   ``F``, step 2 publishes ``RUN | F`` as the head and this step is
   void).

Writing the run before step 2 would splice it into the old list, whose
pages above ``F`` would then be handed out twice.

The overflow latch.  The high bit of the page-size word
(``OVERFLOW_LATCH``) is a one-way latch meaning "overflow chains may
exist": :meth:`latch_overflow` sets and persists it before the first
overflow page is allocated, and nothing clears it.  In every durable
state, then, a clear latch means no committed leaf holds an overflow
cell, so a reachability walk may list the leaves without reading them.
:meth:`format` writes the word with the bit clear and :meth:`attach`
reads the bit with the page size, so the latch costs no store, flush
or load of its own until a value first spills.
"""

from repro.storage.slotted_page import SlottedPage

_MAGIC = 0x51A7_7ED0  # "slotted"
_OFF_MAGIC = 0
_OFF_PAGE_SIZE = 4
_OFF_NPAGES = 8
_OFF_FREE_HEAD = 12
_OFF_ROOTS = 16
N_ROOT_SLOTS = 12

#: High bit of the page-size word: overflow chains may exist.
OVERFLOW_LATCH = 1 << 31

#: Tag bit of a run link: ``RUN | F`` = every page in ``[F, npages)``.
RUN = 1 << 31


class OutOfPagesError(Exception):
    """The arena has no free pages left."""


class PageStore:
    """Page allocator over ``[base, base + npages * page_size)``."""

    def __init__(self, pm, base, npages, page_size):
        if page_size % 64:
            raise ValueError("page_size must be cache-line aligned")
        if npages < 2:
            raise ValueError("need at least a header page and one data page")
        if npages >= RUN:
            raise ValueError("page numbers must leave the run tag bit clear")
        self.pm = pm
        self.base = base
        self.npages = npages
        self.page_size = page_size
        #: Page-reuse hook for dependent layers (the tiered DRAM page
        #: cache): called with the page number whenever a page is
        #: linked into the free list (``_link_free``) or swept into a
        #: run by ``garbage_collect``, because a freed page can be
        #: reallocated with new content, and nothing derived from its
        #: old identity may survive that.  None = nobody listening.
        self.on_page_freed = None
        #: Bases of the pages whose in-page free lists have been
        #: validated since this store was attached (a page formatted
        #: here starts out validated).  Every ``SlottedPage`` view the
        #: store hands out shares it, so the lazy check of paper
        #: Section 4.3 runs once per page per attach instead of once
        #: per view; recovery on a live engine empties it.
        self.freelist_validated = set()
        #: The durable ``OVERFLOW_LATCH`` bit, as read at attach or set
        #: since (False on a fresh store).
        self.overflow_latched = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @classmethod
    def format(cls, pm, base, npages, page_size):
        """Initialise a fresh store with all data pages free."""
        store = cls(pm, base, npages, page_size)
        pm.write_u32(base + _OFF_PAGE_SIZE, page_size)
        pm.write_u32(base + _OFF_NPAGES, npages)
        pm.write_u32(base + _OFF_FREE_HEAD, store._run_link(1))
        pm.write(base + _OFF_ROOTS, bytes(4 * N_ROOT_SLOTS))
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
        store = cls(pm, base, npages, page_size & ~OVERFLOW_LATCH)
        store.overflow_latched = bool(page_size & OVERFLOW_LATCH)
        return store

    def latch_overflow(self):
        """Set and persist the one-way "overflow chains may exist"
        latch (a no-op once set).  Call it before allocating the first
        page of an overflow chain: the latch is then durable before any
        commit that could make the chain reachable."""
        if self.overflow_latched:
            return
        self.pm.write_u32(self.base + _OFF_PAGE_SIZE,
                          self.page_size | OVERFLOW_LATCH)
        self.pm.persist(self.base + _OFF_PAGE_SIZE, 4)
        self.overflow_latched = True

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
        A run head ``RUN | F`` pops ``F`` without reading page ``F``.
        """
        head = self.free_head
        if not head:
            raise OutOfPagesError("no free pages")
        if head & RUN:
            head &= ~RUN
            nxt = self._run_link(head + 1)
        else:
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

    def _run_link(self, first):
        """The link standing for every page in ``[first, npages)``."""
        return RUN | first if first < self.npages else 0

    def free_list(self, read_u32=None):
        """``(chain, run)``: the free list's explicit pages, as an
        ordered dict's keys, and the range ``[F, npages)`` its last link
        names (empty, ``F = npages``, without a run), both in the order
        allocation hands them out.  ``read_u32`` reads a link word
        (default: ``pm.read_u32``, which charges simulated time); a
        chain that loops is cut where it would repeat a page."""
        read_u32 = read_u32 or self.pm.read_u32
        chain = {}
        link = read_u32(self.base + _OFF_FREE_HEAD)
        while link and not link & RUN and link not in chain:
            chain[link] = None
            link = read_u32(self.page_base(link))
        return chain, range(link & ~RUN if link & RUN else self.npages,
                            self.npages)

    def free_pages(self, read_u32=None):
        """Every page on the free list, in the order allocation hands
        them out: the explicit chain, then the run."""
        chain, run = self.free_list(read_u32)
        return [*chain, *run]

    def free_page_count(self):
        """Number of pages currently on the free list."""
        return sum(map(len, self.free_list()))

    def garbage_collect(self, reachable, *, protected=frozenset()):
        """Rebuild the free list as every page not in ``reachable``.

        ``reachable`` is the set of page numbers referenced by
        committed structures (e.g. a B-tree walk from the root).  Pages
        leaked by a crash between allocation and linking are thereby
        reclaimed (paper Section 4.4).  ``protected`` pages survive
        even when unreachable — they belong to other live sessions'
        uncommitted transactions.

        Only the free pages below ``F`` (one past the highest kept
        page) are relinked; ``[F, npages)`` becomes one run link, in
        the publish order the module docstring gives.  Allocation then
        hands out exactly the ascending order a full relink would.
        """
        first = max(max(reachable, default=0), max(protected, default=0)) + 1
        freed = 0
        head = tail = 0
        for page_no in range(first - 1, 0, -1):
            if page_no in reachable or page_no in protected:
                continue
            self._link_free(page_no, head)
            if not head:
                tail = page_no
            head = page_no
            freed += 1
        run = self._run_link(first)
        if self.on_page_freed is not None:
            for page_no in range(first, self.npages):
                self.on_page_freed(page_no)
        self.pm.write_u32(self.base + _OFF_FREE_HEAD, head or run)
        self.pm.persist(self.base + _OFF_FREE_HEAD, 4)
        if head and run:
            self.pm.write_u32(self.page_base(tail), run)
            self.pm.persist(self.page_base(tail), 4)
        return freed + self.npages - first

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
