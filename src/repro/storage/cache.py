"""Tiered DRAM page cache in front of the PM arena (reads only).

The paper's pitch is PM-as-the-buffer-cache, but hybrid DRAM/PM tiers
win whenever the read-hot set fits in DRAM (van Renen et al., Lersch
et al.): every committed read otherwise pays the full PM ``read_ns``
even for pages touched on every transaction (the root, the upper
B-tree levels).  ``TieredPageCache`` keeps clock/second-chance-managed
DRAM copies of read-hot pages; reads served from a cached frame charge
``LatencyProfile.dram_ns`` per missing line (via
``CostModel.dram_tier_line_ns``, the same attribution point NVWAL's
volatile buffer cache uses) instead of ``read_ns``.

Coherence contract (DESIGN.md §17): the cache is strictly read-only
and write-through-by-invalidation.  Every write path keeps the full
store→flush→fence→≤8B-mark discipline against PM, untouched; a
committed page changes at exactly three kinds of instant, each one
engine primitive that calls :meth:`TieredPageCache.invalidate` itself
— ``FASTEngine._install_header`` (logged checkpoints, epoch closes,
2PC participant installs, recovery replay),
``FASTEngine._swap_child_pointer`` (copy-on-write swaps and their
rollback reversals) and ``FASTPlusEngine._commit_inplace`` (the RTM
publish) — plus the page store's one free-list link step
(``PageStore.on_page_freed``).  A cached frame therefore always holds
the *latest committed* image of its page (pre-commit record writes
land in free space invisible to the durable header, exactly as they
are invisible to a direct PM read).  The TC111 trace rule
(``repro.analysis.tracecheck``) checks header installs end to end from
the CACHE_FILL / CACHE_HIT / CACHE_INVAL events.

Frames are *sparse*: PM read bandwidth is what a hybrid tier spends
(van Renen et al.), so a fill copies only the bytes a reader of the
committed header can reach — ``slotted_page.live_extents``: the slot
header with its offset array, and the content area — and never the
free-space hole between them (most of a FAST⁺ leaf, whose 28-slot
header cap leaves a 4 KiB page under half full).  The frame cannot
answer for the hole: open writers' unpublished cells really do live
there in PM, so ``_ImageMemory`` raises on such a read instead of
inventing zeros.

Frames are never handed out for writing: a frame's page view is backed
by ``_ImageMemory``, which raises on any store or flush.  Eviction
drops the cache's reference only — outstanding page views keep their
(consistent, committed-as-of-fetch) buffer, the same lifetime contract
MVCC version images have.

Two kinds of reader (``Engine._read_page``).  Committed readers share
a frame's page object (:meth:`TieredPageCache.lookup`) and fill on a
miss.  A writer context — which sees exactly the committed page until
its first mutation of it — takes a *private* view over the frame
(:meth:`TieredPageCache.view`), which it re-seats on the PM page before
it stores anything; it hits frames but never fills one.
"""

from repro.obs import trace as ev
from repro.storage.slotted_page import (
    FIXED_HEADER_SIZE,
    SlottedPage,
    live_extents,
)
from repro.storage.versions import _ImageMemory


class _Frame:
    """One cached page: the committed image plus clock-policy state."""

    __slots__ = ("page_no", "page", "ref", "index")

    def __init__(self, page_no, page, index):
        self.page_no = page_no
        self.page = page
        self.ref = False
        self.index = index


class TieredPageCache:
    """Clock/second-chance DRAM cache of committed page images.

    ``capacity`` is ``SystemConfig.dram_cache_pages``; the engine only
    constructs a cache when it is positive, so the default (0) stays
    byte-identical to a cache-less build — no counters, no events, no
    simulated-time deltas.
    """

    def __init__(self, store, capacity):
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        pm = store.pm
        self.store = store
        self.pm = pm
        self.capacity = capacity
        self.obs = pm.obs
        self._page_size = store.page_size
        self._hit_line_ns = pm.cost.cache_hit_ns
        self._miss_line_ns = pm.cost.dram_tier_line_ns(pm.latency)
        self._stream_line_ns = pm.cost.dram_tier_line_ns(
            pm.latency, streamed=True
        )
        self._frames = {}     # page_no -> _Frame
        self._ring = []       # clock order (swap-removed on invalidate)
        self._hand = 0
        registry = self.obs.registry
        self._c_hit = registry.counter("cache.hit")
        self._c_miss = registry.counter("cache.miss")
        self._c_bypass = registry.counter("cache.bypass")
        self._c_fill = registry.counter("cache.fill")
        self._c_fill_bytes = registry.counter("cache.fill_bytes")
        self._c_fill_skipped = registry.counter("cache.fill_skipped_bytes")
        self._c_evict = registry.counter("cache.evict")
        self._c_invalidate = registry.counter("cache.invalidate")
        # Freed (or GC-swept) pages can be reallocated with new
        # content: the store tells us, so a stale frame can never
        # outlive its page's identity.
        store.on_page_freed = (
            lambda page_no: self.invalidate(page_no, ev.INVAL_FREE)
        )

    def __len__(self):
        return len(self._frames)

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------

    def lookup(self, page_no):
        """The cached page view, or None (counted as a miss)."""
        frame = self._frames.get(page_no)
        if frame is None:
            self._c_miss.value += 1
            return None
        frame.ref = True
        self._c_hit.value += 1
        self.obs.event(ev.CACHE_HIT, page_no)
        return frame.page

    def view(self, page_no):
        """A writer context's first touch of ``page_no``: a *private*
        page view over the cached frame's memory, or None.

        A hit is a hit (counted, reference bit set, ``CACHE_HIT``
        emitted — TC111 checks it like any other), but finding no frame
        is not a miss, because the caller will not fill one: it reads
        PM as it always did, counted ``cache.bypass``, so ``cache.miss
        == cache.fill`` and the hit ratio keep their meaning.  The view
        is private because its holder re-seats it on the PM page
        (``SlottedPage.promote``) at its first mutation; it shares the
        frame's memory, hence its line residency, and keeps that buffer
        when the frame is evicted or invalidated.
        """
        if page_no not in self._frames:
            self._c_bypass.value += 1
            return None
        shared = self.lookup(page_no)
        return SlottedPage(shared.pm, shared.base, self._page_size,
                           frame_backed=True)

    def fill(self, page_no):
        """Copy ``page_no``'s committed image into a DRAM frame.

        The copy reads through the PM arena, so the fill pays PM read
        cost once for the lines it copies; subsequent hits are
        DRAM-priced.  It copies the page's two live extents and skips
        the hole — unless skipping would not pay: the second extent
        opens a new read, whose first line costs a full PM miss where
        a straight copy would have streamed into it, so a hole too
        short to cover that difference is copied through.  Both plans
        are priced at the arena's own cold-read prices, so a cold fill
        never costs more than the full-page copy.  The extents are
        sized from the fixed header host-side: those eight bytes are
        the start of the first extent, whose read is where they are
        charged (a copy loop that loads line 0, decodes two fields and
        keeps streaming is one sequential read, not two).  Returns the
        frame's page view.
        """
        pm = self.pm
        size = self._page_size
        base = self.store.page_base(page_no)
        head_end, tail_start = live_extents(
            pm.visible_bytes(base, FIXED_HEADER_SIZE), size
        )
        if (self._cold_read_ns(0, head_end)
                + self._cold_read_ns(tail_start, size)
                >= self._cold_read_ns(0, size)):
            head_end = tail_start = size
        image = pm.read(base, head_end)
        if tail_start < size:
            image += pm.read(base + tail_start, size - tail_start)
        if len(self._ring) >= self.capacity:
            self._evict_one()
        # Charged like ``VolatileMemory``: first cold line ``dram_ns``,
        # later cold lines of the same read stream cheaper.
        memory = _ImageMemory(
            image, pm.clock, self._hit_line_ns,
            self._miss_line_ns, self._stream_line_ns,
            hole=(head_end, tail_start), origin=base,
        )
        page = SlottedPage(memory, base, size, frame_backed=True)
        frame = _Frame(page_no, page, len(self._ring))
        self._ring.append(frame)
        self._frames[page_no] = frame
        self._c_fill.value += 1
        self._c_fill_bytes.value += len(image)
        self._c_fill_skipped.value += size - len(image)
        self.obs.event(ev.CACHE_FILL, page_no)
        return page

    def _cold_read_ns(self, start, end):
        """What one PM read of page bytes ``[start, end)`` costs with
        no line resident, at the arena's own prices: a full miss, then
        streaming."""
        if end <= start:
            return 0.0
        pm = self.pm
        return (pm._read_miss_ns
                + (((end - 1) >> 6) - (start >> 6)) * pm._stream_ns)

    def _evict_one(self):
        """Clock sweep: skip (and clear) referenced frames once, evict
        the first unreferenced one."""
        ring = self._ring
        hand = self._hand
        while True:
            if hand >= len(ring):
                hand = 0
            frame = ring[hand]
            if frame.ref:
                frame.ref = False
                hand += 1
                continue
            self._hand = hand
            self._drop(frame)
            self._c_evict.value += 1
            self.obs.event(ev.CACHE_INVAL, frame.page_no, ev.INVAL_EVICT)
            return

    # ------------------------------------------------------------------
    # Coherence
    # ------------------------------------------------------------------

    def invalidate(self, page_no, reason=ev.INVAL_INSTALL):
        """Drop ``page_no``'s frame (no-op when not cached).

        Called by the three install primitives and the page-free hook
        — the coherence contract this module's docstring spells out.
        """
        frame = self._frames.get(page_no)
        if frame is None:
            return
        self._drop(frame)
        self._c_invalidate.value += 1
        self.obs.event(ev.CACHE_INVAL, page_no, reason)

    def _drop(self, frame):
        """Unlink a frame from the directory and the clock ring
        (swap-remove keeps the sweep O(1) per drop)."""
        del self._frames[frame.page_no]
        ring = self._ring
        last = ring.pop()
        if last is not frame:
            ring[frame.index] = last
            last.index = frame.index
        if self._hand > len(ring):
            self._hand = 0
