"""Group commit: the per-engine epoch pipeline.

Every committing transaction historically paid its own sfence + 8-byte
commit mark.  With ``SystemConfig.group_commit_size`` set, a committing
transaction instead *stages* its durable stores (record writes and log
frames, written and flushed but **not fenced**) and then joins the
engine's open *epoch*.  The epoch closes — at the join that reaches
``group_commit_size`` members, or at an explicit drain — with exactly
ONE sfence covering every member's in-flight
lines and ONE ≤8-byte group commit mark whose (seq, tail) covers the
whole member prefix.  Recovery therefore sees the group atomically: a
crash before the mark loses every open member, a crash after it
replays all of them.  This is the amortization of "Persistent Memory
Transactions" (Marathe et al.) and "Hardware Transactional Persistent
Memory" (Giles et al.): fence and mark cost per transaction drops
roughly with the group size.

The pipeline is the FAST / FAST⁺ engine's bookkeeping (the NVWAL
baseline commits one writer at a time and never groups).  It holds:

* ``members`` — one record per joined commit ({"seq", "reclaims",
  "freed", ...}), whose post-mark housekeeping the engine defers to
  the close.  From the join to the close the epoch is the one owner
  of the cells and pages listed there (``held_cells``,
  ``deferred_pages``);
* ``pending_headers`` / ``pending_roots`` — the *visibility overlay*:
  slot-header images and root pointers that are redo-logged (and will
  be covered by the shared mark) but not yet applied to the pages.
  Fresh page fetches between join and close install these so every
  later transaction sees the members' committed state;
* ``header_extents`` — per overlaid page, the widest member image.  The
  close writes *every* member's image in log order (and so does crash
  replay), so an overlay floors allocation at this extent, not at the
  latest image's.

The engine supplies the actual close sequence (fence, mark, coalesced
checkpoint, deferred housekeeping) as the ``close`` callable; the
pipeline only decides *when*.  Nothing the close runs (checkpoint,
reclaims, page frees, 2PC record clears) closes the epoch again.

Everything here runs under the cooperative scheduler: the threshold is
evaluated only at commit boundaries, so grouping is deterministic and
byte-identical across reruns.
"""


class EpochPipeline:
    """The open epoch of one engine (or of one shard's engine)."""

    def __init__(self, size, close):
        #: Member count that forces a close at the join reaching it.
        self.size = size
        self._close_fn = close
        self.members = []
        #: page_no -> latest member slot-header image (overlay).
        self.pending_headers = {}
        #: page_no -> byte length of the widest member image.
        self.header_extents = {}
        #: root slot -> latest member root pointer (overlay).
        self.pending_roots = {}

    # ------------------------------------------------------------------
    # Joining
    # ------------------------------------------------------------------

    def join(self, member, headers=(), roots=()):
        """Enqueue one committed transaction onto the open epoch.

        ``member`` is the engine's deferred-housekeeping record (it
        carries ``"seq"``, ``"reclaims"`` and ``"freed"``); ``headers``
        and ``roots`` are the member's visibility overlay entries —
        latest join wins, so two members touching the same page leave
        the second's image.
        """
        self.members.append(member)
        extents = self.header_extents
        for page_no, image in headers:
            self.pending_headers[page_no] = image
            extents[page_no] = max(extents.get(page_no, 0), len(image))
        for slot, page_no in roots:
            self.pending_roots[slot] = page_no

    @property
    def member_count(self):
        return len(self.members)

    def contains_seq(self, seq):
        """Is the commit with sequence ``seq`` still awaiting its
        shared mark (i.e. not yet durable)?"""
        return any(member["seq"] == seq for member in self.members)

    def overlaid(self, page_no):
        """Does ``page_no`` carry an open-epoch member overlay?

        The tiered DRAM page cache bypasses overlaid pages entirely
        (``Engine._read_page``): their *visible* committed state is
        durable header + pending member image, while cached frames only
        ever hold durable images.  The overlay retires at the close,
        whose checkpoint invalidates the page's frame anyway."""
        return page_no in self.pending_headers

    def held_cells(self, page_no):
        """Offsets of the dead cells on ``page_no`` that members are
        waiting to reclaim at the close.  The pre-epoch durable header
        (what a crash before the mark recovers) still reaches them, so
        until the close they belong to the epoch, and a free-list
        rebuild of the page must count them live."""
        return [
            offset
            for member in self.members
            for no, offset in member["reclaims"]
            if no == page_no
        ]

    def deferred_pages(self):
        """Pages whose frees are deferred to the close — committed-free
        but still referenced by the pre-epoch durable tree, so neither
        allocation nor GC may hand them out before the mark."""
        pages = set()
        for member in self.members:
            pages.update(member["freed"])
        return pages

    # ------------------------------------------------------------------
    # Closing
    # ------------------------------------------------------------------

    def maybe_close(self):
        """Threshold check, evaluated at commit boundaries only."""
        if len(self.members) >= self.size:
            self.close()

    def close(self):
        """Run the engine's close sequence (no-op on an empty epoch)."""
        if self.members:
            self._close_fn()

    def take(self):
        """Hand the members over to the closing engine and reset.

        Called by the engine's close *after* the shared mark and the
        coalesced checkpoint have retired the overlay (the checkpoint
        itself still reads ``pending_headers`` while applying)."""
        members = self.members
        self.members = []
        self.pending_headers = {}
        self.header_extents = {}
        self.pending_roots = {}
        return members
