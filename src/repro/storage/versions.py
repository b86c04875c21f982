"""MVCC version chains: lock-free snapshot reads over pre-images.

The FAST/FAST⁺ commit protocol never updates committed page content
in place: records land in free space, headers publish atomically,
structural changes go through copy-on-write plus an 8-byte pointer
swap.  Every committed page version therefore has a stable pre-image
the instant a transaction commits over it — the substrate this module
turns into multi-version concurrency control for readers.

The pieces:

``VersionManager``
    Owns the commit-timestamp domain (monotonic, drawn from the shared
    ``SimClock``), the per-page and per-root-slot version chains, the
    active snapshot registry, and the watermark garbage collector.
    Timestamping is *lazy*: commits are stamped, and pre-images
    retained, only while at least one snapshot is active — the default
    (no read-only session) path does zero extra work and stays
    byte-identical.

``SnapshotContext``
    The read-only transaction context: it implements the B-tree view
    protocol (``segment`` / ``root_page_no`` / ``page`` / ``route``) by resolving
    every read against the latest version with commit timestamp ≤ its
    pinned snapshot timestamp.  It acquires **no** locks — no IS/S
    traffic at all — and never writes.

``_ImageMemory``
    The one read-only memory adapter over an immutable page image —
    retained pre-images here, cached frames in ``repro.storage.cache``
    — with per-line cache/latency accounting.

Version chains are *volatile* metadata over *persistent* pre-images:
a crash discards them (recovery starts with empty chains), and readers
never flush anything — there is nothing of theirs to make durable.
"""

from repro.obs import trace as ev
from repro.pm.memory import (
    _REC_CELL_HEADER, _REC_NRECORDS, _REC_SLOTS, _record_rest,
)
from repro.storage.pagestore import N_ROOT_SLOTS
from repro.storage.slotted_page import SlottedPage


class _ImageMemory:
    """Read-only memory over one immutable page image — a retained
    pre-image (version chains) or a cached committed copy
    (``repro.storage.cache`` frames).

    Reads charge the shared clock per 64-byte line: a resident line
    pays ``hit_ns``; the first missing line of a read pays ``miss_ns``
    and later missing lines of the same sequential read ``stream_ns``
    (default ``miss_ns``: every cold line pays the full latency, like
    PM loads; DRAM frames stream cheaper, like ``VolatileMemory``).
    Residency persists across reads, so a hot image converges to
    cache-hit cost.  Stores are impossible by construction — nothing
    that reads an image has a mutation path — and raise if attempted.

    A *sparse* image is a page with the bytes of ``hole`` (page
    offsets ``[start, end)``) left out: ``image`` is then the bytes
    before the hole followed by the bytes after it.  A read that
    touches the hole raises exactly like one past the end — the image
    cannot answer for a byte it does not hold.

    Addresses are ``origin`` plus a page offset.  A cached frame's
    origin is its page's arena address, so a ``SlottedPage`` over it
    has the ``base`` the PM page has and everything that identifies a
    page by ``base`` needs no second rule; a retained pre-image is
    addressed from 0.
    """

    __slots__ = ("clock", "_image", "_hit_ns", "_miss_ns", "_stream_ns",
                 "_resident", "_size", "_hole_start", "_hole_end", "_gap",
                 "_origin")

    def __init__(self, image, clock, hit_ns, miss_ns, stream_ns=None,
                 hole=None, origin=0):
        self._image = image
        self._origin = origin
        self.clock = clock
        self._hit_ns = hit_ns
        self._miss_ns = miss_ns
        self._stream_ns = miss_ns if stream_ns is None else stream_ns
        self._resident = set()
        held = len(image)
        self._hole_start, self._hole_end = (held, held) if hole is None else hole
        self._gap = self._hole_end - self._hole_start
        self._size = held + self._gap

    def read(self, addr, length):
        addr -= self._origin
        end = addr + length
        if 0 <= addr and end <= self._hole_start:
            pos = addr
        elif self._hole_end <= addr and end <= self._size:
            pos = addr - self._gap
        else:
            raise self._outside(addr, end)
        if length <= 0:
            return b""
        line = addr >> 6
        resident = self._resident
        if end <= (line + 1) << 6:
            # Fast path: the read sits in one line (slot-header fields,
            # cell headers, most cells) — no range loop, as in
            # ``PersistentMemory.read``.  Same charges as the loop.
            if line in resident:
                ns = self._hit_ns
            else:
                resident.add(line)
                ns = self._miss_ns
            self.clock.now_ns += ns
            return self._image[pos:pos + length]
        clock = self.clock
        missed_before = False
        for line in range(line, ((end - 1) >> 6) + 1):
            if line in resident:
                ns = self._hit_ns
            else:
                resident.add(line)
                if missed_before:
                    ns = self._stream_ns
                else:
                    ns = self._miss_ns
                    missed_before = True
            clock.now_ns += ns
        return self._image[pos:pos + length]

    def read_u16(self, addr):
        """Little-endian u16 without the ``bytes`` slice (every slot
        probe reads three of these); line-crossing and out-of-image
        reads take the generic path, which handles and reports both."""
        offset = addr - self._origin
        if offset & 63 != 63:
            if 0 <= offset and offset + 2 <= self._hole_start:
                pos = offset
            elif self._hole_end <= offset and offset + 2 <= self._size:
                pos = offset - self._gap
            else:
                raise self._outside(offset, offset + 2)
            line = offset >> 6
            resident = self._resident
            if line in resident:
                ns = self._hit_ns
            else:
                resident.add(line)
                ns = self._miss_ns
            self.clock.now_ns += ns
            image = self._image
            return image[pos] | (image[pos + 1] << 8)
        return int.from_bytes(self.read(addr, 2), "little")

    def read_u8(self, addr):
        """``read(addr, 1)[0]`` without the slice."""
        offset = addr - self._origin
        if 0 <= offset < self._hole_start:
            pos = offset
        elif self._hole_end <= offset < self._size:
            pos = offset - self._gap
        else:
            raise self._outside(offset, offset + 1)
        line = offset >> 6
        resident = self._resident
        if line in resident:
            ns = self._hit_ns
        else:
            resident.add(line)
            ns = self._miss_ns
        self.clock.now_ns += ns
        return self._image[pos]

    def read_record(self, base, slot):
        """``PersistentMemory.read_record`` over the image: the four
        loads in one frame, charged as ``read_u16`` / ``read`` charge
        them (a two-line payload adds its lines one at a time); a load
        outside the held bytes raises as those readers do, after the
        loads before it were charged."""
        if slot < 0:  # refused before the count is loaded, as ever
            raise IndexError("slot %d out of range" % slot)
        origin = self._origin
        hole_start = self._hole_start
        hole_end = self._hole_end
        gap = self._gap
        size = self._size
        image = self._image
        resident = self._resident
        hit = self._hit_ns
        miss = self._miss_ns
        clock = self.clock
        now = clock.now_ns
        # Load 1: the record count.
        addr = base - origin + _REC_NRECORDS
        if addr & 63 == 63:
            return _record_rest(self, base, slot, 0)
        if 0 <= addr and addr + 2 <= hole_start:
            pos = addr
        elif hole_end <= addr and addr + 2 <= size:
            pos = addr - gap
        else:
            raise self._outside(addr, addr + 2)
        line = addr >> 6
        if line in resident:
            now += hit
        else:
            resident.add(line)
            now += miss
        count = image[pos] | image[pos + 1] << 8
        if slot >= count:
            clock.now_ns = now
            raise IndexError("slot %d out of range" % slot)
        # Load 2: the slot's offset.
        addr = base - origin + _REC_SLOTS + 2 * slot
        if addr & 63 == 63:
            clock.now_ns = now
            return _record_rest(self, base, slot, 1)
        if 0 <= addr and addr + 2 <= hole_start:
            pos = addr
        elif hole_end <= addr and addr + 2 <= size:
            pos = addr - gap
        else:
            clock.now_ns = now
            raise self._outside(addr, addr + 2)
        line = addr >> 6
        if line in resident:
            now += hit
        else:
            resident.add(line)
            now += miss
        offset = image[pos] | image[pos + 1] << 8
        # Load 3: the cell's payload length.
        addr = base - origin + offset
        if addr & 63 == 63:
            clock.now_ns = now
            return _record_rest(self, base, slot, 2, offset)
        if 0 <= addr and addr + 2 <= hole_start:
            pos = addr
        elif hole_end <= addr and addr + 2 <= size:
            pos = addr - gap
        else:
            clock.now_ns = now
            raise self._outside(addr, addr + 2)
        line = addr >> 6
        if line in resident:
            now += hit
        else:
            resident.add(line)
            now += miss
        length = image[pos] | image[pos + 1] << 8
        # Load 4: the payload, in one line or across two.
        addr += _REC_CELL_HEADER
        end = addr + length
        line = addr >> 6
        last = (end - 1) >> 6
        if 0 <= addr and end <= hole_start:
            pos = addr
        elif hole_end <= addr and end <= size:
            pos = addr - gap
        else:
            last = -1  # outside the held bytes: ``read`` reports it
        if not length or last < line or last > line + 1:
            clock.now_ns = now
            return self.read(base + offset + _REC_CELL_HEADER, length)
        missed_before = False
        if line in resident:
            now += hit
        else:
            resident.add(line)
            now += miss
            missed_before = True
        if last != line:
            if last in resident:
                now += hit
            else:
                resident.add(last)
                now += self._stream_ns if missed_before else miss
        clock.now_ns = now
        return image[pos:pos + length]

    def read_u32(self, addr):
        return int.from_bytes(self.read(addr, 4), "little")

    def _outside(self, addr, end):
        if self._gap and addr < self._hole_end and end > self._hole_start:
            return IndexError(
                "access [%d, %d) touches the hole [%d, %d) of a sparse "
                "page image" % (addr, end, self._hole_start, self._hole_end)
            )
        return IndexError(
            "access [%d, %d) outside page image of %d bytes"
            % (addr, end, self._size)
        )

    def _no_write(self, *args, **kwargs):
        raise TypeError("page images are read-only")

    write = write_u16 = write_u32 = write_u64 = _no_write
    clflush = clwb = flush_range = persist = sfence = _no_write


class SnapshotContext:
    """A read-only transaction's view: every read resolves against the
    latest version with commit timestamp ≤ ``snapshot_ts``.

    Implements exactly the view protocol the B-tree and hash-index
    read paths consume.  There is deliberately no ``uncommitted_pages``
    and no mutation protocol: a snapshot owns no pages and acquires no
    locks.
    """

    is_read_only = True

    def __init__(self, versions, session, snapshot_ts, *, track_reads=False):
        self.versions = versions
        self.session = session
        self.snapshot_ts = snapshot_ts
        self.obs = versions.obs
        self.segment = versions.clock.segment  # hot-path alias
        self.closed = False
        # OCC read-set tracking (off for plain read-only snapshots):
        # the first touch of each page / root slot is recorded and
        # announced (``OCC_READ``) so commit-time validation — and the
        # TC109 trace rule auditing it — can replay the exact set.
        self.track_reads = track_reads
        self.read_pages = set()
        self.read_roots = set()
        # Version-image pages are immutable forever, so resolved views
        # are cached per page; live pages are re-resolved every call
        # (a later commit may supersede them mid-snapshot).
        self._image_pages = {}
        # Live-page views, keyed by the page's commit stamp at caching
        # time: a superseding commit stamps the page AND retains a
        # pre-image, so the chain shadows a stale entry before it can
        # be served.
        self._live_pages = {}

    def root_page_no(self, slot):
        if self.track_reads and slot not in self.read_roots:
            self.read_roots.add(slot)
            self.versions._note_read(self.session.sid, "root", slot)
        return self.versions.resolve_root(slot, self.snapshot_ts)

    def page(self, page_no):
        versions = self.versions
        if self.track_reads and page_no not in self.read_pages:
            self.read_pages.add(page_no)
            versions._note_read(self.session.sid, "page", page_no)
        versions._c_snapshot_reads.inc()
        trace = versions._trace
        cached = self._image_pages.get(page_no)
        if cached is not None:
            if trace.enabled:
                trace.record(ev.SNAPSHOT_READ, self.session.sid, cached[0])
            return cached[1]
        resolved = versions.resolve_page(page_no, self.snapshot_ts)
        if resolved is None:
            # The live page is the visible version (its last stamped
            # commit is ≤ the snapshot timestamp by construction: any
            # newer commit would have retained a pre-image for us).
            version_ts = versions.page_ts(page_no)
            live = self._live_pages.get(page_no)
            if live is not None and live[0] == version_ts:
                page = live[1]
            else:
                page = versions.live_page(page_no)
                self._live_pages[page_no] = (version_ts, page)
        else:
            version_ts, page = resolved
            self._image_pages[page_no] = (version_ts, page)
        if trace.enabled:
            trace.record(ev.SNAPSHOT_READ, self.session.sid, version_ts)
        return page

    route = page

    def reachable_pages(self):
        """Page numbers this snapshot's trees reference (the GC
        protection set while the snapshot is active)."""
        from repro.hashindex.index import HashIndex
        from repro.storage.slotted_page import PAGE_META

        engine = self.versions.engine
        pages = set()
        for slot in range(N_ROOT_SLOTS):
            root_no = self.root_page_no(slot)
            if not root_no:
                continue
            if self.page(root_no).page_type == PAGE_META:
                pages |= HashIndex.reachable_from_directory(self, root_no)
            else:
                pages |= engine.tree(slot).reachable_pages(self)
        return pages


class VersionManager:
    """Commit timestamps, version chains, snapshots, and the watermark
    garbage collector for one engine."""

    def __init__(self, engine):
        self.engine = engine
        self.obs = engine.obs
        self._trace = engine.obs.trace
        handle = engine.obs.registry.counter_handle
        self._c_snapshot_reads = handle("mvcc.snapshot_reads")
        self._c_gc_reclaimed = handle("mvcc.gc_reclaimed")
        self.clock = engine.clock
        #: Highest commit timestamp handed out (0 = none yet).
        self.last_commit_ts = 0
        # page_no/slot -> commit ts of the currently-live value (only
        # stamped while snapshots are active; see class docstring).
        self._page_ts = {}
        self._root_ts = {}
        # page_no -> [(birth_ts, superseded_ts, SlottedPage image view)]
        # ascending by superseded_ts; likewise slot -> old root page_no.
        self._page_chains = {}
        self._root_chains = {}
        self._snapshots = {}  # sid -> active SnapshotContext
        #: Resource-id namespace OR'd into packed OCC/VERSION_PUBLISH
        #: event resources (the shard router sets
        #: ``index << SHARD_NS_SHIFT`` so per-shard traces disambiguate).
        self.event_namespace = 0

    # -- snapshots ---------------------------------------------------------

    @property
    def capture_active(self):
        """True while at least one snapshot is pinned — the only state
        in which commits are stamped and pre-images retained."""
        return bool(self._snapshots)

    def begin_snapshot(self, session, *, track_reads=False):
        """Pin a snapshot at the current commit frontier and return the
        read-only transaction context."""
        ts = self.last_commit_ts
        ctx = SnapshotContext(self, session, ts, track_reads=track_reads)
        self._snapshots[session.sid] = ctx
        self.obs.event(ev.SNAPSHOT_BEGIN, session.sid, ts)
        return ctx

    def end_snapshot(self, ctx):
        """Unpin ``ctx`` and advance the GC watermark."""
        if ctx.closed:
            return
        ctx.closed = True
        self._snapshots.pop(ctx.session.sid, None)
        self.obs.event(ev.SNAPSHOT_END, ctx.session.sid)
        self.collect()

    # -- OCC read-set support ----------------------------------------------

    def _occ_active(self):
        """True while any pinned snapshot tracks its read set — the
        only state in which commits announce ``VERSION_PUBLISH``
        events (pure-MVCC runs stay byte-identical)."""
        for ctx in self._snapshots.values():
            if ctx.track_reads:
                return True
        return False

    def _packed(self, kind, ident):
        """One read-set/publish resource as the lock layer packs it, so
        the trace checker can correlate OCC events with lock events."""
        from repro.core.locking import LOCK_X, encode_lock

        return encode_lock((kind, self.event_namespace | ident), LOCK_X)

    def _note_read(self, sid, kind, ident):
        if self._trace.enabled:
            self._trace.record(ev.OCC_READ, sid, self._packed(kind, ident))

    def validate_read_set(self, ctx, pin_ts):
        """Packed resources in ``ctx``'s read set with a committed
        version in ``(pin_ts, now]`` — empty means validation passes.
        Sound because ``ctx`` itself keeps ``capture_active`` true for
        its whole lifetime, so every concurrent commit stamped the
        pages and roots it published."""
        stale = []
        for page_no in sorted(ctx.read_pages):
            if self._page_ts.get(page_no, 0) > pin_ts:
                stale.append(self._packed("page", page_no))
        for slot in sorted(ctx.read_roots):
            if self._root_ts.get(slot, 0) > pin_ts:
                stale.append(self._packed("root", slot))
        return stale

    def _announce_publish(self, ctx, touched, ts):
        """Emit one ``VERSION_PUBLISH`` per stamped resource (gated on
        OCC tracking being live; see ``_occ_active``)."""
        trace = self._trace
        if not trace.enabled or not self._occ_active():
            return
        for page_no in sorted(touched):
            trace.record(ev.VERSION_PUBLISH, self._packed("page", page_no), ts)
        for slot in sorted(ctx.root_updates):
            trace.record(ev.VERSION_PUBLISH, self._packed("root", slot), ts)

    # -- commit-time version publication -----------------------------------

    def _next_ts(self):
        """A fresh monotonic commit timestamp in the SimClock domain."""
        ts = int(self.clock.now_ns)
        if ts <= self.last_commit_ts:
            ts = self.last_commit_ts + 1
        self.last_commit_ts = ts
        return ts

    def publish_pm_commit(self, ctx):
        """FAST/FAST⁺ version publication, called at the very top of
        ``_commit`` (before any header, log, or checkpoint work): at
        that instant every dirty/freed page's durable content is still
        the pre-transaction committed state — record bytes sit in free
        space unreachable from the committed header, and headers apply
        only later at checkpoint.  Pages the transaction itself created
        are skipped: no snapshot can reach them (the pointers leading
        to them live in pre-images captured here).
        """
        if not self._snapshots:
            return
        ts = self._next_ts()
        engine = self.engine
        store = engine.store
        page_size = engine.config.page_size
        group = engine.group
        touched = set(ctx.dirty)
        touched.update(ctx.freed)
        new = ctx.new_pages
        for page_no in sorted(touched):
            if page_no in new:
                continue
            image = engine.pm.visible_bytes(
                store.page_base(page_no), page_size
            )
            if group is not None:
                # An open-epoch member already committed over this
                # page: its header lives only in the group's overlay
                # (checkpoint is deferred to the close), so the PM
                # bytes still show the pre-epoch header.  Splice the
                # overlay in — the committed state this commit
                # supersedes is the *member's*, not the pre-epoch one.
                overlay = group.pending_headers.get(page_no)
                if overlay is not None:
                    image = bytes(overlay) + image[len(overlay):]
            # FAST pre-images are physically the same PM bytes the live
            # page occupies (records sit in free space, old headers
            # persist until checkpoint — nothing is overwritten in
            # place), so version reads share the live page's cache
            # lines.  A private cold-miss set would double-charge that
            # traffic; the committing writer just touched every one of
            # these lines, so they are accounted as cache-resident.
            self._retain_page(page_no, ts, image)
        for page_no in sorted(touched):
            self._page_ts[page_no] = ts
        for page_no in sorted(new):
            self._page_ts[page_no] = ts
        for slot in sorted(ctx.root_updates):
            # engine._root consults the group overlay first, so the
            # retained root is the latest *committed* one even while
            # an epoch member's root swap awaits its checkpoint.
            self._retain_root(slot, ts, engine._root(slot))
            self._root_ts[slot] = ts
        self._announce_publish(ctx, touched.union(new), ts)
        self._update_gauge()

    def _retain_page(self, page_no, superseded_ts, image):
        """Retain one pre-image; reads of the version view charge the
        arena's cache-hit cost per line, warm or cold (see
        ``publish_pm_commit``)."""
        birth_ts = self._page_ts.get(page_no, 0)
        hit_ns = self.engine.pm._hit_ns
        page = SlottedPage(
            _ImageMemory(image, self.clock, hit_ns, hit_ns),
            0, self.engine.config.page_size,
        )
        page.page_no = page_no
        self._page_chains.setdefault(page_no, []).append(
            (birth_ts, superseded_ts, page)
        )

    def _retain_root(self, slot, superseded_ts, old_root_no):
        birth_ts = self._root_ts.get(slot, 0)
        self._root_chains.setdefault(slot, []).append(
            (birth_ts, superseded_ts, old_root_no)
        )

    # -- read resolution ---------------------------------------------------

    def page_ts(self, page_no):
        """Commit timestamp of the live version (0 = never stamped)."""
        return self._page_ts.get(page_no, 0)

    def resolve_page(self, page_no, ts):
        """The retained ``(version_ts, page view)`` visible at snapshot
        ``ts``, or None when the live page is the visible version."""
        chain = self._page_chains.get(page_no)
        if chain:
            for birth_ts, superseded_ts, page in chain:
                if birth_ts <= ts < superseded_ts:
                    return birth_ts, page
        return None

    def resolve_root(self, slot, ts):
        """Root page number of ``slot`` as of snapshot ``ts``."""
        chain = self._root_chains.get(slot)
        if chain:
            for birth_ts, superseded_ts, root_no in chain:
                if birth_ts <= ts < superseded_ts:
                    return root_no
        return self.engine._root(slot)

    def live_page(self, page_no):
        """The live page as a snapshot read sees it: the committed page
        through the engine's one read seam (DRAM tier included).
        Pre-commit record writes sit in free space invisible to the
        durable header, and epoch-member overlays are committed state;
        a commit that supersedes the page stamps it and shadows the
        live view with a chain entry, and its install invalidates any
        frame."""
        return self.engine._read_page(page_no)

    def live_versions(self, page_no):
        """Live version count for a page: the current page plus every
        retained pre-image (1 = no history retained)."""
        return 1 + len(self._page_chains.get(page_no, ()))

    def pinned_pages(self):
        """Pages reachable through any active snapshot's view — the
        extra protection set for ``garbage_collect(protected=)``."""
        pinned = set()
        for ctx in self._snapshots.values():
            pinned |= ctx.reachable_pages()
        return pinned

    # -- garbage collection ------------------------------------------------

    def watermark(self):
        """Versions with ``superseded_ts`` ≤ the watermark are invisible
        to every present and future snapshot (future snapshots pin at
        ``last_commit_ts`` ≥ every superseded timestamp)."""
        ts = self.last_commit_ts
        for ctx in self._snapshots.values():
            if ctx.snapshot_ts < ts:
                ts = ctx.snapshot_ts
        return ts

    def collect(self):
        """Reclaim every version no snapshot can see; returns the count."""
        watermark = self.watermark()
        reclaimed = 0
        for chains in (self._page_chains, self._root_chains):
            for key in sorted(chains):
                chain = chains[key]
                kept = [
                    entry for entry in chain if entry[1] > watermark
                ]
                reclaimed += len(chain) - len(kept)
                if kept:
                    chains[key] = kept
                else:
                    del chains[key]
        if reclaimed:
            self._c_gc_reclaimed.inc(reclaimed)
            self.obs.event(ev.MVCC_GC, reclaimed, watermark)
        self._update_gauge()
        return reclaimed

    def versions_live(self):
        """Total retained chain entries (pages + roots)."""
        live = 0
        for chain in self._page_chains.values():
            live += len(chain)
        for chain in self._root_chains.values():
            live += len(chain)
        return live

    def _update_gauge(self):
        self.obs.registry.set_gauge("mvcc.versions_live", self.versions_live())
