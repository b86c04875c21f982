"""NVWAL: persistent write-ahead log with differential logging.

This reproduces the baseline the paper compares against (Kim et al.,
"NVWAL: Exploiting NVRAM in Write-Ahead Logging") with every overhead
component the paper's Figure 8 attributes to it:

* **differential logging** — at commit, each dirty page in the
  volatile buffer cache is word-diffed against its transaction-start
  snapshot and only the changed ranges are logged ("NVWAL
  Computation");
* **user-level heap** — WAL frames are allocated from a persistent
  heap (``repro.pm.PersistentHeap``), whose metadata writes and
  bookkeeping form the "Heap Management" bar;
* **log flush** — frame stores, flushes and fences ("Log Flush");
* **WAL index** — a volatile index from page number to its frames,
  consulted on every buffer-cache miss and rebuilt on recovery
  ("Misc" / index construction);
* **lazy checkpointing** — dirty pages are written back to the
  database pages only when the WAL grows past a threshold, unlike
  FAST's eager checkpoint.

Persistent layout inside the WAL region::

    master:  u32 magic | u32 pad | u64 head | u64 commit_seq
    heap:    PersistentHeap managing the rest of the region

Frames are heap blocks chained through a ``next`` field; the 8-byte
``commit_seq`` store is the transaction commit mark: recovery ignores
(and reclaims) chained frames whose sequence exceeds it.

Frame encoding::

    u64 seq | u32 kind | u32 page_no_or_slot | u64 next | u32 nranges |
    (u16 offset, u16 length) * nranges | range bytes ...
"""

from repro.obs import trace as ev
from repro.pm.allocator import PersistentHeap
from repro.pm.memory import WORD

_MAGIC = 0x0077A1E0
_OFF_MAGIC = 0
_OFF_HEAD = 8
_OFF_COMMIT_SEQ = 16
_MASTER_SIZE = 64

FRAME_PAGE = 1
FRAME_ROOT = 2
FRAME_FREE = 3

_FRAME_HEADER = 28
_OFF_NEXT = 16  # within a frame


def word_diff(old, new):
    """Changed ranges between two equal-length buffers, at 8-byte
    granularity (NVWAL's differential logging unit).

    Returns ``[(offset, bytes), ...]`` with adjacent changed words
    merged into single ranges.  The length must be a whole number of
    words (a page always is).
    """
    if len(old) != len(new):
        raise ValueError("buffers differ in length")
    if len(new) % WORD:
        raise ValueError("buffer length is not a multiple of %d" % WORD)
    if old == new:
        return []
    # Scan in 512-byte blocks first: a block-level equality compare is
    # one C call, and commit-time diffs are sparse (a few changed words
    # in a 4 KiB page), so most blocks are skipped without the per-word
    # loop.  Word-level decisions inside unequal blocks are unchanged,
    # so the resulting ranges are identical to the plain word scan.
    ranges = []
    start = None
    length = len(new)
    block = 512  # multiple of WORD
    # Word compares go through 64-bit memoryview casts: an int compare
    # per word instead of two 8-byte slice allocations.
    old_w = memoryview(bytes(old)).cast("Q")
    new_w = memoryview(bytes(new)).cast("Q")
    pos = 0
    while pos < length:
        hi = pos + block
        if hi > length:
            hi = length
        if old_w[pos >> 3 : hi >> 3] == new_w[pos >> 3 : hi >> 3]:
            if start is not None:
                ranges.append((start, bytes(new[start:pos])))
                start = None
            pos = hi
            continue
        # Narrow to 64-byte sub-blocks before the per-word loop: commit
        # diffs touch a handful of words, so most sub-blocks of an
        # unequal block are still skipped by one C compare.
        for sub in range(pos, hi, 64):
            sub_w = sub >> 3
            hi_w = sub_w + 8
            if hi_w > hi >> 3:
                hi_w = hi >> 3
            if old_w[sub_w:hi_w] == new_w[sub_w:hi_w]:
                if start is not None:
                    ranges.append((start, bytes(new[start:sub])))
                    start = None
                continue
            for word in range(sub_w, hi_w):
                if old_w[word] != new_w[word]:
                    if start is None:
                        start = word << 3
                elif start is not None:
                    ranges.append((start, bytes(new[start : word << 3])))
                    start = None
        pos = hi
    if start is not None:
        ranges.append((start, bytes(new[start:])))
    return ranges


def encode_frame(seq, kind, page_no, ranges):
    """Serialise a frame (``next`` starts as 0 and is patched when the
    successor is linked)."""
    body = bytearray()
    body += seq.to_bytes(8, "little")
    body += kind.to_bytes(4, "little")
    body += page_no.to_bytes(4, "little")
    body += (0).to_bytes(8, "little")  # next
    body += len(ranges).to_bytes(4, "little")
    for offset, data in ranges:
        body += offset.to_bytes(2, "little")
        body += len(data).to_bytes(2, "little")
    for _, data in ranges:
        body += data
    return bytes(body)


class NVWALog:
    """The persistent WAL region: master record + heap + frame chain."""

    def __init__(self, pm, base, size):
        self.pm = pm
        self.base = base
        self.size = size
        handle = pm.obs.registry.counter_handle
        self._c_frame = handle("wal.frame")
        self._c_commit_mark = handle("wal.commit_mark")
        self.heap = None
        self.index = {}        # page_no -> [frame addr, ...] (volatile)
        self.roots = {}        # root slot -> page_no overlay (volatile)
        self._tail = 0         # last chained frame (volatile)
        self.bytes_used = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @classmethod
    def format(cls, pm, base, size):
        log = cls(pm, base, size)
        pm.write_u32(base + _OFF_MAGIC, _MAGIC)
        pm.write_u64(base + _OFF_HEAD, 0)
        pm.write_u64(base + _OFF_COMMIT_SEQ, 0)
        pm.persist(base, _MASTER_SIZE)
        log.heap = PersistentHeap.format(pm, base + _MASTER_SIZE, size - _MASTER_SIZE)
        return log

    @classmethod
    def attach(cls, pm, base, size):
        """Recovery: rebuild the index from the committed chain prefix
        and reclaim frames of uncommitted transactions."""
        if pm.read_u32(base + _OFF_MAGIC) != _MAGIC:
            raise ValueError("no NVWAL region at %#x" % base)
        log = cls(pm, base, size)
        log.heap = PersistentHeap.attach(pm, base + _MASTER_SIZE, size - _MASTER_SIZE)
        committed = log.committed_seq
        addr = pm.read_u64(base + _OFF_HEAD)
        prev = 0
        seen = set()
        stale = []
        while addr:
            seen.add(addr)
            seq = pm.read_u64(addr)
            nxt = pm.read_u64(addr + _OFF_NEXT)
            if seq > committed:
                stale.append(addr)
            else:
                log._absorb(addr, count_bytes=True)
                pm.obs.inc("wal.replay")
                pm.obs.event(ev.RECOVERY_REPLAY, addr, seq)
                prev = addr
            addr = nxt
        if stale:
            # Truncate the chain before the uncommitted tail.
            if prev:
                pm.write_u64(prev + _OFF_NEXT, 0)
                pm.persist(prev + _OFF_NEXT, 8)
            else:
                pm.write_u64(base + _OFF_HEAD, 0)
                pm.persist(base + _OFF_HEAD, 8)
            for frame in stale:
                log.heap.pfree(frame)
        # Heap blocks allocated but never linked (crash between pmalloc
        # and chaining) are unreachable: reclaim them.
        for block in log.heap.allocated_blocks():
            if block not in seen:
                log.heap.pfree(block)
        log._tail = prev
        return log

    # ------------------------------------------------------------------
    # Append / commit
    # ------------------------------------------------------------------

    @property
    def committed_seq(self):
        return self.pm.read_u64(self.base + _OFF_COMMIT_SEQ)

    def append_frame(self, frame_bytes):
        """Allocate, store, flush and chain one frame; returns its
        address.  The frame is invisible to recovery until the commit
        mark covers its sequence number."""
        addr = self.heap.pmalloc(len(frame_bytes))
        self.install_frame(addr, frame_bytes)
        return addr

    def install_frame(self, addr, frame_bytes):
        """Store, flush and chain a frame into pre-allocated space
        (split from allocation so engines can attribute heap cost and
        log-flush cost to separate measurement segments).

        The frame content is fenced *before* the chain link is written:
        a durable link must imply a durable frame, otherwise recovery
        could walk into garbage.
        """
        self.pm.write(addr, frame_bytes)
        self.pm.flush_range(addr, len(frame_bytes))
        self.pm.sfence()
        if self._tail:
            self.pm.write_u64(self._tail + _OFF_NEXT, addr)
            self.pm.flush_range(self._tail + _OFF_NEXT, 8)
        else:
            self.pm.write_u64(self.base + _OFF_HEAD, addr)
            self.pm.flush_range(self.base + _OFF_HEAD, 8)
        self._tail = addr
        self.bytes_used += len(frame_bytes)
        self._c_frame.inc()
        self.pm.obs.event(ev.LOG_APPEND, addr, len(frame_bytes))
        self.pm.obs.registry.set_gauge("wal.bytes_used", self.bytes_used)

    def commit(self, seq):
        """The 8-byte-atomic commit mark."""
        self.pm.write_u64(self.base + _OFF_COMMIT_SEQ, seq)
        self.pm.persist(self.base + _OFF_COMMIT_SEQ, 8)
        self._c_commit_mark.inc()
        self.pm.obs.event(ev.COMMIT_MARK, seq)

    def publish(self, frames):
        """Post-commit: make the frames visible to page fetches."""
        for addr in frames:
            self._absorb(addr)

    # ------------------------------------------------------------------
    # Reading frames
    # ------------------------------------------------------------------

    def frame_kind(self, addr):
        return self.pm.read_u32(addr + 8)

    def frame_page_no(self, addr):
        return self.pm.read_u32(addr + 12)

    def frame_ranges(self, addr):
        """Decode a page frame's (offset, bytes) deltas."""
        nranges = self.pm.read_u32(addr + 24)
        pairs = []
        cursor = addr + _FRAME_HEADER
        for _ in range(nranges):
            offset = self.pm.read_u16(cursor)
            length = self.pm.read_u16(cursor + 2)
            pairs.append((offset, length))
            cursor += 4
        out = []
        for offset, length in pairs:
            out.append((offset, self.pm.read(cursor, length)))
            cursor += length
        return out

    def deltas_for(self, page_no):
        """Committed delta ranges for ``page_no``, oldest first."""
        for addr in self.index.get(page_no, ()):
            yield from self.frame_ranges(addr)

    # ------------------------------------------------------------------
    # Checkpoint
    # ------------------------------------------------------------------

    def reset(self):
        """Drop every frame after a checkpoint wrote the pages back."""
        addr = self.pm.read_u64(self.base + _OFF_HEAD)
        self.pm.write_u64(self.base + _OFF_HEAD, 0)
        self.pm.persist(self.base + _OFF_HEAD, 8)
        while addr:
            nxt = self.pm.read_u64(addr + _OFF_NEXT)
            self.heap.pfree(addr)
            addr = nxt
        self.index.clear()
        self._tail = 0
        self.bytes_used = 0
        self.pm.obs.inc("wal.reset")
        self.pm.obs.registry.set_gauge("wal.bytes_used", 0)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _absorb(self, addr, count_bytes=False):
        """Fold one committed frame into the volatile index."""
        kind = self.frame_kind(addr)
        target = self.frame_page_no(addr)
        if count_bytes:  # append_frame counted live appends already
            self.bytes_used += self.heap.block_size(addr)
        if kind == FRAME_PAGE:
            self.index.setdefault(target, []).append(addr)
        elif kind == FRAME_ROOT:
            ranges = self.frame_ranges(addr)
            self.roots[target] = int.from_bytes(ranges[0][1][:4], "little")
        elif kind == FRAME_FREE:
            self.index.pop(target, None)
        else:
            raise ValueError("corrupt WAL frame kind %d at %#x" % (kind, addr))
