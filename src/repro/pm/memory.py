"""Byte-addressable persistent and volatile memory with cache semantics.

``PersistentMemory`` models the path a store takes on real hardware:

1. ``write()`` lands in the (volatile) CPU cache — cheap, and invisible
   to the persistence domain;
2. ``clflush()`` puts the cache line's current content *in flight*
   toward memory (and, like the real instruction, evicts the line);
3. a fence (``sfence``/``mfence``) guarantees in-flight flushes have
   completed — only then is the data durable.

``crash()`` discards all volatile state and lets a ``CrashPolicy``
decide which still-unfenced atomic units happened to reach persistence,
torn at the configured granularity (8-byte words, the baseline hardware
guarantee, or full 64-byte lines, the paper's HTM-era assumption).

Every load miss charges the PM read latency and every ``clflush``
charges the PM write latency to the shared ``SimClock``, mirroring how
the paper drives Quartz and injects post-``clflush`` delays.

Both arenas keep their bytes in a private anonymous mapping
(``_zero_map``): pages the run never writes read the kernel's zero page
and cost the host no memory, whatever size the arena is configured at.
"""

import mmap
from collections import OrderedDict

from repro.obs import trace as ev
from repro.obs.context import Observability
from repro.pm.clock import SimClock
from repro.pm.crash import PersistAll
from repro.pm.latency import CostModel, LatencyProfile

CACHE_LINE = 64
WORD = 8
_WORDS_PER_LINE = CACHE_LINE // WORD

#: All eight words of a line dirty (the common full-line case).
_FULL_LINE = (1 << _WORDS_PER_LINE) - 1

#: ``_RANGE_MASK[first][last]`` — bitmask of words ``first..last``
#: (inclusive), precomputed so the store hot path marks a span of
#: dirty words with one table lookup and one ``|=``.
_RANGE_MASK = tuple(
    tuple(
        ((1 << (last - first + 1)) - 1) << first if last >= first else 0
        for last in range(_WORDS_PER_LINE)
    )
    for first in range(_WORDS_PER_LINE)
)

#: Flat variant of ``_RANGE_MASK``, indexed ``first * 8 + last`` — one
#: subscript instead of two on the store fast path.
_RANGE_MASK_FLAT = tuple(
    _RANGE_MASK[first][last]
    for first in range(_WORDS_PER_LINE)
    for last in range(_WORDS_PER_LINE)
)


#: Host pages are 4 KiB: ``PersistentMemory`` records the durable image's
#: written pages as ``addr >> _PAGE_SHIFT`` (``line >> 6``), and ``fork()``
#: copies those pages only.
_PAGE_SHIFT = 12
_PAGE = 1 << _PAGE_SHIFT


#: The slotted-page layout ``read_record`` walks (``repro.storage.
#: slotted_page``): the u16 record count, the u16 offset array, and the
#: cell header before a payload, whose first u16 is the payload length.
_REC_NRECORDS = 2
_REC_SLOTS = 8
_REC_CELL_HEADER = 4


def _record_rest(memory, base, slot, done, offset=0):
    """The slotted page's record probe as separate loads, from the
    ``done``-th on: the record count (and the bound check against it),
    the slot's u16 offset, the cell's u16 payload length, the payload.
    It is the reference ``read_record`` fuses, and where a fused reader
    hands over at a load it cannot take in one line."""
    if done < 1 and not 0 <= slot < memory.read_u16(base + _REC_NRECORDS):
        raise IndexError("slot %d out of range" % slot)
    if done < 2:
        offset = memory.read_u16(base + _REC_SLOTS + 2 * slot)
    length = memory.read_u16(base + offset)
    return memory.read(base + offset + _REC_CELL_HEADER, length)


def _zero_map(size):
    """``size`` zero bytes in a private anonymous mapping.

    An untouched page reads the kernel's zero page and is resident
    nowhere; a write faults in one private page.  ``MAP_SHARED`` (the
    ``mmap`` default) would be shmem-backed instead, and every page it
    is read at is charged to the host's RSS.  Slices are ``bytes``.
    ``mmap`` refuses length 0, so a zero-byte arena maps one byte that
    no bounds-checked access reaches.
    """
    return mmap.mmap(
        -1, size or 1, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS
    )


#: ``_MASK_WORDS[mask]`` — the set word indices of the 8-bit ``mask``,
#: ascending.  A 256-entry table beats re-deriving bits in the flush
#: and crash paths (see ``_bits`` for why ascending order matters).
_MASK_WORDS = tuple(
    tuple(w for w in range(_WORDS_PER_LINE) if mask >> w & 1)
    for mask in range(1 << _WORDS_PER_LINE)
)


def _runs(mask):
    """Byte spans ``(lo, hi)`` of the runs of contiguous set words in
    the 8-bit ``mask``, ascending."""
    spans = []
    word = 0
    while word < _WORDS_PER_LINE:
        if mask >> word & 1:
            first = word
            while word < _WORDS_PER_LINE and mask >> word & 1:
                word += 1
            spans.append((first * WORD, word * WORD))
        else:
            word += 1
    return tuple(spans)


#: ``_MASK_RUNS[mask]`` — the byte spans of ``mask``'s runs of dirty
#: words: a partial line reaches the durable image one slice per run
#: (a slot header's dirty prefix is one), not one per word.
_MASK_RUNS = tuple(_runs(mask) for mask in range(1 << _WORDS_PER_LINE))


def _bits(mask):
    """Set bit positions of ``mask``, ascending (word indices 0..7).

    Ascending order matches how CPython iterates a set of small ints,
    which is what ``dirty_words`` used to be — crash policies that
    consume an RNG per ``survives()`` call see the identical call
    sequence, keeping seeded crash tests bit-for-bit stable.
    """
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _DirtyLine:
    """Cache-resident state of one dirty line.

    ``data`` is a caller-owned 64-byte ``bytearray`` (constructors pass
    a fresh copy — ``_DirtyLine`` itself does not copy).
    ``dirty_words`` is an integer bitmask (bit ``w`` set when 8-byte
    word ``w`` of the line has unflushed modifications) instead of the
    historical ``set`` — same semantics, no per-word allocation.
    """

    __slots__ = ("data", "dirty_words")

    def __init__(self, data, dirty_words=0):
        self.data = data
        self.dirty_words = dirty_words


class _Arena:
    """What the PM and DRAM arenas share: fixed-width stores (one
    ``_write_fixed`` when the integer sits in one line) and the bounds
    check."""

    def write_u16(self, addr, value):
        if addr & 63 <= 62 and 0 <= addr and addr + 2 <= self.size:
            self._write_fixed(addr, value.to_bytes(2, "little"), 2)
        else:
            self.write(addr, value.to_bytes(2, "little"))

    def write_u32(self, addr, value):
        if addr & 63 <= 60 and 0 <= addr and addr + 4 <= self.size:
            self._write_fixed(addr, value.to_bytes(4, "little"), 4)
        else:
            self.write(addr, value.to_bytes(4, "little"))

    def write_u64(self, addr, value):
        if addr & 63 <= 56 and 0 <= addr and addr + 8 <= self.size:
            self._write_fixed(addr, value.to_bytes(8, "little"), 8)
        else:
            self.write(addr, value.to_bytes(8, "little"))

    def _check(self, addr, length):
        if addr < 0 or addr + length > self.size:
            raise IndexError(
                "access [%d, %d) outside arena of %d bytes"
                % (addr, addr + length, self.size)
            )


class PersistentMemory(_Arena):
    """A simulated persistent-memory arena.

    Args:
        size: arena size in bytes (multiple of the cache-line size).
        latency: PM/DRAM latency profile (the paper's sweep variable).
        cost: fixed per-operation cost model.
        atomic_granularity: failure-atomic write unit in bytes — 8 for
            the baseline hardware guarantee, 64 when assuming
            failure-atomic cache-line writes (paper Section 3.2).
        cache_lines: capacity of the read-residency model, in lines.
    """

    def __init__(
        self,
        size,
        *,
        latency=None,
        cost=None,
        atomic_granularity=CACHE_LINE,
        cache_lines=4096,
        flush_instruction="clflush",
    ):
        if size % CACHE_LINE:
            raise ValueError("size must be a multiple of %d" % CACHE_LINE)
        if atomic_granularity not in (WORD, CACHE_LINE):
            raise ValueError("atomic_granularity must be 8 or 64")
        if flush_instruction not in ("clflush", "clwb"):
            raise ValueError("flush_instruction must be clflush or clwb")
        self.size = size
        self.latency = latency or LatencyProfile()
        self.cost = cost or CostModel()
        # The arena owns the machine's instrumentation: engines, logs,
        # the RTM unit and the DRAM arenas all reach it as ``pm.obs``.
        self.obs = Observability(SimClock())
        self.clock = self.obs.clock
        # Hot-path counters, resolved once (registry.reset() preserves
        # instrument identities, so these references stay live).
        registry = self.obs.registry
        self._c_load = registry.counter("pm.load")
        self._c_load_miss = registry.counter("pm.load_miss")
        self._c_store = registry.counter("pm.store")
        self._c_store_bytes = registry.counter("pm.store_bytes")
        self._c_flush = registry.counter("pm.flush")
        self._c_flush_clwb = registry.counter("pm.flush.clwb")
        self._c_flush_bytes = registry.counter("pm.flush_bytes")
        self._c_fence = registry.counter("pm.fence")
        self._trace = self.obs.trace
        # Scalar costs, folded once: latency/cost profiles are frozen
        # dataclasses, so the per-access attribute chains (and the
        # streaming-rate ``max``) can be hoisted out of the hot paths.
        self._read_miss_ns = self.latency.read_ns
        self._stream_ns = max(self.cost.stream_line_ns, 0.15 * self.latency.read_ns)
        self._hit_ns = self.cost.cache_hit_ns
        self._store_ns = self.cost.store_ns
        self._store_byte_ns = self.cost.store_byte_ns
        self._flush_ns = self.cost.clflush_ns + self.latency.write_ns
        self._fence_ns = self.cost.fence_ns
        self._store_fixed_ns = {
            n: self._store_ns + self._store_byte_ns * n for n in (2, 4, 8)
        }
        self.atomic_granularity = atomic_granularity
        self.flush_instruction = flush_instruction
        self._durable = _zero_map(size)
        # Host pages the durable image was ever written at (``sfence``
        # and ``crash()`` learn them): the only ones ``fork()`` copies.
        self._written = set()
        self._dirty = {}
        self._inflight = {}
        # line -> entry as the CPU sees it (dirty wins over inflight).
        # Maintained at every _dirty/_inflight mutation so read paths
        # resolve visibility with ONE dict probe instead of two.
        self._vis = {}
        # Bound-method aliases (the dicts are cleared in place, never
        # replaced, so these stay live).
        self._dget = self._dirty.get
        self._iget = self._inflight.get
        self._vget = self._vis.get
        # The read-residency model: a bounded LRU of cache-resident
        # line numbers, for read-latency accounting only (dirty data is
        # tracked separately and never silently dropped).
        self._rlines = OrderedDict()
        self._rcap = cache_lines
        # Set by the RTM emulation while a hardware transaction is open:
        # clflush inside an RTM region aborts on real hardware (paper
        # footnote 2), so the simulation forbids it outright.
        self.flush_forbidden = False

    @classmethod
    def for_config(cls, config, size=None):
        """A fresh arena with ``config``'s latency, cost, crash model
        and flush instruction; ``size`` defaults to the config's own
        arena (a sharded router passes its whole span)."""
        return cls(
            size or config.arena_bytes,
            latency=config.latency,
            cost=config.cost,
            atomic_granularity=config.atomic_granularity,
            cache_lines=config.cache_lines,
            flush_instruction=config.flush_instruction,
        )

    # ------------------------------------------------------------------
    # Loads
    # ------------------------------------------------------------------

    def read(self, addr, length):
        """Read ``length`` bytes at ``addr`` through the cache.

        The first missing line of a read pays the full PM read
        latency; further lines of the *same* call stream at the
        prefetch/bandwidth rate (bulk page copies are not N serialized
        misses on real hardware).
        """
        end = addr + length
        if addr < 0 or end > self.size:
            self._check(addr, length)
        self._c_load.value += 1
        line = addr >> 6
        if 0 < length and end <= (line + 1) << 6:
            # Fast path: the whole read sits in one cache line (slot
            # headers, cells, u16/u32/u64 accessors — the dominant case).
            # Residency touch and clock advance are inlined: at tens of
            # thousands of calls per simulated operation batch, the two
            # method dispatches dominate the loop.
            lines = self._rlines
            try:
                # Hot header/cell lines hit far more than they miss, so
                # the hit path is one C call (move_to_end raises on a
                # miss).
                lines.move_to_end(line)
                ns = self._hit_ns
            except KeyError:
                lines[line] = None
                if len(lines) > self._rcap:
                    lines.popitem(last=False)
                self._c_load_miss.value += 1
                ns = self._read_miss_ns
            self.clock.now_ns += ns
            entry = self._vget(line)
            if entry is None:
                return self._durable[addr:end]
            offset = addr - (line << 6)
            return bytes(entry.data[offset : offset + length])
        last = (end - 1) >> 6
        missed_before = False
        lines = self._rlines
        rcap = self._rcap
        clock = self.clock
        durable = self._durable
        if last == line + 1:
            # Two-line fast path: a record crossing one line boundary
            # (the most common multi-line read by far) — both lines
            # handled without the general loop's range machinery.
            ns = 0.0
            try:
                lines.move_to_end(line)
                ns += self._hit_ns
            except KeyError:
                lines[line] = None
                if len(lines) > rcap:
                    lines.popitem(last=False)
                self._c_load_miss.value += 1
                ns += self._read_miss_ns
                missed_before = True
            try:
                lines.move_to_end(last)
                ns += self._hit_ns
            except KeyError:
                lines[last] = None
                if len(lines) > rcap:
                    lines.popitem(last=False)
                self._c_load_miss.value += 1
                ns += self._stream_ns if missed_before else self._read_miss_ns
            clock.now_ns += ns
            vget = self._vget
            entry = vget(line)
            second = vget(last)
            if entry is None and second is None:
                return durable[addr:end]
            split = last << 6
            first_part = (
                durable[addr:split] if entry is None
                else entry.data[addr - (line << 6) : CACHE_LINE]
            )
            second_part = (
                durable[split:end] if second is None
                else second.data[0 : end - split]
            )
            return b"".join((first_part, second_part))
        if not self._vis:
            # Clean arena (typical for bulk page fetches): account for
            # residency and latency per line, then take the whole range
            # from durable storage in one slice.
            for line in range(line, last + 1):
                if line in lines:
                    lines.move_to_end(line)
                    ns = self._hit_ns
                else:
                    lines[line] = None
                    if len(lines) > rcap:
                        lines.popitem(last=False)
                    self._c_load_miss.value += 1
                    if missed_before:
                        ns = self._stream_ns
                    else:
                        ns = self._read_miss_ns
                        missed_before = True
                clock.now_ns += ns
            return durable[addr:end]
        parts = []
        visible_get = self._vget
        for line in range(line, last + 1):
            if line in lines:
                lines.move_to_end(line)
                ns = self._hit_ns
            else:
                lines[line] = None
                if len(lines) > rcap:
                    lines.popitem(last=False)
                self._c_load_miss.value += 1
                if missed_before:
                    # Streaming rate degrades with the PM latency knob:
                    # Quartz injects its delay per epoch, so bulk reads
                    # slow down proportionally, floored at the DRAM-class
                    # prefetch rate.
                    ns = self._stream_ns
                else:
                    ns = self._read_miss_ns
                    missed_before = True
            clock.now_ns += ns
            base = line << 6
            lo = addr if addr > base else base
            hi = end if end < base + CACHE_LINE else base + CACHE_LINE
            entry = visible_get(line)
            if entry is None:
                parts.append(durable[lo:hi])
            else:
                parts.append(entry.data[lo - base : hi - base])
        return b"".join(parts)

    def read_u16(self, addr):
        """Read a little-endian u16 (the slot-header accessor — by far
        the most frequent load in the system, so it carries its own
        allocation-free fast path)."""
        if addr & 63 != 63 and 0 <= addr and addr + 2 <= self.size:
            line = addr >> 6
            self._c_load.value += 1
            lines = self._rlines
            try:
                lines.move_to_end(line)
                ns = self._hit_ns
            except KeyError:
                lines[line] = None
                if len(lines) > self._rcap:
                    lines.popitem(last=False)
                self._c_load_miss.value += 1
                ns = self._read_miss_ns
            self.clock.now_ns += ns
            entry = self._vget(line)
            if entry is None:
                durable = self._durable
                return durable[addr] | (durable[addr + 1] << 8)
            data = entry.data
            offset = addr - (line << 6)
            return data[offset] | (data[offset + 1] << 8)
        # Line-crossing or out-of-bounds: the generic path handles
        # (and reports) both.
        return int.from_bytes(self.read(addr, 2), "little")

    def read_u32(self, addr):
        end = addr + 4
        line = addr >> 6
        if 0 <= addr and end <= self.size and end <= (line + 1) << 6:
            return int.from_bytes(self._read_line_span(line, addr, end), "little")
        return int.from_bytes(self.read(addr, 4), "little")

    def read_u64(self, addr):
        end = addr + 8
        line = addr >> 6
        if 0 <= addr and end <= self.size and end <= (line + 1) << 6:
            return int.from_bytes(self._read_line_span(line, addr, end), "little")
        return int.from_bytes(self.read(addr, 8), "little")

    def _read_line_span(self, line, addr, end):
        """Shared single-line fast path for the fixed-width readers:
        residency touch + latency charge + visible bytes, no generic
        ``read`` dispatch."""
        self._c_load.value += 1
        lines = self._rlines
        try:
            lines.move_to_end(line)
            ns = self._hit_ns
        except KeyError:
            lines[line] = None
            if len(lines) > self._rcap:
                lines.popitem(last=False)
            self._c_load_miss.value += 1
            ns = self._read_miss_ns
        self.clock.now_ns += ns
        entry = self._vget(line)
        if entry is None:
            return self._durable[addr:end]
        base = line << 6
        return entry.data[addr - base : end - base]

    def read_u8(self, addr):
        """One byte (the page-type and flags fields): ``read(addr, 1)[0]``
        without the ``bytes`` slice — same load, same charge."""
        if 0 <= addr < self.size:
            line = addr >> 6
            self._c_load.value += 1
            lines = self._rlines
            try:
                lines.move_to_end(line)
                ns = self._hit_ns
            except KeyError:
                lines[line] = None
                if len(lines) > self._rcap:
                    lines.popitem(last=False)
                self._c_load_miss.value += 1
                ns = self._read_miss_ns
            self.clock.now_ns += ns
            entry = self._vget(line)
            if entry is None:
                return self._durable[addr]
            return entry.data[addr & 63]
        return self.read(addr, 1)[0]

    def read_record(self, base, slot):
        """Payload of record ``slot`` of the slotted page at ``base``,
        the B-tree's search probe, in one frame (see ``_record_rest``
        for the four loads it fuses and DESIGN.md §9 for the contract).

        Each load touches its line and adds its charge to a local copy
        of ``now_ns`` in the order the separate calls would; a load of
        the line the previous load touched is a hit with no LRU move
        (that line is already the most recently used) and reuses that
        load's visible entry (nothing stores between the loads).  The
        clock and the load counters are stored back once.  Charges are
        non-negative, so a zero charge is added rather than skipped.
        """
        if slot < 0:  # refused before the count is loaded, as ever
            raise IndexError("slot %d out of range" % slot)
        size = self.size
        addr = base + _REC_NRECORDS
        if addr & 63 == 63 or addr < 0 or addr + 2 > size:
            return _record_rest(self, base, slot, 0)
        lines = self._rlines
        rcap = self._rcap
        vget = self._vget
        durable = self._durable
        hit = self._hit_ns
        clock = self.clock
        now = clock.now_ns
        misses = 0
        # Load 1: the record count.
        line = addr >> 6
        try:
            lines.move_to_end(line)
            now += hit
            prev = line
        except KeyError:
            lines[line] = None
            if len(lines) > rcap:
                lines.popitem(last=False)
            misses = 1
            now += self._read_miss_ns
            prev = line if rcap else -1
        entry = vget(line)
        if entry is None:
            count = durable[addr] | durable[addr + 1] << 8
        else:
            data = entry.data
            count = data[addr & 63] | data[(addr & 63) + 1] << 8
        if slot >= count:
            clock.now_ns = now
            self._c_load.value += 1
            self._c_load_miss.value += misses
            raise IndexError("slot %d out of range" % slot)
        # Load 2: the slot's offset.
        addr = base + _REC_SLOTS + 2 * slot
        if addr & 63 == 63 or addr + 2 > size:
            clock.now_ns = now
            self._c_load.value += 1
            self._c_load_miss.value += misses
            return _record_rest(self, base, slot, 1)
        line = addr >> 6
        if line == prev:
            now += hit
        else:
            try:
                lines.move_to_end(line)
                now += hit
                prev = line
            except KeyError:
                lines[line] = None
                if len(lines) > rcap:
                    lines.popitem(last=False)
                misses += 1
                now += self._read_miss_ns
                prev = line if rcap else -1
            entry = vget(line)
        if entry is None:
            offset = durable[addr] | durable[addr + 1] << 8
        else:
            data = entry.data
            offset = data[addr & 63] | data[(addr & 63) + 1] << 8
        # Load 3: the cell's payload length.
        addr = base + offset
        if addr & 63 == 63 or addr < 0 or addr + 2 > size:
            clock.now_ns = now
            self._c_load.value += 2
            self._c_load_miss.value += misses
            return _record_rest(self, base, slot, 2, offset)
        line = addr >> 6
        if line == prev:
            now += hit
        else:
            try:
                lines.move_to_end(line)
                now += hit
                prev = line
            except KeyError:
                lines[line] = None
                if len(lines) > rcap:
                    lines.popitem(last=False)
                misses += 1
                now += self._read_miss_ns
                prev = line if rcap else -1
            entry = vget(line)
        if entry is None:
            length = durable[addr] | durable[addr + 1] << 8
        else:
            data = entry.data
            length = data[addr & 63] | data[(addr & 63) + 1] << 8
        # Load 4: the payload, in one line or across two.
        addr += _REC_CELL_HEADER
        end = addr + length
        line = addr >> 6
        if end <= (line + 1) << 6 and length and end <= size:
            if line == prev:
                now += hit
            else:
                try:
                    lines.move_to_end(line)
                    now += hit
                except KeyError:
                    lines[line] = None
                    if len(lines) > rcap:
                        lines.popitem(last=False)
                    misses += 1
                    now += self._read_miss_ns
                entry = vget(line)
            clock.now_ns = now
            self._c_load.value += 4
            if misses:
                self._c_load_miss.value += misses
            if entry is None:
                return durable[addr:end]
            offset = addr & 63
            return bytes(entry.data[offset : offset + length])
        last = (end - 1) >> 6
        if last != line + 1 or end > size:
            clock.now_ns = now
            self._c_load.value += 3
            self._c_load_miss.value += misses
            return self.read(addr, length)
        # ``read``'s two-line path: the pair's charges summed, added once.
        ns = 0.0
        missed_before = False
        if line == prev:
            ns += hit
        else:
            try:
                lines.move_to_end(line)
                ns += hit
            except KeyError:
                lines[line] = None
                if len(lines) > rcap:
                    lines.popitem(last=False)
                misses += 1
                ns += self._read_miss_ns
                missed_before = True
            entry = vget(line)
        try:
            lines.move_to_end(last)
            ns += hit
        except KeyError:
            lines[last] = None
            if len(lines) > rcap:
                lines.popitem(last=False)
            misses += 1
            ns += self._stream_ns if missed_before else self._read_miss_ns
        now += ns
        clock.now_ns = now
        self._c_load.value += 4
        if misses:
            self._c_load_miss.value += misses
        second = vget(last)
        if entry is None and second is None:
            return durable[addr:end]
        split = last << 6
        first_part = (
            durable[addr:split] if entry is None
            else entry.data[addr - (line << 6) : CACHE_LINE]
        )
        second_part = (
            durable[split:end] if second is None
            else second.data[0 : end - split]
        )
        return b"".join((first_part, second_part))

    # ------------------------------------------------------------------
    # Stores
    # ------------------------------------------------------------------

    def write(self, addr, data):
        """Store ``data`` at ``addr``.

        The store is absorbed by the cache/store buffer: it is cheap,
        latency-independent (the paper inserts no delay for stores) and
        *not durable* until flushed and fenced.
        """
        length = len(data)
        end = addr + length
        if addr < 0 or end > self.size:
            self._check(addr, length)
        self._c_store.value += 1
        self._c_store_bytes.value += length
        trace = self._trace
        if trace.enabled:
            # ``trace.record`` inlined (here and at the flush/fence hot
            # sites below): one fewer Python call per traced event on
            # the memory-model hot path.  Body is line-for-line
            # ``TraceRecorder.record``.
            trace.seq = seq = trace.seq + 1
            trace._events.append((seq, trace._clock.now_ns, ev.STORE, addr, length))
            totals = trace._kind_totals
            try:
                totals[ev.STORE] += 1
            except KeyError:
                totals[ev.STORE] = 1
        ns = self._store_ns + self._store_byte_ns * length
        self.clock.now_ns += ns
        if not length:
            return
        line = addr >> 6
        line_base = line << 6
        if end <= line_base + CACHE_LINE:
            # Fast path: the store touches a single cache line
            # (``_materialize`` inlined: the durable-backed case is by
            # far the most common).
            entry = self._dget(line)
            if entry is None:
                pending = self._iget(line)
                if pending is None:
                    entry = _DirtyLine(bytearray(
                        self._durable[line_base : line_base + CACHE_LINE]
                    ))
                else:
                    entry = _DirtyLine(bytearray(pending.data))
                self._dirty[line] = entry
                self._vis[line] = entry
            start = addr - line_base
            entry.data[start : start + length] = data
            entry.dirty_words |= _RANGE_MASK_FLAT[(start >> 3) * 8 + ((start + length - 1) >> 3)]
            lines = self._rlines
            if line in lines:
                lines.move_to_end(line)
            else:
                lines[line] = None
                if len(lines) > self._rcap:
                    lines.popitem(last=False)
            return
        offset = 0
        dget = self._dget
        dirty = self._dirty
        vis = self._vis
        lines = self._rlines
        rcap = self._rcap
        while offset < length:
            pos = addr + offset
            line = pos >> 6
            line_base = line << 6
            take = line_base + CACHE_LINE - pos
            rest = length - offset
            if rest < take:
                take = rest
            entry = dget(line)
            if entry is None:
                entry = self._materialize(line)
                dirty[line] = entry
                vis[line] = entry
            start = pos - line_base
            entry.data[start : start + take] = data[offset : offset + take]
            entry.dirty_words |= _RANGE_MASK_FLAT[(start >> 3) * 8 + ((start + take - 1) >> 3)]
            if line in lines:
                lines.move_to_end(line)
            else:
                lines[line] = None
                if len(lines) > rcap:
                    lines.popitem(last=False)
            offset += take

    def _write_fixed(self, addr, data, length):
        """Single-line store of a fixed-width integer (the WAL frame
        header / heap metadata hot path): ``write`` with the length
        checks and multi-line handling compiled away."""
        self._c_store.value += 1
        self._c_store_bytes.value += length
        trace = self._trace
        if trace.enabled:
            trace.seq = seq = trace.seq + 1
            trace._events.append((seq, trace._clock.now_ns, ev.STORE, addr, length))
            totals = trace._kind_totals
            try:
                totals[ev.STORE] += 1
            except KeyError:
                totals[ev.STORE] = 1
        ns = self._store_fixed_ns[length]
        self.clock.now_ns += ns
        line = addr >> 6
        entry = self._dget(line)
        if entry is None:
            pending = self._iget(line)
            line_base = line << 6
            if pending is None:
                entry = _DirtyLine(bytearray(
                    self._durable[line_base : line_base + CACHE_LINE]
                ))
            else:
                entry = _DirtyLine(bytearray(pending.data))
            self._dirty[line] = entry
            self._vis[line] = entry
        start = addr & 63
        entry.data[start : start + length] = data
        entry.dirty_words |= _RANGE_MASK_FLAT[
            (start >> 3) * 8 + ((start + length - 1) >> 3)
        ]
        lines = self._rlines
        if line in lines:
            lines.move_to_end(line)
        else:
            lines[line] = None
            if len(lines) > self._rcap:
                lines.popitem(last=False)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def clflush(self, addr):
        """Flush the cache line containing ``addr``.

        The line's current content starts moving toward the persistence
        domain (guaranteed complete only after a fence) and the line is
        evicted from the cache, as real ``clflush`` does.  Charges the
        PM write latency — the same post-``clflush`` delay injection the
        paper uses to emulate PM write latency.
        """
        if addr < 0 or addr >= self.size or self.flush_forbidden:
            self._check_flush(addr, 1, "clflush")
        line = addr >> 6
        self._c_flush.value += 1
        trace = self._trace
        if trace.enabled:
            trace.seq = seq = trace.seq + 1
            trace._events.append((seq, trace._clock.now_ns, ev.CLFLUSH, addr, 0))
            totals = trace._kind_totals
            try:
                totals[ev.CLFLUSH] += 1
            except KeyError:
                totals[ev.CLFLUSH] = 1
        ns = self._flush_ns
        self.clock.now_ns += ns
        entry = self._dirty.pop(line, None)
        if entry is not None:
            self._c_flush_bytes.value += WORD * entry.dirty_words.bit_count()
            pending = self._iget(line)
            if pending is None:
                self._inflight[line] = entry
            else:
                pending.data = entry.data
                pending.dirty_words |= entry.dirty_words
                self._vis[line] = pending
        self._rlines.pop(line, None)

    def clwb(self, addr):
        """Write back the cache line containing ``addr`` WITHOUT
        evicting it (the instruction the paper's Figure 3 shows).

        Same persistence semantics as ``clflush`` — complete only
        after a fence — but subsequent reads of the line stay cache
        hits.
        """
        if addr < 0 or addr >= self.size or self.flush_forbidden:
            self._check_flush(addr, 1, "clwb")
        line = addr // CACHE_LINE
        self._c_flush.value += 1
        self._c_flush_clwb.value += 1
        trace = self._trace
        if trace.enabled:
            trace.record(ev.CLWB, addr)
        self.clock.advance(self._flush_ns)
        entry = self._dirty.pop(line, None)
        if entry is not None:
            self._c_flush_bytes.value += WORD * entry.dirty_words.bit_count()
            pending = self._iget(line)
            if pending is None:
                self._inflight[line] = entry
            else:
                pending.data = entry.data
                pending.dirty_words |= entry.dirty_words
                self._vis[line] = pending
        lines = self._rlines  # the line stays cached
        if line in lines:
            lines.move_to_end(line)
        else:
            lines[line] = None
            if len(lines) > self._rcap:
                lines.popitem(last=False)

    def flush_range(self, addr, length):
        """Write back every line overlapping ``[addr, addr+length)``
        using the configured instruction (``clflush`` evicts, as on the
        paper's Haswell testbed; ``clwb`` keeps the line cached).  A
        range that overruns the arena, or any flush inside an RTM
        region, raises before the first line is flushed."""
        if length <= 0:
            return
        if addr < 0 or addr + length > self.size or self.flush_forbidden:
            self._check_flush(addr, length, self.flush_instruction)
        if self.flush_instruction == "clwb":
            clwb = self.clwb
            for line in range(addr >> 6, ((addr + length - 1) >> 6) + 1):
                clwb(line << 6)
            return
        # ``clflush`` inlined per line: every commit flushes a handful
        # of ranges, and the per-line method dispatch used to rival the
        # accounting itself.  Semantics (counters, trace events, clock,
        # dirty -> in-flight movement, eviction) are line-for-line those
        # of ``clflush``.
        c_flush = self._c_flush
        c_bytes = self._c_flush_bytes
        trace = self._trace
        enabled = trace.enabled
        totals = trace._kind_totals
        ns = self._flush_ns
        clock = self.clock
        dirty_pop = self._dirty.pop
        iget = self._iget
        inflight = self._inflight
        vis = self._vis
        rlines_pop = self._rlines.pop
        for line in range(addr >> 6, ((addr + length - 1) >> 6) + 1):
            c_flush.value += 1
            if enabled:
                trace.seq = seq = trace.seq + 1
                trace._events.append(
                    (seq, trace._clock.now_ns, ev.CLFLUSH, line << 6, 0)
                )
                try:
                    totals[ev.CLFLUSH] += 1
                except KeyError:
                    totals[ev.CLFLUSH] = 1
            clock.now_ns += ns
            entry = dirty_pop(line, None)
            if entry is not None:
                c_bytes.value += WORD * entry.dirty_words.bit_count()
                pending = iget(line)
                if pending is None:
                    inflight[line] = entry
                else:
                    pending.data = entry.data
                    pending.dirty_words |= entry.dirty_words
                    vis[line] = pending
            rlines_pop(line, None)

    def sfence(self):
        """Complete all in-flight flushes (store fence)."""
        self._c_fence.value += 1
        trace = self._trace
        if trace.enabled:
            trace.seq = seq = trace.seq + 1
            trace._events.append((seq, trace._clock.now_ns, ev.FENCE, 0, 0))
            totals = trace._kind_totals
            try:
                totals[ev.FENCE] += 1
            except KeyError:
                totals[ev.FENCE] = 1
        ns = self._fence_ns
        self.clock.now_ns += ns
        inflight = self._inflight
        if inflight:
            durable = self._durable
            dirty = self._dirty
            vis = self._vis
            written_add = self._written.add
            for line, entry in inflight.items():
                words = entry.dirty_words
                base = line << 6
                written_add(line >> 6)
                if words == _FULL_LINE:
                    durable[base : base + CACHE_LINE] = entry.data
                else:
                    # ``_apply_words`` inlined: partial lines (slot
                    # headers, log records) dominate fence traffic.
                    data = entry.data
                    for lo, hi in _MASK_RUNS[words]:
                        durable[base + lo : base + hi] = data[lo:hi]
                if line not in dirty:
                    del vis[line]
            inflight.clear()

    # The single-threaded simulation gives mfence and sfence identical
    # semantics; both names exist so call sites read like the paper.
    mfence = sfence

    def persist(self, addr, length):
        """Flush + fence a range: the canonical durability sequence."""
        self.flush_range(addr, length)
        self.sfence()

    # ------------------------------------------------------------------
    # Crash simulation
    # ------------------------------------------------------------------

    def crash(self, policy=None):
        """Power-fail the machine.

        Every atomic unit that was dirty or in flight (flushed but not
        fenced) survives iff the ``policy`` says so; all volatile state
        is then discarded.  Fenced data always survives.
        """
        policy = (policy or PersistAll()).fresh()
        self._trace.record(ev.CRASH, self.dirty_unit_count())
        granule_words = self.atomic_granularity // WORD
        for source in (self._inflight, self._dirty):
            for line, entry in source.items():
                if granule_words == _WORDS_PER_LINE:
                    if policy.survives(line, 0):
                        self._apply_words(line, entry, entry.dirty_words)
                else:
                    surviving = 0
                    for word in _MASK_WORDS[entry.dirty_words]:
                        if policy.survives(line, word):
                            surviving |= 1 << word
                    self._apply_words(line, entry, surviving)
        self._dirty.clear()
        self._inflight.clear()
        self._vis.clear()
        self._rlines.clear()

    def fork(self):
        """An independent arena holding this one's durable bytes and
        at-risk lines, with its own fresh clock and ``obs``: what a
        power failure *now* would act on, for ``crash()`` and recovery
        to consume while this memory keeps running.

        Only the host pages the durable image was ever written at are
        copied (every other page is zero on both sides), and the twin
        inherits that set.  The in-flight and dirty lines are copied in
        their current dict order, because a policy that draws per unit
        (``RandomPersist``) must see them in the order ``crash()`` here
        would.
        """
        twin = PersistentMemory(
            self.size,
            latency=self.latency,
            cost=self.cost,
            atomic_granularity=self.atomic_granularity,
            cache_lines=self._rcap,
            flush_instruction=self.flush_instruction,
        )
        durable = self._durable
        for page in self._written:
            lo = page << _PAGE_SHIFT
            chunk = durable[lo : lo + _PAGE]
            twin._durable[lo : lo + len(chunk)] = chunk
        twin._written.update(self._written)
        # Dirty after in-flight: the CPU-visible entry of a line in both
        # is the dirty one.
        for source, target in ((self._inflight, twin._inflight),
                               (self._dirty, twin._dirty)):
            for line, entry in source.items():
                target[line] = twin._vis[line] = _DirtyLine(
                    bytearray(entry.data), entry.dirty_words
                )
        return twin

    def dirty_unit_count(self):
        """Number of atomic units currently at risk (for exhaustive
        crash enumeration in tests)."""
        units = 0
        for source in (self._inflight, self._dirty):
            for entry in source.values():
                if self.atomic_granularity == CACHE_LINE:
                    units += 1
                else:
                    units += entry.dirty_words.bit_count()
        return units

    def dirty_units(self):
        """The ``(line, unit)`` pairs currently at risk."""
        pairs = set()
        for source in (self._inflight, self._dirty):
            for line, entry in source.items():
                if self.atomic_granularity == CACHE_LINE:
                    pairs.add((line, 0))
                else:
                    pairs.update((line, word) for word in _bits(entry.dirty_words))
        return sorted(pairs)

    # ------------------------------------------------------------------
    # Introspection (tests and tooling)
    # ------------------------------------------------------------------

    def durable_bytes(self, addr, length):
        """What persistence currently holds (bypasses the cache)."""
        self._check(addr, length)
        return self._durable[addr : addr + length]

    def visible_bytes(self, addr, length):
        """What the CPU currently sees: the durable bytes overlaid with
        the dirty and in-flight lines.  A host-side view with no
        simulated cost — no clock, counter, residency or trace effect
        (version capture, cache-fill sizing and checkers read here)."""
        end = addr + length
        if addr < 0 or end > self.size:
            self._check(addr, length)
        image = self._durable[addr:end]
        if not length or not self._vis:
            return image
        vget = self._vget
        out = None
        for line in range(addr >> 6, ((end - 1) >> 6) + 1):
            entry = vget(line)
            if entry is not None:
                if out is None:
                    out = bytearray(image)
                base = line << 6
                lo = base if base > addr else addr
                hi = base + CACHE_LINE if base + CACHE_LINE < end else end
                out[lo - addr : hi - addr] = entry.data[lo - base : hi - base]
        return image if out is None else bytes(out)

    def is_durably_clean(self, addr, length):
        """True if no byte of the range has unfenced modifications."""
        first = addr // CACHE_LINE
        last = (addr + length - 1) // CACHE_LINE
        return not any(
            line in self._dirty or line in self._inflight
            for line in range(first, last + 1)
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _materialize(self, line):
        """A fresh ``_DirtyLine`` seeded with the CPU-visible content of
        ``line`` (which, by construction, is not in ``_dirty``)."""
        pending = self._iget(line)
        if pending is not None:
            return _DirtyLine(bytearray(pending.data))
        base = line * CACHE_LINE
        return _DirtyLine(bytearray(self._durable[base : base + CACHE_LINE]))

    def _check_flush(self, addr, length, instruction):
        """Raise, with nothing flushed, on a range outside the arena or
        on any flush inside an RTM region."""
        if addr < 0 or addr + length > self.size:
            self._check(addr, length)
        if self.flush_forbidden:
            raise RuntimeError(
                "%s inside an RTM transaction violates hardware "
                "transactional semantics (paper Section 3.2, footnote 2)"
                % instruction
            )

    def _apply_words(self, line, entry, words):
        if words:
            self._written.add(line >> 6)
        base = line * CACHE_LINE
        if words == _FULL_LINE:
            self._durable[base : base + CACHE_LINE] = entry.data
            return
        data = entry.data
        durable = self._durable
        for lo, hi in _MASK_RUNS[words]:
            durable[base + lo : base + hi] = data[lo:hi]



class VolatileMemory(_Arena):
    """A DRAM arena: same accounting interface, no persistence.

    Used by the NVWAL baseline's volatile buffer cache.  Loads charge
    the (lower) DRAM latency on residency misses; a crash erases the
    entire contents.  ``obs`` is the instrumentation it charges (the
    PM arena's, for NVWAL's buffer; a fresh one if omitted).
    """

    def __init__(self, size, *, latency=None, cost=None, obs=None,
                 cache_lines=4096):
        self.size = size
        self.latency = latency or LatencyProfile()
        self.cost = cost or CostModel()
        self.obs = obs or Observability(SimClock())
        self.clock = self.obs.clock
        registry = self.obs.registry
        self._c_load = registry.counter("dram.load")
        self._c_load_miss = registry.counter("dram.load_miss")
        self._c_store = registry.counter("dram.store")
        self._c_store_bytes = registry.counter("dram.store_bytes")
        # Folded through the one DRAM-tier attribution point shared
        # with the tiered page cache (identical values by construction,
        # so pre-existing runs stay byte-identical).
        self._dram_ns = self.cost.dram_tier_line_ns(self.latency)
        self._dram_stream_ns = self.cost.dram_tier_line_ns(
            self.latency, streamed=True
        )
        self._hit_ns = self.cost.cache_hit_ns
        self._store_ns = self.cost.store_ns
        self._store_byte_ns = self.cost.store_byte_ns
        self._store_fixed_ns = {
            n: self._store_ns + self._store_byte_ns * n for n in (2, 4, 8)
        }
        self._data = _zero_map(size)
        self._rlines = OrderedDict()
        self._rcap = cache_lines

    def read(self, addr, length):
        end = addr + length
        if addr < 0 or end > self.size:
            self._check(addr, length)
        self._c_load.value += 1
        line = addr >> 6
        if 0 < length and end <= (line + 1) << 6:
            # Fast path: single-line read (headers and cells), with the
            # residency touch and clock advance inlined as in
            # ``PersistentMemory.read``.
            lines = self._rlines
            try:
                # DRAM working sets almost always fit the cache, so the
                # hit path is one C call (move_to_end raises on a miss).
                lines.move_to_end(line)
                ns = self._hit_ns
            except KeyError:
                lines[line] = None
                if len(lines) > self._rcap:
                    lines.popitem(last=False)
                self._c_load_miss.value += 1
                ns = self._dram_ns
            self.clock.now_ns += ns
            return self._data[addr:end]
        last = (end - 1) >> 6
        missed_before = False
        lines = self._rlines
        rcap = self._rcap
        clock = self.clock
        for line in range(line, last + 1):
            try:
                lines.move_to_end(line)
                ns = self._hit_ns
            except KeyError:
                lines[line] = None
                if len(lines) > rcap:
                    lines.popitem(last=False)
                self._c_load_miss.value += 1
                if missed_before:
                    ns = self._dram_stream_ns
                else:
                    ns = self._dram_ns
                    missed_before = True
            clock.now_ns += ns
        return self._data[addr:end]

    def visible_bytes(self, addr, length):
        """The bytes at ``[addr, addr+length)``, read host-side with no
        simulated cost (NVWAL's frame snapshots and word diffs)."""
        end = addr + length
        if addr < 0 or end > self.size:
            self._check(addr, length)
        return self._data[addr:end]

    def write(self, addr, data):
        length = len(data)
        end = addr + length
        if addr < 0 or end > self.size:
            self._check(addr, length)
        self._c_store.value += 1
        self._c_store_bytes.value += length
        ns = self._store_ns + self._store_byte_ns * length
        self.clock.now_ns += ns
        self._data[addr:end] = data
        lines = self._rlines
        rcap = self._rcap
        for line in range(addr >> 6, ((end - 1) >> 6) + 1):
            try:
                lines.move_to_end(line)
            except KeyError:
                lines[line] = None
                if len(lines) > rcap:
                    lines.popitem(last=False)

    def read_u16(self, addr):
        if addr & 63 != 63 and 0 <= addr and addr + 2 <= self.size:
            # Fast path mirroring ``PersistentMemory.read_u16``: the
            # two bytes share a line, so skip the generic read and its
            # bytes allocation entirely.
            self._c_load.value += 1
            line = addr >> 6
            lines = self._rlines
            try:
                lines.move_to_end(line)
                ns = self._hit_ns
            except KeyError:
                lines[line] = None
                if len(lines) > self._rcap:
                    lines.popitem(last=False)
                self._c_load_miss.value += 1
                ns = self._dram_ns
            self.clock.now_ns += ns
            data = self._data
            return data[addr] | (data[addr + 1] << 8)
        return int.from_bytes(self.read(addr, 2), "little")

    def read_u8(self, addr):
        """``read(addr, 1)[0]`` without the slice, as on PM."""
        if 0 <= addr < self.size:
            self._c_load.value += 1
            line = addr >> 6
            lines = self._rlines
            try:
                lines.move_to_end(line)
                ns = self._hit_ns
            except KeyError:
                lines[line] = None
                if len(lines) > self._rcap:
                    lines.popitem(last=False)
                self._c_load_miss.value += 1
                ns = self._dram_ns
            self.clock.now_ns += ns
            return self._data[addr]
        return self.read(addr, 1)[0]

    def read_record(self, base, slot):
        """``PersistentMemory.read_record`` on DRAM: the same four loads
        in one frame, priced as DRAM reads.  A two-line payload adds
        its lines' charges one at a time, as ``read``'s loop does."""
        if slot < 0:  # refused before the count is loaded, as ever
            raise IndexError("slot %d out of range" % slot)
        size = self.size
        addr = base + _REC_NRECORDS
        if addr & 63 == 63 or addr < 0 or addr + 2 > size:
            return _record_rest(self, base, slot, 0)
        lines = self._rlines
        rcap = self._rcap
        data = self._data
        hit = self._hit_ns
        miss = self._dram_ns
        clock = self.clock
        now = clock.now_ns
        misses = 0
        # Load 1: the record count.
        line = addr >> 6
        try:
            lines.move_to_end(line)
            now += hit
            prev = line
        except KeyError:
            lines[line] = None
            if len(lines) > rcap:
                lines.popitem(last=False)
            misses = 1
            now += miss
            prev = line if rcap else -1
        count = data[addr] | data[addr + 1] << 8
        if slot >= count:
            clock.now_ns = now
            self._c_load.value += 1
            self._c_load_miss.value += misses
            raise IndexError("slot %d out of range" % slot)
        # Load 2: the slot's offset.
        addr = base + _REC_SLOTS + 2 * slot
        if addr & 63 == 63 or addr + 2 > size:
            clock.now_ns = now
            self._c_load.value += 1
            self._c_load_miss.value += misses
            return _record_rest(self, base, slot, 1)
        line = addr >> 6
        if line == prev:
            now += hit
        else:
            try:
                lines.move_to_end(line)
                now += hit
                prev = line
            except KeyError:
                lines[line] = None
                if len(lines) > rcap:
                    lines.popitem(last=False)
                misses += 1
                now += miss
                prev = line if rcap else -1
        offset = data[addr] | data[addr + 1] << 8
        # Load 3: the cell's payload length.
        addr = base + offset
        if addr & 63 == 63 or addr < 0 or addr + 2 > size:
            clock.now_ns = now
            self._c_load.value += 2
            self._c_load_miss.value += misses
            return _record_rest(self, base, slot, 2, offset)
        line = addr >> 6
        if line == prev:
            now += hit
        else:
            try:
                lines.move_to_end(line)
                now += hit
                prev = line
            except KeyError:
                lines[line] = None
                if len(lines) > rcap:
                    lines.popitem(last=False)
                misses += 1
                now += miss
                prev = line if rcap else -1
        length = data[addr] | data[addr + 1] << 8
        # Load 4: the payload, in one line or across two.
        addr += _REC_CELL_HEADER
        end = addr + length
        line = addr >> 6
        last = (end - 1) >> 6
        if not length or end > size or last > line + 1:
            clock.now_ns = now
            self._c_load.value += 3
            self._c_load_miss.value += misses
            return self.read(addr, length)
        missed_before = False
        if line == prev:
            now += hit
        else:
            try:
                lines.move_to_end(line)
                now += hit
            except KeyError:
                lines[line] = None
                if len(lines) > rcap:
                    lines.popitem(last=False)
                misses += 1
                now += miss
                missed_before = True
        if last != line:
            try:
                lines.move_to_end(last)
                now += hit
            except KeyError:
                lines[last] = None
                if len(lines) > rcap:
                    lines.popitem(last=False)
                misses += 1
                now += self._dram_stream_ns if missed_before else miss
        clock.now_ns = now
        self._c_load.value += 4
        if misses:
            self._c_load_miss.value += misses
        return data[addr:end]

    def read_u32(self, addr):
        return int.from_bytes(self.read(addr, 4), "little")

    def _write_fixed(self, addr, data, length):
        """Single-line DRAM store of a fixed-width integer."""
        self._c_store.value += 1
        self._c_store_bytes.value += length
        ns = self._store_fixed_ns[length]
        self.clock.now_ns += ns
        self._data[addr : addr + length] = data
        line = addr >> 6
        lines = self._rlines
        try:
            lines.move_to_end(line)
        except KeyError:
            lines[line] = None
            if len(lines) > self._rcap:
                lines.popitem(last=False)

    # Flushing is a no-op on DRAM: data here is volatile by
    # definition.  It exists so the slotted-page code runs unchanged on
    # the NVWAL volatile buffer cache.

    def flush_range(self, addr, length):
        del addr, length

    def crash(self, policy=None):
        """DRAM loses everything on power failure."""
        del policy
        self._data = _zero_map(self.size)
        self._rlines.clear()

