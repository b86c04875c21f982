"""``read_record`` is the slotted page's four-load record probe fused
into one call on every arena; it must charge exactly what the four
separate loads charge.

Two twins are built by the same operations.  One answers a probe with
``read_record``, the other with the four calls (``read_u16`` of the
record count, the bound check, ``read_u16`` of the slot's offset and of
the cell's length, ``read`` of the payload).  After every probe both
must have returned the same bytes or raised the same exception, and
must agree bit for bit on the clock, the load counters and the
residency order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pm import CostModel, LatencyProfile, PersistentMemory, SimClock
from repro.pm.memory import (
    _REC_CELL_HEADER,
    _REC_NRECORDS,
    _REC_SLOTS,
    VolatileMemory,
)
from repro.storage import slotted_page
from repro.storage.versions import _ImageMemory

PAGE = 512
ARENA = 2 * PAGE
LINES = ARENA // 64
# Prices that do not add exactly in binary floating point, so a
# changed order of additions shows in ``now_ns.hex()``.
LATENCY = LatencyProfile(read_ns=333.3, write_ns=300.0, dram_ns=121.7)
COST = CostModel(cache_hit_ns=4.1, stream_line_ns=60.7,
                 dram_stream_line_ns=10.3)


def four_loads(memory, base, slot):
    """``SlottedPage.record`` as it was before the fused probe."""
    if not 0 <= slot < memory.read_u16(base + 2):
        raise IndexError("slot %d out of range" % slot)
    offset = memory.read_u16(base + 8 + 2 * slot)
    length = memory.read_u16(base + offset)
    return memory.read(base + offset + 4, length)


def outcome(call):
    try:
        return ("ok", bytes(call()))
    except IndexError as exc:
        return ("raised", type(exc), str(exc))


def test_layout_constants_match_the_slotted_page():
    assert _REC_NRECORDS == slotted_page._OFF_NRECORDS
    assert _REC_SLOTS == slotted_page.FIXED_HEADER_SIZE
    assert slotted_page.SLOT_SIZE == 2
    assert _REC_CELL_HEADER == slotted_page.CELL_HEADER_SIZE


#: Payload lengths that stay in one line, cross one boundary or two
#: (depending on where the cell sits), and the empty payload.
_LENGTHS = st.one_of(
    st.just(0), st.integers(1, 12), st.integers(50, 100),
    st.integers(120, 140),
)


@st.composite
def pages(draw):
    """``(image, nrecords)``: a page of ``PAGE`` bytes with a record
    count, an offset array and cells at drawn offsets.  Most offsets
    land in the page, at any alignment (so u16 fields may straddle a
    line), some so that the payload starts a line (then its first line
    is not the length's); some are arbitrary u16 values, which leave
    the arena."""
    count = draw(st.integers(0, 12))
    image = bytearray(PAGE)
    image[2:4] = count.to_bytes(2, "little")
    for slot in range(count):
        kind = draw(st.integers(0, 7))
        if kind == 0:
            offset = draw(st.integers(0, 0xFFFF))
        elif kind == 1:  # the payload starts a line
            offset = draw(st.sampled_from(range(60, PAGE - 4, 64)))
        else:
            offset = draw(st.integers(8 + 2 * count, PAGE - 4))
        image[8 + 2 * slot : 10 + 2 * slot] = offset.to_bytes(2, "little")
        if offset + 2 <= PAGE:
            length = draw(_LENGTHS)
            image[offset : offset + 2] = length.to_bytes(2, "little")
            payload = bytes((slot * 37 + i) & 0xFF for i in range(length))
            cell = image[offset + 4 : offset + 4 + length]
            image[offset + 4 : offset + 4 + len(cell)] = payload[: len(cell)]
    return bytes(image), count


def _actions(count):
    return st.lists(
        st.one_of(
            st.tuples(st.just("probe"), st.integers(0, max(count - 1, 0))),
            st.tuples(st.just("probe"), st.integers(-2, count + 2)),
            st.tuples(st.just("touch"), st.integers(0, LINES - 1)),
        ),
        min_size=1, max_size=12,
    )


def _run(twins, base, actions, touch, residency):
    fused, reference = twins
    for kind, arg in actions:
        if kind == "touch":
            for memory in twins:
                touch(memory, arg)
            continue
        got = outcome(lambda: fused.read_record(base, arg))
        want = outcome(lambda: four_loads(reference, base, arg))
        assert got == want
        assert fused.clock.now_ns.hex() == reference.clock.now_ns.hex()
        assert residency(fused) == residency(reference)
        if hasattr(fused, "obs"):
            assert (fused.obs.registry.counters()
                    == reference.obs.registry.counters())


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_persistent_memory_read_record_is_exact(data):
    image, count = data.draw(pages())
    base = data.draw(st.sampled_from([0, 61, PAGE, ARENA - PAGE // 2]))
    cache_lines = data.draw(st.integers(2, 8))
    # Per line: fenced (clean), flushed and unfenced (in flight), dirty,
    # or dirty over an in-flight copy.
    states = data.draw(st.lists(
        st.sampled_from(["clean", "inflight", "dirty", "both"]),
        min_size=LINES, max_size=LINES,
    ))
    touched = data.draw(st.lists(st.integers(0, LINES - 1), max_size=10))
    actions = data.draw(_actions(count))

    arena = bytearray(ARENA)
    span = arena[base : base + PAGE]
    arena[base : base + len(span)] = image[: len(span)]
    twins = []
    for _ in range(2):
        pm = PersistentMemory(ARENA, latency=LATENCY, cost=COST,
                              cache_lines=cache_lines)
        for line in range(LINES):
            pm.write(line * 64, arena[line * 64 : line * 64 + 64])
        for line, state in enumerate(states):
            if state == "clean":
                pm.clflush(line * 64)
        pm.sfence()
        for line, state in enumerate(states):
            if state in ("inflight", "both"):
                pm.clflush(line * 64)
            if state == "both":
                pm.write(line * 64 + 8, arena[line * 64 + 8 : line * 64 + 16])
        for line in touched:
            pm.read(line * 64, 1)
        twins.append(pm)

    _run(twins, base, actions,
         lambda pm, line: pm.read(line * 64 + 3, 2),
         lambda pm: list(pm._rlines))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_volatile_memory_read_record_is_exact(data):
    image, count = data.draw(pages())
    base = data.draw(st.sampled_from([0, 61, PAGE, ARENA - PAGE // 2]))
    cache_lines = data.draw(st.integers(2, 8))
    touched = data.draw(st.lists(st.integers(0, LINES - 1), max_size=10))
    actions = data.draw(_actions(count))

    twins = []
    for _ in range(2):
        dram = VolatileMemory(ARENA, latency=LATENCY, cost=COST,
                              cache_lines=cache_lines)
        dram.write(base, image[: ARENA - base])
        for line in touched:
            dram.read(line * 64, 1)
        twins.append(dram)

    _run(twins, base, actions,
         lambda dram, line: dram.read(line * 64 + 3, 2),
         lambda dram: list(dram._rlines))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_image_read_record_is_exact(data):
    image, count = data.draw(pages())
    origin = 4096
    hole = data.draw(st.one_of(
        st.none(),
        st.tuples(st.integers(0, PAGE), st.integers(0, PAGE)).map(sorted)
        .map(tuple),
    ))
    held = image if hole is None else image[: hole[0]] + image[hole[1]:]
    touched = data.draw(st.lists(st.integers(0, PAGE - 1), max_size=10))
    actions = data.draw(_actions(count))

    twins = []
    for _ in range(2):
        clock = SimClock()
        clock.advance(0.3)
        frame = _ImageMemory(held, clock, 4.1, 121.7, 10.3, hole=hole,
                             origin=origin)
        for offset in touched:
            if hole is None or not hole[0] <= offset < hole[1]:
                frame.read(origin + offset, 1)
        twins.append(frame)

    def touch(frame, line):
        offset = line * 64 % PAGE
        if hole is None or not hole[0] <= offset < hole[1]:
            frame.read(origin + offset, 1)

    _run(twins, origin, actions, touch, lambda frame: frame._resident)


def test_read_u8_charges_as_a_one_byte_read():
    twins = [PersistentMemory(ARENA, latency=LATENCY, cost=COST,
                              cache_lines=2) for _ in range(2)]
    for pm in twins:
        pm.write(70, b"\x07")
    for addr in (70, 0, 130, 70, 200):
        assert twins[0].read_u8(addr) == twins[1].read(addr, 1)[0]
        assert twins[0].clock.now_ns.hex() == twins[1].clock.now_ns.hex()
        assert list(twins[0]._rlines) == list(twins[1]._rlines)
        assert (twins[0].obs.registry.counters()
                == twins[1].obs.registry.counters())


def _twins(kind, image):
    """Two arenas holding ``image`` at 0 with lines 2 and 3 cold."""
    twins = []
    for _ in range(2):
        if kind == "pm":
            memory = PersistentMemory(ARENA, latency=LATENCY, cost=COST)
            memory.write(0, image)
            memory.flush_range(0, PAGE)  # clflush evicts every line
            memory.sfence()
        elif kind == "dram":
            memory = VolatileMemory(ARENA, latency=LATENCY, cost=COST,
                                    cache_lines=2)
            memory.write(0, image)  # leaves lines 6 and 7 resident
        else:
            memory = _ImageMemory(image, SimClock(), 4.1, 121.7, 10.3)
        twins.append(memory)
    return twins


def test_cold_two_line_payload_streams_its_second_line():
    """A payload that starts a line and ends in the next, both cold:
    the first line pays a miss and the second the streaming rate."""
    image = bytearray(PAGE)
    image[2:4] = (1).to_bytes(2, "little")
    image[8:10] = (124).to_bytes(2, "little")
    image[124:126] = (70).to_bytes(2, "little")
    image[128:198] = bytes(range(70))
    for kind, residency in (("pm", lambda m: list(m._rlines)),
                            ("dram", lambda m: list(m._rlines)),
                            ("image", lambda m: m._resident)):
        twins = _twins(kind, bytes(image))
        _run(twins, 0, [("probe", 0)], None, residency)
        assert twins[0].read_record(0, 0) == bytes(range(70))
