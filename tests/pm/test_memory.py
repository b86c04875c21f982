"""Unit and property tests for the persistent-memory model."""

import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pm import (
    CACHE_LINE,
    DropAll,
    LatencyProfile,
    PersistAll,
    PersistSubset,
    PersistentMemory,
    RandomPersist,
    VolatileMemory,
    WORD,
)
from repro.testing.crashsim import CrashablePM


def make_pm(**kwargs):
    kwargs.setdefault("latency", LatencyProfile(read_ns=300, write_ns=300))
    return PersistentMemory(4096, **kwargs)


# ----------------------------------------------------------------------
# Basic load/store visibility
# ----------------------------------------------------------------------


def test_read_back_own_write():
    pm = make_pm()
    pm.write(100, b"hello world")
    assert pm.read(100, 11) == b"hello world"


def test_write_spanning_lines_reads_back():
    pm = make_pm()
    data = bytes(range(100, 200))
    pm.write(CACHE_LINE - 10, data)
    assert pm.read(CACHE_LINE - 10, len(data)) == data


def test_initial_contents_zero():
    pm = make_pm()
    assert pm.read(0, 32) == bytes(32)


def test_u16_u32_u64_round_trip():
    pm = make_pm()
    pm.write_u16(0, 0xBEEF)
    pm.write_u32(8, 0xDEADBEEF)
    pm.write_u64(16, 0x0123456789ABCDEF)
    assert pm.read_u16(0) == 0xBEEF
    assert pm.read_u32(8) == 0xDEADBEEF
    assert pm.read_u64(16) == 0x0123456789ABCDEF


def test_out_of_bounds_access_raises():
    pm = make_pm()
    with pytest.raises(IndexError):
        pm.read(4090, 10)
    with pytest.raises(IndexError):
        pm.write(-1, b"x")


def test_size_must_be_line_multiple():
    with pytest.raises(ValueError):
        PersistentMemory(100)


def test_bad_atomic_granularity_rejected():
    with pytest.raises(ValueError):
        PersistentMemory(4096, atomic_granularity=16)


# ----------------------------------------------------------------------
# Persistence semantics
# ----------------------------------------------------------------------


def test_unflushed_write_is_not_durable():
    pm = make_pm()
    pm.write(0, b"secret")
    assert pm.durable_bytes(0, 6) == bytes(6)


def test_persist_makes_data_durable():
    pm = make_pm()
    pm.write(0, b"secret")
    pm.persist(0, 6)
    assert pm.durable_bytes(0, 6) == b"secret"


def test_clflush_without_fence_not_guaranteed():
    pm = make_pm()
    pm.write(0, b"data")
    pm.clflush(0)
    # In flight: a DropAll crash may lose it.
    pm.crash(DropAll())
    assert pm.read(0, 4) == bytes(4)


def test_fence_completes_inflight_flush():
    pm = make_pm()
    pm.write(0, b"data")
    pm.clflush(0)
    pm.sfence()
    pm.crash(DropAll())
    assert pm.read(0, 4) == b"data"


def test_write_after_flush_redirties_line():
    pm = make_pm()
    pm.write(0, b"AAAA")
    pm.persist(0, 4)
    pm.write(0, b"BBBB")
    pm.crash(DropAll())
    assert pm.read(0, 4) == b"AAAA"


def test_flush_range_covers_every_line():
    pm = make_pm()
    data = bytes([7]) * (3 * CACHE_LINE)
    pm.write(10, data)
    pm.flush_range(10, len(data))
    pm.sfence()
    assert pm.durable_bytes(10, len(data)) == data


@pytest.mark.parametrize("memory_class", [PersistentMemory, CrashablePM])
@pytest.mark.parametrize("instruction", ["clflush", "clwb"])
@pytest.mark.parametrize("fault", ["overrun", "rtm"])
def test_refused_flush_range_changes_nothing(memory_class, instruction,
                                            fault):
    """An overrunning range or a flush inside an RTM region raises
    before the first line is flushed, under either instruction: the
    clock, the counters and the dirty state are as they were."""
    pm = memory_class(
        4096, latency=LatencyProfile(read_ns=300, write_ns=300),
        flush_instruction=instruction,
    )
    pm.write(4032, b"x" * 64)  # line 63, the arena's last
    before = (pm.clock.now_ns, pm.obs.registry.counters())
    if fault == "overrun":
        with pytest.raises(IndexError):
            pm.flush_range(4032, 128)
    else:
        pm.flush_forbidden = True
        with pytest.raises(RuntimeError):
            pm.flush_range(3968, 128)
        pm.flush_forbidden = False
    assert (pm.clock.now_ns, pm.obs.registry.counters()) == before
    assert pm.dirty_units() == [(63, 0)]
    pm.sfence()  # nothing was put in flight
    assert pm.durable_bytes(4032, 64) == bytes(64)


def test_visible_bytes_overlays_dirty_and_inflight_lines_at_no_cost():
    pm = make_pm()
    pm.write(56, b"durable!")
    pm.persist(56, 8)           # line 0 durable
    pm.write(64, b"inflight")
    pm.clflush(64)              # line 1 in flight
    pm.write(130, b"dirty")     # line 2 dirty
    before = (pm.clock.now_ns, pm.obs.registry.counters())
    expected = bytearray(256)
    expected[56:64] = b"durable!"
    expected[64:72] = b"inflight"
    expected[130:135] = b"dirty"
    assert pm.visible_bytes(0, 256) == bytes(expected)
    assert pm.visible_bytes(60, 72) == bytes(expected[60:132])
    assert pm.visible_bytes(100, 0) == b""
    assert (pm.clock.now_ns, pm.obs.registry.counters()) == before
    assert pm.durable_bytes(56, 16) == b"durable!" + bytes(8)
    with pytest.raises(IndexError):
        pm.visible_bytes(4090, 8)


def test_is_durably_clean():
    pm = make_pm()
    assert pm.is_durably_clean(0, 4096)
    pm.write(128, b"x")
    assert not pm.is_durably_clean(128, 1)
    assert pm.is_durably_clean(0, 64)
    pm.persist(128, 1)
    assert pm.is_durably_clean(0, 4096)


# ----------------------------------------------------------------------
# Crash model
# ----------------------------------------------------------------------


def test_crash_persist_all_keeps_dirty_data():
    pm = make_pm()
    pm.write(0, b"keepme")
    pm.crash(PersistAll())
    assert pm.read(0, 6) == b"keepme"


def test_crash_drop_all_restores_old_data():
    pm = make_pm()
    pm.write(0, b"old!")
    pm.persist(0, 4)
    pm.write(0, b"new!")
    pm.crash(DropAll())
    assert pm.read(0, 4) == b"old!"


def test_word_granularity_tearing():
    pm = make_pm(atomic_granularity=WORD)
    pm.write(0, b"A" * 16)  # words 0 and 1 of line 0
    pm.crash(PersistSubset({(0, 0)}))
    assert pm.read(0, 8) == b"A" * 8
    assert pm.read(8, 8) == bytes(8)


def test_word_granularity_never_tears_inside_word():
    pm = make_pm(atomic_granularity=WORD)
    pm.write(0, b"ABCDEFGH")
    for survives in (set(), {(0, 0)}):
        fresh = make_pm(atomic_granularity=WORD)
        fresh.write(0, b"ABCDEFGH")
        fresh.crash(PersistSubset(survives))
        assert fresh.read(0, 8) in (bytes(8), b"ABCDEFGH")


def test_line_granularity_is_all_or_nothing():
    pm = make_pm(atomic_granularity=CACHE_LINE)
    pm.write(0, b"X" * 40)  # several words of line 0
    pm.crash(PersistSubset({(0, 0)}))
    assert pm.read(0, 40) == b"X" * 40
    pm2 = make_pm(atomic_granularity=CACHE_LINE)
    pm2.write(0, b"X" * 40)
    pm2.crash(PersistSubset(set()))
    assert pm2.read(0, 40) == bytes(40)


def test_crash_clears_volatile_state():
    pm = make_pm()
    pm.write(0, b"zz")
    pm.crash(PersistAll())
    assert pm.is_durably_clean(0, 4096)


def test_dirty_units_word_mode():
    pm = make_pm(atomic_granularity=WORD)
    pm.write(0, b"12345678")          # line 0, word 0
    pm.write(CACHE_LINE + 8, b"12")   # line 1, word 1
    assert pm.dirty_units() == [(0, 0), (1, 1)]
    assert pm.dirty_unit_count() == 2


def test_dirty_units_line_mode():
    pm = make_pm(atomic_granularity=CACHE_LINE)
    pm.write(0, b"ab")
    pm.write(CACHE_LINE, b"cd")
    assert pm.dirty_units() == [(0, 0), (1, 0)]


def test_random_persist_is_reproducible():
    import random

    outcomes = []
    for _ in range(2):
        pm = make_pm(atomic_granularity=WORD)
        pm.write(0, bytes(range(64)))
        pm.crash(RandomPersist(rng=random.Random(42)))
        outcomes.append(pm.durable_bytes(0, 64))
    assert outcomes[0] == outcomes[1]


@settings(max_examples=50, deadline=None)
@given(
    writes=st.lists(
        st.tuples(st.integers(0, 4000), st.binary(min_size=1, max_size=64)),
        max_size=12,
    ),
    seed=st.integers(0, 2**16),
)
def test_crash_survivors_are_prefix_consistent(writes, seed):
    """After any crash, every 8-byte word equals either its old or its
    new value — never a blend."""
    import random

    pm = make_pm(atomic_granularity=WORD)
    shadow_old = bytes(4096)
    for addr, data in writes:
        if addr + len(data) > 4096:
            continue
        pm.write(addr, data)
    shadow_new = bytearray(shadow_old)
    for addr, data in writes:
        if addr + len(data) > 4096:
            continue
        shadow_new[addr : addr + len(data)] = data
    pm.crash(RandomPersist(rng=random.Random(seed)))
    durable = pm.durable_bytes(0, 4096)
    for word in range(4096 // WORD):
        lo, hi = word * WORD, (word + 1) * WORD
        assert durable[lo:hi] in (shadow_old[lo:hi], bytes(shadow_new[lo:hi]))


# ----------------------------------------------------------------------
# Latency accounting
# ----------------------------------------------------------------------


def test_read_miss_charges_pm_latency():
    pm = make_pm()
    before = pm.clock.now_ns
    pm.read(0, 8)
    assert pm.clock.now_ns - before >= 300


def test_read_hit_is_cheap():
    pm = make_pm()
    pm.read(0, 8)
    before = pm.clock.now_ns
    pm.read(0, 8)
    assert pm.clock.now_ns - before < 300


def test_clflush_charges_write_latency():
    pm = make_pm(latency=LatencyProfile(read_ns=300, write_ns=900))
    pm.write(0, b"x")
    before = pm.clock.now_ns
    pm.clflush(0)
    assert pm.clock.now_ns - before >= 900


def test_store_cost_is_latency_independent():
    slow = make_pm(latency=LatencyProfile(read_ns=1200, write_ns=1200))
    fast = make_pm(latency=LatencyProfile(read_ns=120, write_ns=120))
    for pm in (slow, fast):
        pm.read(0, 1)  # warm residency so the write path matches
    s0, f0 = slow.clock.now_ns, fast.clock.now_ns
    slow.write(0, b"abcd")
    fast.write(0, b"abcd")
    assert slow.clock.now_ns - s0 == pytest.approx(fast.clock.now_ns - f0)


def test_clflush_evicts_line_from_cache():
    pm = make_pm()
    pm.read(0, 8)
    pm.write(0, b"y")
    pm.clflush(0)
    pm.sfence()
    misses_before = pm.obs.registry.value("pm.load_miss")
    pm.read(0, 8)
    assert pm.obs.registry.value("pm.load_miss") == misses_before + 1


def test_stats_count_events():
    pm = make_pm()
    pm.write(0, b"abc")
    pm.persist(0, 3)
    assert pm.obs.registry.value("pm.store") == 1
    assert pm.obs.registry.value("pm.store_bytes") == 3
    assert pm.obs.registry.value("pm.flush") == 1
    assert pm.obs.registry.value("pm.fence") == 1


def test_stats_snapshot_since():
    pm = make_pm()
    pm.write(0, b"a")
    snap = pm.obs.snapshot()
    pm.write(0, b"b")
    delta = pm.obs.since(snap)
    assert delta["registry"]["counters"]["pm.store"] == 1


# ----------------------------------------------------------------------
# Volatile memory
# ----------------------------------------------------------------------


def test_volatile_round_trip_and_crash():
    dram = VolatileMemory(1024)
    dram.write(10, b"volatile")
    assert dram.read(10, 8) == b"volatile"
    dram.crash()
    assert dram.read(10, 8) == bytes(8)


def test_volatile_charges_dram_latency():
    dram = VolatileMemory(1024, latency=LatencyProfile(dram_ns=120))
    before = dram.clock.now_ns
    dram.read(0, 8)
    assert dram.clock.now_ns - before >= 120


def test_volatile_bounds_checked():
    dram = VolatileMemory(64)
    with pytest.raises(IndexError):
        dram.write(60, b"123456789")


# ----------------------------------------------------------------------
# Host memory: arenas are sparse
# ----------------------------------------------------------------------


def _rss_bytes():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                    reason="reads the process's RSS from /proc/self/statm")
def test_arenas_cost_host_memory_only_for_written_pages():
    """A 64 MiB PM arena, its fork and a 64 MiB DRAM arena hold only
    the pages written: a few hundred scattered lines, and reads of
    every other page, grow the RSS by a few MiB, where zero-filled
    arenas would add more than 128 MiB."""
    size = 64 << 20
    rng = random.Random(11)
    lines = rng.sample(range(size // CACHE_LINE), 300)
    before = _rss_bytes()
    pm = PersistentMemory(size, atomic_granularity=WORD)
    dram = VolatileMemory(size)
    for line in lines:
        pm.write(line * CACHE_LINE, b"\xa5" * CACHE_LINE)
        pm.clflush(line * CACHE_LINE)
        dram.write(line * CACHE_LINE, b"\x5a" * CACHE_LINE)
    pm.sfence()
    pm.write(0, b"dirty")
    twin = pm.fork()
    for addr in range(0, size, 4096):
        twin.durable_bytes(addr, 1)
        dram.visible_bytes(addr, 1)
    grown = _rss_bytes() - before
    assert grown < 8 << 20, grown
    for line in lines[:20]:
        assert twin.durable_bytes(line * CACHE_LINE, 2) == b"\xa5\xa5"
    dram.crash()
    assert dram.read(lines[0] * CACHE_LINE, 2) == bytes(2)


def test_zero_byte_arenas_construct():
    pm = PersistentMemory(0)
    dram = VolatileMemory(0)
    assert pm.durable_bytes(0, 0) == pm.visible_bytes(0, 0) == b""
    assert dram.visible_bytes(0, 0) == b""
    twin = pm.fork()
    assert twin.size == 0 and twin.durable_bytes(0, 0) == b""
    for memory in (pm, dram):
        with pytest.raises(IndexError):
            memory.read(0, 1)
        with pytest.raises(IndexError):
            memory.write(0, b"x")
        memory.crash()


def test_mask_runs_cover_exactly_the_dirty_words():
    """``sfence`` and ``crash()`` apply a partial line one slice per run
    of dirty words: the runs must cover exactly the set words, and be
    maximal (no two runs touch)."""
    from repro.pm.memory import _MASK_RUNS, _MASK_WORDS

    for mask in range(256):
        runs = _MASK_RUNS[mask]
        covered = [byte for lo, hi in runs for byte in range(lo, hi)]
        assert covered == [
            word * WORD + i for word in _MASK_WORDS[mask] for i in range(WORD)
        ]
        assert all(hi < lo for (_, hi), (lo, _) in zip(runs, runs[1:]))
