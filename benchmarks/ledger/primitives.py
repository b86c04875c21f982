"""Each primitive alone, before the composed cells (van Renen et al.,
"Persistent Memory I/O Primitives").

``prim.<p>.host_ns`` is the median over batches of host ns per call
(the batch's ``for`` loop included, ~20-30 ns); ``prim.<p>.sim_ns`` is
the simulated ns one call charges, reported where it is not zero.  A
composed-cell regression should be explainable as (count per
transaction) x (a primitive's host ns).
"""

import random
import statistics
import time

from repro.core import Engine, LockManager, SystemConfig, open_engine
from repro.htm.rtm import RTM
from repro.storage.slotted_page import PAGE_LEAF, SlottedPage
from repro.wal.slot_header_log import SlotHeaderLog

LINE = 64
PAGE = 4096

#: Primitives that charge simulated time (the others are pure
#: bookkeeping: locks, version chains, cache directory, counters).
SIMULATED = (
    "pm.write_64B", "pm.read_64B_hit", "pm.read_64B_miss", "pm.clflush",
    "pm.sfence", "page.insert_record", "page.read_record",
    "btree.search_d3", "log.commit_1frame", "rtm.execute_1line",
)
HOST_ONLY = (
    "lock.acquire_release", "versions.resolve_page", "cache.lookup_hit",
    "obs.inc",
)


def _measure(clock, body, calls, batches, setup=None):
    """(median host ns per call, simulated ns per call)."""
    host = []
    sim = 0.0
    for _ in range(batches):
        if setup is not None:
            setup()
        sim0 = clock.now_ns
        t0 = time.perf_counter_ns()
        body()
        t1 = time.perf_counter_ns()
        sim += clock.now_ns - sim0
        host.append((t1 - t0) / calls)
    return statistics.median(host), sim / (batches * calls)


def _small_config(**overrides):
    fields = dict(
        scheme="fastplus", page_size=PAGE, npages=64, log_bytes=1 << 16,
        heap_bytes=1 << 20, dram_bytes=8 * PAGE, cache_lines=64,
    )
    fields.update(overrides)
    return SystemConfig(**fields)


def _raw_pm(out, batches):
    """Stores, loads, flushes, fences, the slotted page, the log and
    RTM on a bare arena whose simulated CPU cache holds 64 lines."""
    config = _small_config()
    pm = Engine.build_pm(config)
    pm.obs.tracing(False)
    clock = pm.clock
    data = bytes(range(LINE))
    hot = [i * LINE for i in range(32)]               # fits the cache
    cold = [(64 + 2 * i) * LINE for i in range(1024)]  # 16x the cache

    def write_hot():
        for _ in range(8):
            for addr in hot:
                pm.write(addr, data)

    def read_hot():
        for _ in range(8):
            for addr in hot:
                pm.read(addr, LINE)

    def read_cold():
        for addr in cold:
            pm.read(addr, LINE)

    out["pm.write_64B"] = _measure(clock, write_hot, 256, batches)
    out["pm.read_64B_hit"] = _measure(clock, read_hot, 256, batches)
    out["pm.read_64B_miss"] = _measure(clock, read_cold, 1024, batches)

    def dirty(lines):
        def setup():
            pm.sfence()
            for addr in lines:
                pm.write(addr, data)
        return setup

    def flush_hot():
        for addr in hot:
            pm.clflush(addr)

    out["pm.clflush"] = _measure(clock, flush_hot, 32, batches, dirty(hot))

    # One fence with 8 flushed lines in flight (a small commit).
    def inflight():
        for addr in hot[:8]:
            pm.write(addr, data)
            pm.clflush(addr)

    out["pm.sfence"] = _measure(clock, pm.sfence, 1, batches * 8, inflight)

    # Slotted page: 40 records of 64 B into a fresh 4 KiB leaf.
    page_base = 32 * PAGE
    payload = bytes(LINE)
    state = {}

    def fresh_page():
        state["page"] = SlottedPage.initialize(
            pm, page_base, PAGE, PAGE_LEAF, persist=False)

    def fill_page():
        page = state["page"]
        for slot in range(40):
            page.pending_insert(slot, payload)

    out["page.insert_record"] = _measure(
        clock, fill_page, 40, batches, fresh_page)
    page = state["page"]
    page.apply_header(page.pending_header_image(), persist=True)

    def read_page():
        for _ in range(4):
            for slot in range(40):
                page.record(slot)

    out["page.read_record"] = _measure(clock, read_page, 160, batches)

    # The slot-header log's whole commit protocol for one 64 B frame.
    log = SlotHeaderLog.format(pm, config.log_base, config.log_bytes)
    image = bytes(LINE)

    def log_commits():
        for seq in range(1, 33):
            log.stage_page_header(5, image)
            log.write_frames()
            log.flush_frames()
            pm.sfence()
            log.commit(seq)
            log.truncate()

    out["log.commit_1frame"] = _measure(clock, log_commits, 32, batches)

    rtm = RTM(pm)
    word_addr = 48 * PAGE

    def store_word(txn):
        txn.write_u64(word_addr, 7)

    def rtm_commits():
        for _ in range(64):
            rtm.execute(store_word)

    out["rtm.execute_1line"] = _measure(clock, rtm_commits, 64, batches)


def _engine_level(out, batches):
    """B-tree descent, lock grant, version resolve, cache probe and a
    counter bump, on small engines built through the public API."""
    rng = random.Random(5)
    engine = open_engine(_small_config(page_size=512, npages=1024))
    engine.obs.tracing(False)
    keys = []
    while engine.tree().height(engine.read_view()) < 3:
        key = b"%016d" % rng.randrange(10 ** 15)
        engine.insert(key, b"v" * 16, replace=True)
        keys.append(key)
    probes = [rng.choice(keys) for _ in range(200)]

    def searches():
        for key in probes:
            engine.search(key)

    out["btree.search_d3"] = _measure(engine.clock, searches, 200, batches)

    locks = LockManager(obs=engine.obs)
    resources = [("page", n) for n in range(8)]

    def lock_cycles():
        for _ in range(16):
            for resource in resources:
                locks.acquire(1, resource, "X")
            locks.release_all(1)

    out["lock.acquire_release"] = _measure(
        engine.clock, lock_cycles, 16 * 8, batches)

    def counter_bumps():
        inc = engine.obs.inc
        for _ in range(256):
            inc("sched.step")

    out["obs.inc"] = _measure(engine.clock, counter_bumps, 256, batches)

    # A pinned snapshot makes the next commits retain pre-images, so
    # resolve_page walks a real chain.
    mvcc = open_engine(_small_config(dram_cache_pages=8))
    mvcc.obs.tracing(False)
    for i in range(40):
        mvcc.insert(b"k%04d" % i, b"v" * 32)
    reader = mvcc.session("reader", isolation="read_only")
    snapshot = reader.transaction()
    snapshot.search(b"k0000")
    for i in range(4):
        mvcc.insert(b"k%04d" % i, b"w" * 32, replace=True)
    versions = mvcc.version_manager
    chained = [n for n in sorted(mvcc.reachable_pages())
               if versions.live_versions(n) > 1]
    pinned_ts = snapshot.pinned_snapshot.snapshot_ts

    def resolves():
        for _ in range(64):
            for page_no in chained:
                versions.resolve_page(page_no, pinned_ts)

    out["versions.resolve_page"] = _measure(
        mvcc.clock, resolves, 64 * len(chained), batches)
    snapshot.commit()
    reader.close()

    cache = mvcc.page_cache
    mvcc.search(b"k0020")
    cached = [n for n in sorted(mvcc.reachable_pages())
              if cache.lookup(n) is not None]

    def probes_hit():
        for _ in range(64):
            for page_no in cached:
                cache.lookup(page_no)

    out["cache.lookup_hit"] = _measure(
        mvcc.clock, probes_hit, 64 * len(cached), batches)


def run(quick=False):
    """``{metric name: value}`` for every ``prim.*`` metric."""
    batches = 5 if quick else 25
    measured = {}
    _raw_pm(measured, batches)
    _engine_level(measured, batches)
    metrics = {}
    for name in SIMULATED + HOST_ONLY:
        host_ns, sim_ns = measured[name]
        metrics["prim.%s.host_ns" % name] = host_ns
        if name in SIMULATED:
            metrics["prim.%s.sim_ns" % name] = sim_ns
    return metrics
