"""From repetitions to named metrics.

End-to-end metrics are what a user of the engine (simulated clock) or
of the simulator (host clock) sees; per-layer metrics say which layer
did the work.  Definitions and units are in README.md; names and units
are declared once, in BENCHMARK.json.
"""

import math
import statistics

#: The layers of ``host_self_share.*``: module names under ``repro``.
#: ``obs`` is the whole package; every other file, the standard
#: library and the benchmark's own code are ``other``.
LAYERS = (
    "pm.memory", "pm.clock", "pm.allocator", "htm.rtm",
    "storage.slotted_page", "storage.pagestore", "storage.defrag",
    "storage.versions", "storage.cache", "storage.sharding",
    "btree.btree", "btree.cells", "wal.slot_header_log", "wal.nvwal",
    "wal.twopc", "core.base", "core.fast", "core.nvwal", "core.locking",
    "core.session", "core.scheduler", "core.occ", "obs", "other",
)


def is_host_clock(name):
    """Host-clock metrics vary run to run; every other metric is
    simulated or a count and must repeat exactly for a seed."""
    return (
        "host" in name
        or name in ("setup_s", "obs.trace_overhead_ratio")
        or name.startswith("driver.")
    )


def _ratio(num, den):
    return num / den if den else 0.0


def percentile(ordered, q):
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Pool:
    """Cell results pooled: counters and phase times summed, with
    per-cell access for the metrics that name a cell."""

    def __init__(self, rep):
        self.cells = rep
        self.commits = sum(c["commits"] for c in rep)

    def total(self, field, cells=None):
        return sum(c[field] for c in (self.cells if cells is None else cells))

    def count(self, name, cells=None):
        return sum(c["counters"].get(name, 0)
                   for c in (self.cells if cells is None else cells))

    def phase_us(self, name):
        return sum(c["phase_ns"].get(name, (0, 0.0))[1]
                   for c in self.cells) / 1000.0

    def phase_count(self, name):
        return sum(c["phase_ns"].get(name, (0, 0.0))[0] for c in self.cells)

    def named(self, cell_name):
        return [c for c in self.cells if c["cell"] == cell_name]

    def scheme(self, scheme):
        return [c for c in self.cells if c["scheme"] == scheme]

    def per_txn(self, name, cells=None, scale=1):
        commits = self.commits if cells is None else self.total("commits", cells)
        return _ratio(scale * self.count(name, cells), commits)


def sim_busy_ns(cell):
    """Simulated wall time of a cell: the run's elapsed time, or for a
    sharded cell the busiest shard (shards would run in parallel)."""
    busy = cell["shard_busy_ns"]
    return max(busy) if busy and max(busy) > 0 else cell["sim_ns"]


def _latencies_by_cell(cells):
    """Ascending item latencies (ns) of each cell name, pooled over the
    streams.  Cells are never pooled with each other: their latencies
    differ tenfold, which would put a pooled median on the cliff
    between them."""
    by_name = {}
    for cell in cells:
        by_name.setdefault(cell["cell"], []).extend(cell["latencies_ns"])
    return [sorted(ns) for ns in by_name.values()]


def cell_percentile_us(cells, q):
    """Nearest-rank percentile of item latency within each cell name,
    then the mean over cell names."""
    return statistics.mean(
        percentile(ns, q) for ns in _latencies_by_cell(cells)) / 1000.0


def slowest_share_us(cells, share):
    """Mean item latency of the slowest ``share`` of each cell name's
    items, then the mean over cell names.  The tail is a mean and not a
    percentile because every high percentile sits on a cliff of some
    cell (p99 of ``mixed_8c_2pl`` between one and two 50 us back-offs,
    p95 of ``fastplus`` inserts between the in-place and the logged
    commit), where it moves by a third between seeds; a mean over the
    tail moves only as much as the tail does."""
    return statistics.mean(
        statistics.fmean(ns[-max(1, round(share * len(ns))):])
        for ns in _latencies_by_cell(cells)) / 1000.0


def end_to_end_simulated(cells):
    """The simulated end-to-end metrics of the pooled cells (one
    repetition of every input stream), and the latency sample count."""
    pool = Pool(cells)
    return {
        "sim_txn_per_s": _ratio(
            pool.commits * 1e9, sum(sim_busy_ns(c) for c in cells)),
        "sim_txn_p50_us": cell_percentile_us(cells, 0.50),
        "sim_txn_slowest10_us": slowest_share_us(cells, 0.10),
        "sim_flushes_per_txn": pool.per_txn("pm.flush"),
        "sim_pm_bytes_per_user_byte": _ratio(
            pool.count("pm.flush_bytes"), pool.total("user_bytes")),
        "space_bytes_per_user_byte": _ratio(
            pool.total("reachable_bytes"), pool.total("live_bytes")),
        "recovery_sim_us": pool.total("recovery_sim_ns") / len(cells) / 1000.0,
    }, sum(len(c["latencies_ns"]) for c in cells)


def host_txn_per_s(rep, cells=None):
    cells = rep if cells is None else cells
    return _ratio(sum(c["commits"] for c in cells),
                  sum(c["host_s"] for c in cells))


def simulated_per_layer(cells):
    """Exact per-layer work of the pooled cells (all counts per
    committed transaction unless the name says otherwise)."""
    p = Pool(cells)
    nvwal = p.scheme("nvwal")
    grants = p.count("lock.acquire") + p.count("lock.upgrade")
    busy = [b for c in cells for b in c["shard_busy_ns"]]
    return {
        "pm.loads_per_txn": p.per_txn("pm.load"),
        "pm.load_miss_ratio": _ratio(p.count("pm.load_miss"), p.count("pm.load")),
        "pm.stores_per_txn": p.per_txn("pm.store"),
        "pm.flush_bytes_per_txn": p.per_txn("pm.flush_bytes"),
        "pm.fences_per_txn": p.per_txn("pm.fence"),
        "rtm.commit_ratio": _ratio(p.count("rtm.commit"), p.count("rtm.begin")),
        "rtm.fallbacks_per_ktxn": p.per_txn("rtm.fallback", scale=1000),
        "engine.inplace_commit_ratio": _ratio(
            p.count("engine.commit.inplace"),
            p.count("engine.commit.inplace") + p.count("engine.commit.logged")),
        "engine.sim_commit_us_per_txn": _ratio(p.phase_us("commit"), p.commits),
        "page.sim_update_us_per_txn": _ratio(p.phase_us("page_update"), p.commits),
        "page.defrags_per_ktxn": _ratio(1000 * p.phase_count("defrag"), p.commits),
        "page.fill_factor_end": _ratio(
            p.total("fill_weighted"), p.total("data_pages")),
        "page.fragmented_bytes_end": p.total("fragmented_bytes"),
        "btree.sim_search_us_per_txn": _ratio(p.phase_us("search"), p.commits),
        "log.frames_per_txn": p.per_txn("log.frame"),
        "log.marks_per_txn": p.per_txn("log.commit_mark"),
        "log.sim_flush_us_per_txn": _ratio(p.phase_us("log_flush"), p.commits),
        "log.sim_checkpoint_us_per_txn": _ratio(
            p.phase_us("checkpoint"), p.commits),
        "nvwal.frames_per_txn": p.per_txn("wal.frame", nvwal),
        "nvwal.checkpoints_per_ktxn": p.per_txn(
            "engine.checkpoint", nvwal, scale=1000),
        "nvwal.bytes_used_end": sum(
            c["end_gauges"]["wal.bytes_used"] for c in nvwal),
        "lock.acquires_per_txn": p.per_txn("lock.acquire"),
        "lock.upgrades_per_txn": p.per_txn("lock.upgrade"),
        "lock.conflict_ratio": _ratio(
            p.count("lock.conflict"), grants + p.count("lock.conflict")),
        "sched.steps_per_txn": p.per_txn("sched.step"),
        "sched.waits_per_txn": p.per_txn("sched.wait"),
        "sched.retries_per_txn": p.per_txn("sched.retry"),
        "sched.abort_ratio": _ratio(
            p.count("sched.abort"), p.count("sched.abort") + p.commits),
        "sched.deadlocks_per_ktxn": p.per_txn("sched.deadlock", scale=1000),
        "sched.timeouts_per_ktxn": p.per_txn("sched.timeout", scale=1000),
        "mvcc.snapshot_reads_per_txn": p.per_txn("mvcc.snapshot_reads"),
        "mvcc.gc_reclaimed_per_txn": p.per_txn("mvcc.gc_reclaimed"),
        "mvcc.versions_live_end": sum(
            c["end_gauges"]["mvcc.versions_live"] for c in cells),
        "cache.hit_ratio.c8": _hit_ratio(p, "c8"),
        "cache.hit_ratio.c64": _hit_ratio(p, "c64"),
        "cache.evictions_per_ktxn": p.per_txn("cache.evict", scale=1000),
        "cache.invalidations_per_txn": p.per_txn("cache.invalidate"),
        "occ.validation_abort_ratio.read_mostly": _occ_aborts(p, "read_mostly"),
        "occ.validation_abort_ratio.hot_writes": _occ_aborts(p, "hot_writes"),
        "occ.fallbacks_per_ktxn": p.per_txn("occ.fallback", scale=1000),
        "occ.lock_hold_us_per_txn": p.per_txn("occ.lock_hold_ns") / 1000.0,
        "twopc.prepares_per_txn": p.per_txn("twopc.prepare"),
        "twopc.cross_shard_share": p.per_txn("twopc.decision"),
        "shard.busy_imbalance": _ratio(max(busy, default=0.0) * len(busy),
                                       sum(busy)),
        "recovery.replayed_per_crash": p.total("recovery_replayed") / len(cells),
        # Not end to end: see ``slowest_share_us``.
        "latency.sim_txn_p99_us": cell_percentile_us(cells, 0.99),
    }


def _hit_ratio(pool, cell_name):
    cells = pool.named(cell_name)
    hits = pool.count("cache.hit", cells)
    return _ratio(hits, hits + pool.count("cache.miss", cells))


def _occ_aborts(pool, cell_name):
    cells = pool.named(cell_name)
    return _ratio(pool.count("occ.validation.abort", cells),
                  pool.count("occ.validation", cells))


def quartiles(values):
    """(q1, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def host_self_share(profile, src_root):
    """Per-layer exclusive host time of a ``cProfile.Profile`` as
    shares of the total.  Time inside a C function (bytes slicing,
    dict lookups...) belongs to the layer of the Python function that
    called it, so a layer's share is what the layer itself costs."""
    import pstats

    prefix = str(src_root) + "/"

    def layer_of(filename):
        if not filename.startswith(prefix):
            return "other"
        parts = filename[len(prefix):-len(".py")].split("/")
        if parts[0] == "obs":
            return "obs"
        name = ".".join(parts)
        return name if name in LAYERS else "other"

    seconds = dict.fromkeys(LAYERS, 0.0)
    for (filename, _, _), (_, _, own, _, callers) in (
        pstats.Stats(profile).stats.items()
    ):
        if filename != "~" or not callers:
            seconds[layer_of(filename)] += own
            continue
        for (caller_file, _, _), (_, _, own_from_caller, _) in callers.items():
            seconds[layer_of(caller_file)] += own_from_caller
    total = sum(seconds.values())
    return {"host_self_share." + layer: _ratio(s, total)
            for layer, s in seconds.items()}
