"""Multi-client benchmark driver: contention throughput experiments.

Drives N simulated clients through the deterministic cooperative
scheduler (:mod:`repro.core.scheduler`) against one shared engine and
reports committed-transaction throughput in *simulated* time together
with the concurrency counters (aborts / retries / deadlocks /
timeouts) from the shared obs registry.  This is the Fig 12-style
surface under contention that the single-session harness could not
produce: sweep the client count or the read/write mix and watch lock
conflicts shape throughput.

Everything is deterministic: workloads come from per-client seeded
PRNGs, the scheduler interleaves by simulated time only, and repeated
runs produce byte-identical reports (the CI determinism job diffs two
invocations).
"""

import random
from zlib import crc32

from repro.bench.harness import build_config
from repro.core import SystemConfig, open_engine
from repro.core.scheduler import Scheduler

#: Registry counters reported per run (deltas over the scheduled window).
_COUNTERS = (
    "engine.txn.begin", "engine.txn.commit", "engine.txn.rollback",
    "lock.acquire", "lock.upgrade", "lock.conflict", "lock.release",
    "sched.step", "sched.wait", "sched.wake", "sched.abort",
    "sched.retry", "sched.deadlock", "sched.timeout",
)


def client_workload(client_index, *, items=50, read_ratio=0.5,
                    key_space=200, seed=7, record_size=48):
    """Deterministic workload for one client: ``items`` transaction
    items mixing reads and writes over a shared hot key space.

    Writes come as small multi-op transactions (1-3 operations) so
    transactions genuinely overlap under the scheduler; reads are
    single-op search transactions.  ``read_ratio`` is the probability
    that an item is a read.
    """
    rng = random.Random(seed * 1000 + client_index)
    payload = bytes(
        (client_index * 31 + i) % 256 for i in range(record_size)
    )
    workload = []
    for item_no in range(items):
        key = b"mk%05d" % rng.randrange(key_space)
        if rng.random() < read_ratio:
            workload.append(("search", key, None))
            continue
        ops = [("insert", key, payload)]
        for _ in range(rng.randrange(3)):
            extra = b"mk%05d" % rng.randrange(key_space)
            if rng.random() < 0.25:
                ops.append(("delete", extra, None))
            else:
                ops.append(("insert", extra, payload))
        workload.append(("txn", ops))
    return workload


def run_multi_client(scheme, *, clients=4, items=50, read_ratio=0.5,
                     key_space=200, seed=7, read_ns=300.0, write_ns=300.0,
                     record_size=48, preload=64, config=None,
                     checker_factory=None, readers=0, mvcc=False,
                     isolation=None, extra_counters=(), oracle=False):
    """One contention run: N clients, shared engine, full report.

    ``checker_factory`` (optional) is called with the engine and must
    return a ``repro.analysis.TraceChecker``-shaped object; it is then
    drained after every scheduler step and finished with the run, and
    the report gains a ``trace_check`` entry with its verdict — the
    bench itself asserting the ordering + 2PL discipline it exercises.

    ``oracle=True`` ends the run with the committed-prefix oracle
    (``repro.testing.crashsim.check_committed_prefix``): scan == the
    dict model replaying the commit order over the preload, live and
    after a ``DropAll`` crash + attach.  It raises on a mismatch, and
    runs after everything the report measures.

    ``readers`` appends that many pure-read clients (``read_ratio=1.0``
    workloads) after the ``clients`` mixed clients.  With ``mvcc=False``
    they run as ordinary locked sessions (S-lock traffic, conflict with
    writers); with ``mvcc=True`` they run as lock-free read-only MVCC
    snapshot sessions over the version chains.  The reader workloads
    are byte-identical across the two modes, so a locked-vs-MVCC pair
    of runs isolates the cost of reader locking.

    ``isolation`` picks the concurrency mode of the ``clients`` mixed
    clients (``None`` = classic strict 2PL, ``"occ"`` = optimistic
    snapshot writers that validate at commit).  Workload bytes are
    identical either way, so a locked-vs-OCC pair of runs isolates the
    cost and abort behavior of the writer protocol.
    """
    config = config or build_config(
        scheme, read_ns=read_ns, write_ns=write_ns,
        ops=max(512, (clients + readers) * items * 3),
        record_size=record_size,
    )
    engine = open_engine(config, scheme=scheme)
    # Preload part of the hot key space so reads hit and writes update
    # shared pages (the contended regime), outside the measured window.
    payload = bytes(record_size)
    preloaded = {}
    for i in range(preload):
        key = b"mk%05d" % (i * key_space // max(1, preload))
        engine.insert(key, payload, replace=True)
        preloaded[key] = payload
    checker = checker_factory(engine) if checker_factory is not None else None
    scheduler = Scheduler(
        engine,
        on_step=None if checker is None else lambda _client: checker.advance(),
    )
    for index in range(clients):
        scheduler.add_client(
            client_workload(
                index, items=items, read_ratio=read_ratio,
                key_space=key_space, seed=seed, record_size=record_size,
            ),
            isolation=isolation,
        )
    for index in range(clients, clients + readers):
        scheduler.add_client(
            client_workload(
                index, items=items, read_ratio=1.0,
                key_space=key_space, seed=seed, record_size=record_size,
            ),
            isolation="read_only" if mvcc else None,
        )
    snapshot = engine.obs.snapshot()
    report = scheduler.run()
    delta = engine.obs.since(snapshot)
    counters = delta["registry"]["counters"]
    result = {
        "scheme": scheme,
        "clients": clients,
        "items_per_client": items,
        "read_ratio": read_ratio,
        "seed": seed,
        "commits": report["commits"],
        "aborts": report["aborts"],
        "deadlocks": report["deadlocks"],
        "timeouts": report["timeouts"],
        "retries": report["retries"],
        "steps": report["steps"],
        "elapsed_ns": report["elapsed_ns"],
        "simulated_ns": report["simulated_ns"],
        "throughput_tps": report["throughput_tps"],
        "records": engine.verify(),
        "counters": {
            name: counters.get(name, 0)
            for name in _COUNTERS + tuple(extra_counters)
        },
        "per_client": report["per_client"],
    }
    if readers:
        result["readers"] = readers
        result["mvcc"] = mvcc
        result["mvcc_counters"] = {
            "mvcc.snapshot_reads": counters.get("mvcc.snapshot_reads", 0),
            "mvcc.gc_reclaimed": counters.get("mvcc.gc_reclaimed", 0),
        }
        result["mvcc_versions_live"] = engine.obs.registry.value(
            "mvcc.versions_live", 0,
        )
    if checker is not None:
        findings = checker.finish()
        result["trace_check"] = {
            "findings": [f.render() for f in findings],
            "stats": checker.stats,
        }
    if oracle:
        from repro.testing.crashsim import check_committed_prefix

        check_committed_prefix(engine, scheduler, preloaded=preloaded)
    return result


def sweep_clients(scheme, *, counts=(1, 2, 4, 8), **kwargs):
    """Throughput vs. client count at a fixed read/write mix."""
    return [
        run_multi_client(scheme, clients=count, **kwargs)
        for count in counts
    ]


def sweep_read_ratio(scheme, *, ratios=(0.0, 0.5, 0.9), **kwargs):
    """Throughput vs. read/write mix at a fixed client count."""
    return [
        run_multi_client(scheme, read_ratio=ratio, **kwargs)
        for ratio in ratios
    ]


def run_read_mostly(scheme, *, clients=4, mvcc=False, **kwargs):
    """The read-mostly cell: 1 writer + ``clients - 1`` pure readers.

    ``mvcc=False`` runs the readers as locked sessions (the baseline:
    S locks on every page touched, conflicting with the writer);
    ``mvcc=True`` runs them as lock-free snapshot sessions.  Workloads
    are identical either way — the delta is pure locking cost.
    """
    if clients < 2:
        raise ValueError("read-mostly needs at least 1 writer + 1 reader")
    return run_multi_client(
        scheme, clients=1, readers=clients - 1, mvcc=mvcc, **kwargs,
    )


# ----------------------------------------------------------------------
# OCC writer path: lock traffic and abort behavior vs. strict 2PL
# ----------------------------------------------------------------------

#: OCC counters reported by the isolation sweep (marginal deltas over
#: the scheduled window, like everything else in the run report).
_OCC_COUNTERS = (
    "occ.begin", "occ.validation", "occ.validation.abort",
    "occ.install.conflict", "occ.commit", "occ.fallback",
    "occ.lock_hold_ns", "sched.abort.occ",
)


def run_isolation_cell(scheme, *, isolation="locked", clients=8,
                       read_ratio=0.9, key_space=100, **kwargs):
    """One contention run under a chosen writer protocol.

    Identical workload bytes to :func:`run_multi_client`; the report
    gains the derived axis the OCC refactor moves —
    ``lock_acquires_per_commit`` (strict 2PL pays locks across the
    whole transaction, OCC only across the commit-time write-set
    install) — plus the price OCC pays for it: validation-abort rate
    and 2PL-fallback count.
    """
    result = run_multi_client(
        scheme, clients=clients, read_ratio=read_ratio,
        key_space=key_space,
        isolation=None if isolation == "locked" else isolation,
        extra_counters=_OCC_COUNTERS + tuple(kwargs.pop("extra_counters", ())),
        **kwargs,
    )
    counters = result["counters"]
    commits = result["commits"]
    validations = counters["occ.validation"]
    result["isolation"] = isolation
    result["lock_acquires_per_commit"] = (
        counters["lock.acquire"] / commits if commits else 0.0
    )
    result["occ_abort_rate"] = (
        counters["occ.validation.abort"] / validations
        if validations else 0.0
    )
    result["occ_fallbacks"] = counters["occ.fallback"]
    return result


#: The swept conflict mixes: (name, read_ratio, key_space).  Conflict
#: probability rises as the write share grows and the hot key space
#: shrinks; ``hot_writes`` is deliberately hostile so the sweep shows
#: the validation-abort + 2PL-fallback regime, not just the win.
OCC_MIXES = (
    ("read_mostly", 0.9, 100),
    ("low_conflict_writes", 0.5, 400),
    ("hot_writes", 0.2, 20),
)


def sweep_occ(scheme, *, counts=(2, 8), mixes=OCC_MIXES, **kwargs):
    """Locked-vs-OCC grid over client count x conflict mix.

    Each (mix, count) pair runs the *same* workload bytes twice — once
    under strict 2PL, once optimistically — so every OCC row can be
    read directly against its locked twin.
    """
    rows = []
    for mix, read_ratio, key_space in mixes:
        for count in counts:
            for isolation in ("locked", "occ"):
                row = run_isolation_cell(
                    scheme, isolation=isolation, clients=count,
                    read_ratio=read_ratio, key_space=key_space, **kwargs,
                )
                row["mix"] = mix
                rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Group commit: per-transaction durability cost vs. epoch size
# ----------------------------------------------------------------------

#: Durability counters reported by the group-commit sweep.  The obs
#: snapshot in :func:`run_multi_client` is taken after create +
#: preload, so these are *marginal* costs of the measured window —
#: format-time fences do not dilute the per-transaction figures.
_DURABILITY_COUNTERS = (
    "pm.fence", "pm.flush", "log.commit_mark", "wal.commit_mark",
    "group.join", "group.close",
)


def run_group_commit(scheme, *, group_size=0, clients=8, items=50,
                     read_ratio=0.5, key_space=200, seed=7,
                     read_ns=300.0, write_ns=300.0, record_size=48,
                     **kwargs):
    """One contention run with epoch-pipelined group commit on.

    ``group_size=0`` runs with grouping off — the ungrouped baseline on
    the *same* workload bytes.  The report gains the per-transaction
    durability costs (``fences_per_txn``, ``marks_per_txn``,
    ``flushes_per_txn``) derived from the marginal counter deltas over
    the scheduled window; the scheduler drains the final epoch before
    reporting, so deferred group work is fully accounted.
    """
    from dataclasses import replace

    config = build_config(
        scheme, read_ns=read_ns, write_ns=write_ns,
        ops=max(512, clients * items * 3), record_size=record_size,
    )
    config = replace(config, group_commit_size=group_size)
    result = run_multi_client(
        scheme, clients=clients, items=items, read_ratio=read_ratio,
        key_space=key_space, seed=seed, record_size=record_size,
        config=config, extra_counters=_DURABILITY_COUNTERS + tuple(kwargs.pop("extra_counters", ())),
        **kwargs,
    )
    counters = result["counters"]
    commits = result["commits"]
    marks = counters["log.commit_mark"] + counters["wal.commit_mark"]
    result["group_size"] = group_size
    result["fences_per_txn"] = (
        counters["pm.fence"] / commits if commits else 0.0
    )
    result["marks_per_txn"] = marks / commits if commits else 0.0
    result["flushes_per_txn"] = (
        counters["pm.flush"] / commits if commits else 0.0
    )
    return result


#: (seed, group size) of the 8-client cells on 512-byte pages and a
#: 40-key space whose epochs overlay one page with headers of differing
#: lengths — the cells that corrupted a cell under an earlier member's
#: longer header before ``EpochPipeline.header_extents`` floored
#: allocation at it: the first four under the schedules of splits that
#: stored before locking the parent, the last four under today's.  Run
#: by ``bench_multiclient.py --group-grid``.
SMALL_PAGE_EPOCH_CELLS = (
    (19, 8), (4, 8), (21, 8), (11, 4),
    (13, 4), (7, 8), (34, 8), (36, 8),
)


def run_small_page_epoch_cell(scheme, *, group_size, seed, **kwargs):
    """One of :data:`SMALL_PAGE_EPOCH_CELLS`: 8 clients × 25 items over
    40 keys on a 64-page arena of 512-byte pages, no preload."""
    config = SystemConfig(
        group_commit_size=group_size, npages=64, page_size=512,
        log_bytes=32768, heap_bytes=1 << 20, dram_bytes=64 * 512,
    )
    return run_multi_client(
        scheme, clients=8, items=25, key_space=40, preload=0, seed=seed,
        config=config, **kwargs,
    )


def sweep_group_commit(scheme, *, group_sizes=(0, 2, 4), counts=(2, 8),
                       **kwargs):
    """Per-txn durability cost over group size x client count.

    ``group_sizes`` must start with 0 (or whatever row should serve as
    the baseline): within each client count, every row gains
    ``fence_reduction_vs_ungrouped`` relative to the first size swept.
    """
    rows = []
    for count in counts:
        base = None
        for size in group_sizes:
            row = run_group_commit(
                scheme, group_size=size, clients=count, **kwargs,
            )
            if base is None:
                base = row["fences_per_txn"]
            row["fence_reduction_vs_ungrouped"] = (
                base / row["fences_per_txn"] if row["fences_per_txn"]
                else 0.0
            )
            rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Tiered DRAM page cache: hit ratio x PM read latency
# ----------------------------------------------------------------------

#: Cache counters reported by the tier sweep (marginal deltas over the
#: scheduled window, like everything else in the run report).
_CACHE_COUNTERS = (
    "cache.hit", "cache.miss", "cache.fill", "cache.evict",
    "cache.invalidate",
)


def run_cache_cell(scheme, *, cache_pages=64, clients=8, items=40,
                   key_space=400, read_ns=300.0, write_ns=300.0,
                   cache_lines=64, seed=7, record_size=48, preload=None,
                   **kwargs):
    """One read-mostly run with the tiered DRAM page cache in front of
    the PM arena: 1 locked writer + ``clients - 1`` MVCC snapshot
    readers — the read-hot regime the cache targets.  Snapshot reads
    resolve live pages through DRAM frames charged at ``dram_ns``,
    while the read working set (the whole preloaded tree — ``preload``
    defaults to ``key_space``) far exceeds the small simulated CPU
    cache (``cache_lines``), so uncached reads keep paying ``read_ns``
    per line while cached frames converge to CPU-cache-hit cost.

    ``cache_pages=0`` is the cache-off baseline on the *same* workload
    bytes.  The report gains the knob values, the ``cache.*`` counters,
    and the derived ``cache_hit_ratio`` = hit / (hit + miss).
    """
    from dataclasses import replace

    config = build_config(
        scheme, read_ns=read_ns, write_ns=write_ns,
        ops=max(512, clients * items * 3), record_size=record_size,
        cache_lines=cache_lines,
    )
    if cache_pages:
        config = replace(config, dram_cache_pages=cache_pages)
    result = run_multi_client(
        scheme, clients=1, readers=clients - 1, mvcc=True, items=items,
        key_space=key_space, seed=seed, record_size=record_size,
        preload=key_space if preload is None else preload,
        config=config, extra_counters=_CACHE_COUNTERS + tuple(kwargs.pop("extra_counters", ())),
        **kwargs,
    )
    counters = result["counters"]
    hits = counters["cache.hit"]
    misses = counters["cache.miss"]
    result["cache_pages"] = cache_pages
    result["read_ns"] = read_ns
    result["cache_lines"] = cache_lines
    result["cache_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0
    )
    return result


def sweep_cache(scheme, *, cache_sizes=(0, 8, 64),
                read_lats=(300.0, 600.0, 1200.0), **kwargs):
    """Cache capacity x PM read latency grid over the read-mostly cell.

    Within each latency, every row gains ``speedup_vs_uncached``
    relative to the cache-off row at that latency — the Fig 15 axis:
    how the DRAM tier's win scales with the hit ratio it achieves and
    the PM read latency each hit hides.
    """
    rows = []
    for read_ns in read_lats:
        base = None
        for cache_pages in cache_sizes:
            row = run_cache_cell(
                scheme, cache_pages=cache_pages, read_ns=read_ns,
                **kwargs,
            )
            if base is None:
                base = row["throughput_tps"]
            row["speedup_vs_uncached"] = (
                row["throughput_tps"] / base if base else 0.0
            )
            rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Sharded scaling: disjoint workloads over N independent pagestores
# ----------------------------------------------------------------------

#: Key pools per workload — the lcm of the swept shard counts (1, 2, 4),
#: so each pool maps to exactly one shard at *every* swept count.
_POOL_COUNT = 4


def _pool_keys(pool, count):
    """The first ``count`` keys of key pool ``pool``.

    Keys are pool-*prefixed* (``s<pool>k...``), so the pools occupy
    lexically disjoint ranges and never share tree pages within a
    shard, and pool-*hashed* (only candidates with ``crc32 % 4 ==
    pool`` are kept — the same hash the router shards by), so all of
    pool ``p``'s keys land on shard ``p % shards`` at every swept shard
    count (1, 2, 4 all divide 4).  The workload bytes stay identical
    across a shard sweep; only the placement changes.
    """
    keys = []
    i = 0
    while len(keys) < count:
        key = b"s%dk%05d" % (pool, i)
        if crc32(key) % _POOL_COUNT == pool:
            keys.append(key)
        i += 1
    return keys


def shard_pool_keys(key_space):
    """``_POOL_COUNT`` disjoint key pools of ``key_space`` keys each."""
    return [_pool_keys(pool, key_space) for pool in range(_POOL_COUNT)]


def sharded_client_workload(client_index, *, items=50, read_ratio=0.5,
                            key_space=50, seed=7, record_size=48,
                            cross_ratio=0.0):
    """Workload for one client of a sharded run: the client's home key
    pool is ``client_index % 4``, so at ``clients >= shards`` every
    shard stays busy and (with ``cross_ratio=0``) no transaction ever
    crosses shards — the near-linear-scaling regime.  Clients sharing a
    pool work disjoint ``key_space``-sized slices of it, so the sweep
    measures placement, not lock luck.

    ``cross_ratio`` is the probability a write item instead becomes a
    two-pool transaction (home pool + the next pool over, which lives
    on a *different* shard at every swept shard count > 1) — the 2PC
    regime.
    """
    slice_index = client_index // _POOL_COUNT
    lo = slice_index * key_space
    home = _pool_keys(client_index % _POOL_COUNT, lo + key_space)[lo:]
    away = _pool_keys((client_index + 1) % _POOL_COUNT, lo + key_space)[lo:]
    rng = random.Random(seed * 1000 + client_index)
    payload = bytes(
        (client_index * 31 + i) % 256 for i in range(record_size)
    )
    workload = []
    for item_no in range(items):
        key = home[rng.randrange(key_space)]
        if rng.random() < read_ratio:
            workload.append(("search", key, None))
            continue
        if rng.random() < cross_ratio:
            workload.append(("txn", [
                ("insert", key, payload),
                ("insert", away[rng.randrange(key_space)], payload),
            ]))
            continue
        ops = [("insert", key, payload)]
        for _ in range(rng.randrange(3)):
            extra = home[rng.randrange(key_space)]
            if rng.random() < 0.25:
                ops.append(("delete", extra, None))
            else:
                ops.append(("insert", extra, payload))
        workload.append(("txn", ops))
    return workload


def run_sharded_multi_client(scheme, *, shards=1, clients=8, items=50,
                             read_ratio=0.5, key_space=50, seed=7,
                             read_ns=300.0, write_ns=300.0, record_size=48,
                             preload=16, cross_ratio=0.0, config=None):
    """One sharded contention run: N clients over a ``shards``-way
    :class:`~repro.storage.sharding.ShardRouter`.

    The cooperative scheduler serializes host execution, so the raw
    ``elapsed_ns`` never shrinks with more shards.  What sharding buys
    is *independence*: disjoint-shard work could run on parallel
    hardware.  The run therefore attributes every simulated step's
    clock advance to the stepped client's home shard (``busy_ns``) and
    models parallel wall time as the *busiest single shard* —
    ``throughput_tps`` is commits over that modeled span, while
    ``serial_throughput_tps`` keeps the unmodeled single-thread figure
    (identical to ``throughput_tps`` at one shard).  Cross-shard items
    (``cross_ratio > 0``) are attributed to the home shard, consistent
    with the coordinator running there.
    """
    from repro.storage.sharding import ShardRouter

    config = config or build_config(
        scheme, read_ns=read_ns, write_ns=write_ns,
        ops=max(512, clients * items * 3), record_size=record_size,
    )
    router = ShardRouter.create(config, shards, scheme=scheme)
    payload = bytes(record_size)
    for pool in shard_pool_keys(key_space):
        for key in pool[:preload]:
            router.insert(key, payload, replace=True)

    home = [(index % _POOL_COUNT) % shards for index in range(clients)]
    busy = [0.0] * shards
    clock = router.clock
    last = [0.0]

    def on_step(client):
        now = clock.now_ns
        busy[home[client.index]] += now - last[0]
        last[0] = now

    scheduler = Scheduler(router, on_step=on_step)
    for index in range(clients):
        scheduler.add_client(
            sharded_client_workload(
                index, items=items, read_ratio=read_ratio,
                key_space=key_space, seed=seed, record_size=record_size,
                cross_ratio=cross_ratio,
            )
        )
    snapshot = router.obs.snapshot()
    last[0] = clock.now_ns
    report = scheduler.run()
    delta = router.obs.since(snapshot)
    counters = delta["registry"]["counters"]
    parallel_ns = max(busy) if max(busy) > 0 else report["elapsed_ns"]
    return {
        "scheme": scheme,
        "shards": shards,
        "clients": clients,
        "items_per_client": items,
        "read_ratio": read_ratio,
        "cross_ratio": cross_ratio,
        "seed": seed,
        "commits": report["commits"],
        "aborts": report["aborts"],
        "deadlocks": report["deadlocks"],
        "timeouts": report["timeouts"],
        "retries": report["retries"],
        "steps": report["steps"],
        "elapsed_ns": report["elapsed_ns"],
        "busy_ns": busy,
        "parallel_elapsed_ns": parallel_ns,
        "throughput_tps": (
            report["commits"] / parallel_ns * 1e9 if parallel_ns else 0.0
        ),
        "serial_throughput_tps": report["throughput_tps"],
        "records": router.verify(),
        "counters": {
            name: counters.get(name, 0)
            for name in _COUNTERS + (
                "twopc.prepare", "twopc.decision", "twopc.commit",
            )
        },
        "per_client": report["per_client"],
    }


def sweep_shards(scheme, *, shard_counts=(1, 2, 4), **kwargs):
    """Modeled-parallel throughput vs. shard count on the *same*
    workload bytes (see :func:`shard_pool_keys`).  Each row gains
    ``speedup_vs_one_shard`` relative to the first count swept."""
    runs = [
        run_sharded_multi_client(scheme, shards=count, **kwargs)
        for count in shard_counts
    ]
    base = runs[0]["throughput_tps"]
    for run in runs:
        run["speedup_vs_one_shard"] = (
            run["throughput_tps"] / base if base else 0.0
        )
    return runs
