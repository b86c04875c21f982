"""Multi-client benchmark driver: contention throughput experiments.

Drives N simulated clients through the deterministic cooperative
scheduler (:mod:`repro.core.scheduler`) against one shared engine, or
with ``shards > 0`` against a :class:`~repro.storage.sharding.ShardRouter`,
and reports committed-transaction throughput in *simulated* time
together with every registry counter the scheduled window moved.  This
is the Fig 12-style surface under contention that the single-session
harness could not produce: sweep the client count, the read/write mix,
the writer protocol, the epoch size, the DRAM tier or the shard count
and watch conflicts shape throughput.

Everything is deterministic: workloads come from per-client seeded
PRNGs, the scheduler interleaves by simulated time only, and repeated
runs produce byte-identical reports (the CI determinism job diffs two
invocations).

Measuring and checking are apart: a cell's config
(:func:`cell_config`), workloads and preload (:func:`cell_workloads`)
run as well under the crash driver,
``crash_at(ScheduledRun(scheme, workloads, preload=rows), None,
config=config)``, which checks the committed-prefix model
(``bench_multiclient.py --group-grid``).
"""

import random
from dataclasses import replace
from functools import partial
from zlib import crc32

from repro.bench.harness import build_config
from repro.core import SystemConfig, open_engine
from repro.core.scheduler import Scheduler

#: Key pools of a sharded cell — the lcm of the swept shard counts
#: (1, 2, 4), so each pool maps to exactly one shard at *every* swept
#: count.
_POOL_COUNT = 4


def _items(rng, items, read_ratio, pick, payload, away=None,
           cross_ratio=0.0):
    """``items`` transaction items drawn from ``rng``: a single-op
    search with probability ``read_ratio``, else a write transaction of
    1-3 operations over ``pick()``'d keys, so transactions genuinely
    overlap under the scheduler.  With ``away`` (a sharded client) every
    write item first draws the cross-shard coin: with probability
    ``cross_ratio`` it becomes a two-key transaction, home key plus an
    ``away()`` key."""
    workload = []
    for _ in range(items):
        key = pick()
        if rng.random() < read_ratio:
            workload.append(("search", key, None))
            continue
        if away is not None and rng.random() < cross_ratio:
            workload.append(("txn", [
                ("insert", key, payload), ("insert", away(), payload),
            ]))
            continue
        ops = [("insert", key, payload)]
        for _ in range(rng.randrange(3)):
            extra = pick()
            if rng.random() < 0.25:
                ops.append(("delete", extra, None))
            else:
                ops.append(("insert", extra, payload))
        workload.append(("txn", ops))
    return workload


def _payload(client_index, record_size):
    return bytes((client_index * 31 + i) % 256 for i in range(record_size))


def client_workload(client_index, *, items=50, read_ratio=0.5,
                    key_space=200, seed=7, record_size=48):
    """Deterministic workload for one client: ``items`` transaction
    items mixing reads and writes over a shared hot key space;
    ``read_ratio`` is the probability that an item is a read."""
    rng = random.Random(seed * 1000 + client_index)
    return _items(
        rng, items, read_ratio,
        lambda: b"mk%05d" % rng.randrange(key_space),
        _payload(client_index, record_size),
    )


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
    lo = (client_index // _POOL_COUNT) * key_space
    home = _pool_keys(client_index % _POOL_COUNT, lo + key_space)[lo:]
    away = _pool_keys((client_index + 1) % _POOL_COUNT, lo + key_space)[lo:]
    rng = random.Random(seed * 1000 + client_index)
    return _items(
        rng, items, read_ratio,
        lambda: home[rng.randrange(key_space)],
        _payload(client_index, record_size),
        away=lambda: away[rng.randrange(key_space)],
        cross_ratio=cross_ratio,
    )


def cell_config(scheme, *, clients=4, items=50, read_ns=300.0,
                write_ns=300.0, record_size=48, **fields):
    """The ``SystemConfig`` a cell of ``clients`` x ``items`` runs on:
    ``build_config`` sized for the cell, then ``fields`` set on it."""
    config = build_config(
        scheme, read_ns=read_ns, write_ns=write_ns,
        ops=max(512, clients * items * 3), record_size=record_size,
    )
    return replace(config, **fields) if fields else config


def cell_workloads(*, clients=4, items=50, read_ratio=0.5, key_space=200,
                   seed=7, record_size=48, preload=64, readers=0,
                   mvcc=False, isolation="locked", shards=0,
                   cross_ratio=0.0):
    """``(workloads, preload rows)`` of one cell: a client spec per
    client as :class:`~repro.testing.crashsim.ScheduledRun` takes them
    (the ``clients`` mixed clients under ``isolation``, then
    ``readers`` pure readers, locked or, with ``mvcc``, MVCC snapshot
    sessions), and the ``(key, value)`` rows loaded before the measured
    window so reads hit and writes update shared pages.  With
    ``shards`` the mixed clients draw from per-pool key slices and the
    first ``preload`` keys of every pool are loaded."""
    if shards:
        make = partial(sharded_client_workload, cross_ratio=cross_ratio)
        keys = [key for pool in shard_pool_keys(key_space)
                for key in pool[:preload]]
    else:
        make = client_workload
        keys = [b"mk%05d" % (i * key_space // max(1, preload))
                for i in range(preload)]
    workloads = [
        {"items": make(index, items=items, read_ratio=read_ratio,
                       key_space=key_space, seed=seed,
                       record_size=record_size),
         "isolation": isolation}
        for index in range(clients)
    ]
    workloads += [
        {"items": client_workload(
            index, items=items, read_ratio=1.0, key_space=key_space,
            seed=seed, record_size=record_size,
        ), "isolation": "read_only" if mvcc else "locked"}
        for index in range(clients, clients + readers)
    ]
    return workloads, [(key, bytes(record_size)) for key in keys]


def _per(count, total):
    return count / total if total else 0.0


def run_multi_client(scheme, *, clients=4, items=50, read_ratio=0.5,
                     key_space=200, seed=7, read_ns=300.0, write_ns=300.0,
                     record_size=48, preload=64, config=None, readers=0,
                     mvcc=False, isolation="locked", shards=0,
                     cross_ratio=0.0):
    """One contention run: N clients, shared engine, full report.

    ``readers`` appends that many pure-read clients after the
    ``clients`` mixed clients: locked sessions (S-lock traffic,
    conflicting with writers) or, with ``mvcc=True``, lock-free MVCC
    snapshot sessions — byte-identical workloads either way, so a pair
    of runs isolates the cost of reader locking.  ``isolation`` is the
    mixed clients' writer protocol (``"locked"`` strict 2PL or
    ``"occ"``), again on identical workload bytes.

    The report's ``counters`` is the whole registry counter delta over
    the scheduled window (zero deltas omitted: read with
    ``.get(name, 0)``), and the per-commit figures derive from it.

    With ``shards > 0`` the clients run over a ``shards``-way router.
    The cooperative scheduler serializes host execution, so the raw
    ``elapsed_ns`` never shrinks with more shards; what sharding buys
    is *independence*.  The run therefore charges every step's clock
    advance to the stepped client's home shard (``busy_ns``) and models
    parallel wall time as the *busiest single shard*:
    ``throughput_tps`` is commits over that span, while
    ``serial_throughput_tps`` keeps the single-thread figure.
    Cross-shard items are charged to the home shard, consistent with
    the coordinator running there.
    """
    config = config or cell_config(
        scheme, clients=clients + readers, items=items, read_ns=read_ns,
        write_ns=write_ns, record_size=record_size,
    )
    workloads, rows = cell_workloads(
        clients=clients, items=items, read_ratio=read_ratio,
        key_space=key_space, seed=seed, record_size=record_size,
        preload=preload, readers=readers, mvcc=mvcc, isolation=isolation,
        shards=shards, cross_ratio=cross_ratio,
    )
    on_step = None
    if shards:
        from repro.storage.sharding import ShardRouter

        engine = ShardRouter.create(config, shards, scheme=scheme)
        home = [index % _POOL_COUNT % shards
                for index in range(len(workloads))]
        busy = [0.0] * shards
        clock = engine.clock
        last = [0.0]

        def on_step(client):
            now = clock.now_ns
            busy[home[client.index]] += now - last[0]
            last[0] = now
    else:
        engine = open_engine(config, scheme=scheme)
    for key, value in rows:
        engine.insert(key, value, replace=True)
    scheduler = Scheduler(engine, on_step=on_step)
    for workload in workloads:
        scheduler.add_client(workload["items"],
                             isolation=workload["isolation"])
    snapshot = engine.obs.snapshot()
    if shards:
        last[0] = clock.now_ns
    report = scheduler.run()
    counters = engine.obs.since(snapshot)["registry"]["counters"]
    commits = report["commits"]
    validations = counters.get("occ.validation", 0)
    hits = counters.get("cache.hit", 0)
    result = {
        "scheme": scheme,
        "shards": shards,
        "clients": clients,
        "readers": readers,
        "mvcc": mvcc,
        "isolation": isolation,
        "items_per_client": items,
        "read_ratio": read_ratio,
        "cross_ratio": cross_ratio,
        "seed": seed,
        "read_ns": read_ns,
        "group_size": config.group_commit_size,
        "cache_pages": config.dram_cache_pages,
        "cache_lines": config.cache_lines,
        "commits": commits,
        "aborts": report["aborts"],
        "deadlocks": report["deadlocks"],
        "timeouts": report["timeouts"],
        "retries": report["retries"],
        "steps": report["steps"],
        "elapsed_ns": report["elapsed_ns"],
        "simulated_ns": report["simulated_ns"],
        "throughput_tps": report["throughput_tps"],
        "records": engine.verify(),
        "counters": counters,
        "fences_per_txn": _per(counters.get("pm.fence", 0), commits),
        "marks_per_txn": _per(
            counters.get("log.commit_mark", 0)
            + counters.get("wal.commit_mark", 0), commits,
        ),
        "flushes_per_txn": _per(counters.get("pm.flush", 0), commits),
        "lock_acquires_per_commit": _per(
            counters.get("lock.acquire", 0), commits,
        ),
        "occ_abort_rate": _per(
            counters.get("occ.validation.abort", 0), validations,
        ),
        "occ_fallbacks": counters.get("occ.fallback", 0),
        "cache_hit_ratio": _per(hits, hits + counters.get("cache.miss", 0)),
        "per_client": report["per_client"],
    }
    if shards:
        parallel_ns = max(busy) if max(busy) > 0 else report["elapsed_ns"]
        result.update(
            busy_ns=busy,
            parallel_elapsed_ns=parallel_ns,
            throughput_tps=_per(commits, parallel_ns) * 1e9,
            serial_throughput_tps=report["throughput_tps"],
        )
    return result


def run_read_mostly(scheme, *, clients=4, mvcc=False, **kwargs):
    """The read-mostly cell: 1 writer + ``clients - 1`` pure readers,
    locked (the baseline: S locks on every page touched, conflicting
    with the writer) or MVCC snapshot sessions."""
    if clients < 2:
        raise ValueError("read-mostly needs at least 1 writer + 1 reader")
    return run_multi_client(
        scheme, clients=1, readers=clients - 1, mvcc=mvcc, **kwargs,
    )


# ----------------------------------------------------------------------
# OCC writer path: lock traffic and abort behavior vs. strict 2PL
# ----------------------------------------------------------------------


def run_isolation_cell(scheme, *, isolation="locked", clients=8,
                       read_ratio=0.9, key_space=100, **kwargs):
    """One contention run under a chosen writer protocol.  Strict 2PL
    pays locks across the whole transaction, OCC only across the
    commit-time write-set install (``lock_acquires_per_commit``), and
    OCC pays for it in validation aborts and 2PL fallbacks
    (``occ_abort_rate``, ``occ_fallbacks``)."""
    return run_multi_client(
        scheme, clients=clients, read_ratio=read_ratio,
        key_space=key_space, isolation=isolation, **kwargs,
    )


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


def run_group_commit(scheme, *, group_size=0, clients=8, items=50,
                     read_ns=300.0, write_ns=300.0, record_size=48,
                     **kwargs):
    """One contention run with epoch-pipelined group commit on;
    ``group_size=0`` is the ungrouped baseline on the *same* workload
    bytes.  The obs snapshot is taken after create + preload and the
    scheduler drains the final epoch before reporting, so
    ``fences_per_txn``, ``marks_per_txn`` and ``flushes_per_txn`` are
    the marginal durability costs of the measured window."""
    config = cell_config(
        scheme, clients=clients, items=items, read_ns=read_ns,
        write_ns=write_ns, record_size=record_size,
        group_commit_size=group_size,
    )
    return run_multi_client(
        scheme, clients=clients, items=items, read_ns=read_ns,
        write_ns=write_ns, record_size=record_size, config=config, **kwargs,
    )


def random_picks(seed):
    """A ``ScheduledRun`` ``pick_strategy_factory``: every execution
    picks uniformly among the READY clients with its own
    ``random.Random(seed)``, so one seed is one schedule — one the
    simulated-time order would not reach."""
    def factory():
        choice = random.Random(seed).choice
        return lambda _scheduler, ready: choice(ready)
    return factory


#: (group size, workload seed, pick seed) of the 8-client, 50-item
#: cells run under :func:`random_picks` schedules.  Pick seed 3 of
#: ``fastplus`` G=4, workload seed 7, rolled back a transaction that
#: had only routed through an overlaid page, and the rollback rebuilt
#: that page's free list under the writer holding it.  Run by
#: ``bench_multiclient.py --group-grid``.
RANDOM_PICK_CELLS = tuple(
    (size, seed, pick)
    for size in (4, 8) for seed in (7, 8) for pick in range(4)
)


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

#: Clients and workload of every :data:`SMALL_PAGE_EPOCH_CELLS` cell.
SMALL_PAGE_EPOCH_CLIENTS = dict(clients=8, items=25, key_space=40, preload=0)


def small_page_epoch_config(group_size):
    """The 64-page arena of 512-byte pages a small-page cell runs on."""
    return SystemConfig(
        group_commit_size=group_size, npages=64, page_size=512,
        log_bytes=32768, heap_bytes=1 << 20, dram_bytes=64 * 512,
    )


def run_small_page_epoch_cell(scheme, *, group_size, seed, **kwargs):
    """One of :data:`SMALL_PAGE_EPOCH_CELLS`: 8 clients × 25 items over
    40 keys on a 64-page arena of 512-byte pages, no preload."""
    return run_multi_client(
        scheme, seed=seed, config=small_page_epoch_config(group_size),
        **SMALL_PAGE_EPOCH_CLIENTS, **kwargs,
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


def run_cache_cell(scheme, *, cache_pages=64, clients=8, items=40,
                   key_space=400, read_ns=300.0, write_ns=300.0,
                   cache_lines=64, record_size=48, preload=None, **kwargs):
    """One read-mostly run with the tiered DRAM page cache in front of
    the PM arena: 1 locked writer + ``clients - 1`` MVCC snapshot
    readers — the read-hot regime the cache targets.  Snapshot reads
    resolve live pages through DRAM frames charged at ``dram_ns``,
    while the read working set (the whole preloaded tree — ``preload``
    defaults to ``key_space``) far exceeds the small simulated CPU
    cache (``cache_lines``), so uncached reads keep paying ``read_ns``
    per line while cached frames converge to CPU-cache-hit cost.

    ``cache_pages=0`` is the cache-off baseline on the *same* workload
    bytes; ``cache_hit_ratio`` is hit / (hit + miss).
    """
    config = cell_config(
        scheme, clients=clients, items=items, read_ns=read_ns,
        write_ns=write_ns, record_size=record_size,
        cache_lines=cache_lines, dram_cache_pages=cache_pages,
    )
    return run_multi_client(
        scheme, clients=1, readers=clients - 1, mvcc=True, items=items,
        key_space=key_space, read_ns=read_ns, write_ns=write_ns,
        record_size=record_size, config=config,
        preload=key_space if preload is None else preload, **kwargs,
    )


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


def sweep_shards(scheme, *, shard_counts=(1, 2, 4), key_space=50,
                 preload=16, **kwargs):
    """Modeled-parallel throughput vs. shard count on the *same*
    workload bytes (see :func:`shard_pool_keys`).  Each row gains
    ``speedup_vs_one_shard`` relative to the first count swept."""
    runs = [
        run_multi_client(scheme, shards=count, key_space=key_space,
                         preload=preload, **kwargs)
        for count in shard_counts
    ]
    base = runs[0]["throughput_tps"]
    for run in runs:
        run["speedup_vs_one_shard"] = (
            run["throughput_tps"] / base if base else 0.0
        )
    return runs
