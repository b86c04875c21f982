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

The contention grid ``BENCH_multiclient.json`` pins is declared once,
here: :func:`grid_cells` lists each section's cells as
``run_multi_client`` keyword arguments, :func:`run_section` runs and
summarizes one section and :func:`run_grid` all of them.  Figures
13-15 render that file's rows.
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


# ----------------------------------------------------------------------
# Group-commit correctness cells (``bench_multiclient.py --group-grid``)
# ----------------------------------------------------------------------


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


# ----------------------------------------------------------------------
# The contention grid: every cell ``BENCH_multiclient.json`` pins
# ----------------------------------------------------------------------

SCHEMES = ("fast", "fastplus", "nvwal")
#: The PM-resident schemes: the only ones that shard, group commit,
#: serve MVCC / OCC sessions or front PM with the DRAM page cache.
#: NVWAL is the paper's single-writer baseline (plain and strict-2PL
#: transactions only) and already fronts PM with its own volatile
#: buffer cache.
PM_SCHEMES = ("fast", "fastplus")
ITEMS = 25
SEED = 7
CLIENT_COUNTS = (1, 2, 4, 8)
READ_RATIOS = (0.0, 0.5, 0.9)
#: Read-mostly MVCC cells (fig13): 1 writer + N-1 pure readers over a
#: hot key space, run twice — readers as locked sessions, then as
#: lock-free MVCC snapshots (identical workloads; the delta is locking
#: cost).
MVCC_CLIENT_COUNTS = (2, 4, 8)
MVCC_KEY_SPACE = 100
#: OCC sweep (fig14 at 8 clients): locked-vs-optimistic twins on the
#: same workload bytes over client count x conflict mix ``(name,
#: read_ratio, key_space)``.  Conflict probability rises as the write
#: share grows and the hot key space shrinks; ``hot_writes`` is
#: deliberately hostile so the sweep shows the validation-abort + 2PL
#: fallback regime, not just the win.
OCC_CLIENTS = (2, 8)
OCC_MIXES = (
    ("read_mostly", 0.9, 100),
    ("low_conflict_writes", 0.5, 400),
    ("hot_writes", 0.2, 20),
)
#: Group-commit sweep: per-txn durability cost (fences / commit marks /
#: flushes) over client count x group size, size 0 = grouping off.
GROUP_CLIENTS = (2, 8)
GROUP_SIZES = (0, 2, 4)
#: Cache sweep (fig15): PM read latency x DRAM page cache capacity over
#: 1 locked writer + 7 MVCC snapshot readers, the read-hot regime the
#: cache targets; 0 pages = cache off.  The whole 400-key tree is
#: preloaded and read, far beyond the 64-line simulated CPU cache, so
#: uncached reads keep paying ``read_ns`` per line.  Longer per-client
#: runs than the contention grid: read-hot caching needs enough reads
#: per invalidation to amortize its fills.
CACHE_READ_LATS = (300.0, 900.0, 1200.0)
CACHE_SIZES = (0, 8, 64)
CACHE_ITEMS = 40
CACHE_KEY_SPACE = 400
#: Shard sweep: 8 clients on disjoint per-shard key pools (50 keys a
#: pool, 16 preloaded) over 1/2/4 independent pagestores.
SHARD_COUNTS = (1, 2, 4)
SHARD_CELL = dict(clients=8, items=ITEMS, seed=SEED, key_space=50,
                  preload=16)


def grid_cells(section, scheme):
    """``section``'s cells for ``scheme`` in row order, each ``(labels,
    kwargs)``: the ``run_multi_client`` keyword arguments of one run and
    the row fields its report does not carry."""
    cell = dict(items=ITEMS, seed=SEED)
    if section == "client_sweep":
        cells = [dict(cell, clients=count) for count in CLIENT_COUNTS]
    elif section == "mix_sweep":
        cells = [dict(cell, clients=4, read_ratio=ratio)
                 for ratio in READ_RATIOS]
    elif section == "mvcc_sweep":
        cells = [dict(cell, clients=1, readers=count - 1,
                      key_space=MVCC_KEY_SPACE, mvcc=mvcc)
                 for count in MVCC_CLIENT_COUNTS for mvcc in (False, True)]
    elif section == "group_sweep":
        cells = [dict(cell, clients=count, config=cell_config(
                     scheme, clients=count, items=ITEMS,
                     group_commit_size=size))
                 for count in GROUP_CLIENTS for size in GROUP_SIZES]
    elif section == "occ_sweep":
        return [({"mix": mix}, dict(cell, clients=count,
                                    read_ratio=read_ratio,
                                    key_space=key_space,
                                    isolation=isolation))
                for mix, read_ratio, key_space in OCC_MIXES
                for count in OCC_CLIENTS
                for isolation in ("locked", "occ")]
    elif section == "cache_sweep":
        cells = [dict(cell, items=CACHE_ITEMS, clients=1, readers=7,
                      mvcc=True, key_space=CACHE_KEY_SPACE,
                      preload=CACHE_KEY_SPACE, read_ns=read_ns,
                      config=cell_config(
                          scheme, clients=8, items=CACHE_ITEMS,
                          read_ns=read_ns, cache_lines=64,
                          dram_cache_pages=pages))
                 for read_ns in CACHE_READ_LATS for pages in CACHE_SIZES]
    elif section == "shard_sweep":
        cells = [dict(SHARD_CELL, shards=count) for count in SHARD_COUNTS]
    else:
        raise KeyError(section)
    return [({}, kwargs) for kwargs in cells]


def ratio_to_first(runs, name, field, group=None, inverse=False):
    """Give each run ``name``: its ``field`` over that of the first run
    with the same ``group`` field (all runs, without ``group``), or the
    first's over its own with ``inverse``; 0.0 over a zero."""
    firsts = {}
    for run in runs:
        first = firsts.setdefault(run[group] if group else None, run[field])
        num, den = (first, run[field]) if inverse else (run[field], first)
        run[name] = num / den if den else 0.0


#: Each section's ratio to the first row of its group, as
#: :func:`ratio_to_first` arguments: fences against the ungrouped row at
#: each client count, throughput against the cache-off row at each PM
#: read latency and against the one-shard row.
RATIOS = {
    "group_sweep": ("fence_reduction_vs_ungrouped", "fences_per_txn",
                    "clients", True),
    "cache_sweep": ("speedup_vs_uncached", "throughput_tps", "read_ns"),
    "shard_sweep": ("speedup_vs_one_shard", "throughput_tps"),
}
#: Report fields rounded to 3 places in a committed row.
ROUNDED = frozenset({
    "throughput_tps", "fences_per_txn", "marks_per_txn", "flushes_per_txn",
    "fence_reduction_vs_ungrouped", "lock_acquires_per_commit",
    "occ_abort_rate", "cache_hit_ratio", "speedup_vs_uncached", "busy_ns",
    "parallel_elapsed_ns", "serial_throughput_tps", "speedup_vs_one_shard",
})
#: The committed row of each section: report fields, and
#: ``row_name=counter`` entries for a counter of the run's delta.
#: ``clients`` counts every client, writers and readers.
CONTENTION = (
    "clients", "read_ratio", "commits", "aborts", "deadlocks", "timeouts",
    "retries", "steps", "simulated_ns", "elapsed_ns", "throughput_tps",
    "records", "lock_acquires=lock.acquire", "lock_conflicts=lock.conflict",
)
SHARDED = (
    "shards", "clients", "commits", "aborts", "retries", "steps",
    "elapsed_ns", "busy_ns", "parallel_elapsed_ns", "throughput_tps",
    "serial_throughput_tps", "records", "twopc_commits=twopc.commit",
)
FIELDS = {
    "client_sweep": CONTENTION,
    "mix_sweep": CONTENTION,
    "mvcc_sweep": CONTENTION + ("mvcc", "snapshot_reads=mvcc.snapshot_reads"),
    "group_sweep": CONTENTION + (
        "group_size", "fences_per_txn", "marks_per_txn", "flushes_per_txn",
        "group_closes=group.close", "fence_reduction_vs_ungrouped",
    ),
    "occ_sweep": CONTENTION + (
        "isolation", "mix", "lock_acquires_per_commit",
        "occ_commits=occ.commit", "occ_abort_rate", "occ_fallbacks",
    ),
    "cache_sweep": CONTENTION + (
        "cache_pages", "read_ns", "cache_hit_ratio", "cache_hits=cache.hit",
        "cache_misses=cache.miss", "cache_evicts=cache.evict",
        "cache_invalidates=cache.invalidate", "speedup_vs_uncached",
    ),
    "shard_sweep": SHARDED + ("speedup_vs_one_shard",),
}


def summarize(result, fields):
    """The comparable (and committed) slice of one run's report."""
    summary = {}
    for field in fields:
        name, _, counter = field.partition("=")
        if counter:
            value = result["counters"].get(counter, 0)
        elif name == "clients":
            value = result["clients"] + result["readers"]
        elif name not in ROUNDED:
            value = result[name]
        elif isinstance(result[name], list):
            value = [round(v, 3) for v in result[name]]
        else:
            value = round(result[name], 3)
        summary[name] = value
    return summary


def run_section(section):
    """``{scheme: [committed row, ...]}`` of one grid section."""
    rows = {}
    for scheme in (SCHEMES if section in ("client_sweep", "mix_sweep")
                   else PM_SCHEMES):
        runs = []
        for labels, kwargs in grid_cells(section, scheme):
            runs.append(run_multi_client(scheme, **kwargs))
            runs[-1].update(labels)
        if section in RATIOS:
            ratio_to_first(runs, *RATIOS[section])
        rows[scheme] = [summarize(run, FIELDS[section]) for run in runs]
    return rows


def run_grid():
    """Every section of the grid, as ``BENCH_multiclient.json`` holds
    it."""
    grid = {section: run_section(section) for section in FIELDS}
    grid["workload"] = {"items_per_client": ITEMS, "seed": SEED}
    return grid
