"""The registry schema: every counter/gauge/histogram name in the system.

``MetricsRegistry`` creates instruments on demand, which keeps call
sites free of registration boilerplate — but it also means a typo'd
counter name silently becomes a *new* counter instead of an error.
This module is the closed-world inventory the ``repro.analysis`` lint
pass (rule PM004) checks literal metric names against: a name used
anywhere in ``src/repro`` must be listed here (exactly, or under a
registered prefix), or the lint fails.

Keep this file boring: plain frozensets and tuples, grouped by the
subsystem that owns the names.  When a PR adds a counter, it adds the
name here in the same commit — the schema is documentation that cannot
go stale.
"""

#: Exact counter names, grouped by owning subsystem.
COUNTERS = frozenset({
    # pm/memory.py — the simulated PM arena
    "pm.load", "pm.load_miss", "pm.store", "pm.store_bytes",
    "pm.flush", "pm.flush.clwb", "pm.flush_bytes", "pm.fence",
    # pm/memory.py — the volatile (DRAM) arena
    "dram.load", "dram.load_miss", "dram.store", "dram.store_bytes",
    # storage/slotted_page.py — lazy free-list validation (once per
    # page per attach / DRAM frame load) and the rebuilds it triggered
    "page.freelist.check", "page.freelist.rebuild",
    # htm/rtm.py
    "rtm.begin", "rtm.commit", "rtm.abort", "rtm.abort.capacity",
    "rtm.fallback",
    # wal/slot_header_log.py
    "log.frame", "log.commit_mark", "log.truncate", "log.replay",
    # wal/nvwal.py
    "wal.frame", "wal.commit_mark", "wal.reset", "wal.replay",
    # core/base.py, core/fast.py, core/nvwal.py, core/naive.py
    "engine.txn.begin", "engine.txn.commit", "engine.txn.rollback",
    "engine.session.open", "engine.checkpoint", "engine.recovery",
    "engine.recovery.replayed",
    "engine.commit.inplace", "engine.commit.logged",
    "engine.commit.fallback",
    # core/locking.py
    "lock.acquire", "lock.upgrade", "lock.conflict", "lock.release",
    "lock.check",
    # core/scheduler.py
    "sched.step", "sched.wait", "sched.wake", "sched.abort",
    "sched.abort.deadlock", "sched.abort.timeout",
    "sched.abort.occ",
    "sched.retry", "sched.deadlock", "sched.timeout",
    # core/epoch.py joins/closes (core/fast.py)
    "group.join", "group.close",
    # storage/versions.py — MVCC snapshot reads over version chains
    "mvcc.snapshot_reads", "mvcc.gc_reclaimed",
    # storage/cache.py — tiered DRAM page cache in front of the PM arena
    # (a miss is a lookup that goes on to fill; a bypass is a writer
    # context's lookup that found no frame and read PM instead)
    "cache.hit", "cache.miss", "cache.bypass", "cache.fill", "cache.evict",
    "cache.invalidate", "cache.fill_bytes", "cache.fill_skipped_bytes",
    # core/occ.py + core/session.py — OCC writer path
    "occ.begin", "occ.validation", "occ.validation.abort",
    "occ.install.conflict", "occ.fallback", "occ.commit",
    "occ.lock_hold_ns",
    # wal/twopc.py + storage/sharding.py — cross-shard two-phase commit
    "twopc.prepare", "twopc.decision", "twopc.commit",
    "twopc.resolve.commit", "twopc.resolve.abort",
    # analysis/explore.py — schedule-space exploration (DPOR)
    "explore.schedules", "explore.attempts", "explore.steps",
    "explore.nodes", "explore.states",
    "explore.pruned.sleep", "explore.pruned.state",
    "explore.truncated", "explore.starved",
    "explore.races", "explore.findings", "explore.crash_points",
})

#: Exact gauge names.
GAUGES = frozenset({
    "wal.bytes_used",
    "mvcc.versions_live",
    "explore.max_frontier",
})

#: Name prefixes under which arbitrary suffixes are legal.
#: ``session.`` covers the per-session labeled counters
#: (``session.<name>.commit`` / ``.abort``); ``phase.`` covers the
#: per-segment histograms the clock observer files automatically.
#: ``shard.`` covers the per-shard labeled counters the shard router
#: files (``shard.<index>.commit`` / ``.abort``).
PREFIXES = (
    "session.",
    "phase.",
    "shard.",
)

#: Short names passed to labeled obs handles (``obs.labeled(prefix)``)
#: — the prefix supplies the namespace, so only the suffix appears as
#: a literal at the call site.
LABELED = frozenset({
    "commit", "abort",
})


def is_registered(name):
    """True when ``name`` is a schema-listed metric name.

    Accepts exact counter/gauge names, any name under a registered
    prefix, and the short labeled-counter suffixes.
    """
    if name in COUNTERS or name in GAUGES or name in LABELED:
        return True
    return any(name.startswith(prefix) for prefix in PREFIXES)

