"""Generators for every figure of the paper's evaluation.

Each generator runs one experiment and returns a dict with ``table``
(paper-style text) and ``data`` (raw series).  ``FIGURES`` names each
one by its ``results/`` stem, and each generator's default size is the
size of its committed table: ``python -m repro.bench all --out
results`` rewrites ``results/`` byte for byte.  The paper uses 100,000
operations per point; ``OPS`` is sized to finish every table in
seconds, and the *shape* of every series is preserved (see
EXPERIMENTS.md).  ``tests/bench/test_paper_claims.py`` checks the
paper's orderings and factors against the committed tables.

Figures 10-12 are reconstructed from the surviving narrative: the
source text of the paper is truncated after Figure 9(b) (see
DESIGN.md), so their exact axes are inferred from Section 5's
description ("query processing throughput experiments, shown in
Figure 11 and Figure 12", "improves query response time by up to
33%").
"""

from repro.bench.harness import build_config, run_single_inserts
from repro.bench.parallel import cell, run_cells
from repro.bench.report import format_table
from repro.wal.legacy import run_legacy_models

SCHEMES = ("nvwal", "fast", "fastplus")

LATENCY_POINTS = ((120, 120), (300, 300), (600, 600), (900, 900), (1200, 1200))
WRITE_LATENCIES = (300, 600, 900, 1200)
RECORD_SIZES = (64, 128, 256, 512, 1024)
TXN_SIZES = (1, 2, 4, 8, 16)
READ_RATIOS = (0.1, 0.5, 0.9)


#: Operations per data point of the committed ``results/`` tables.
OPS = 800


def _seg(result, name):
    return result.segments_us.get(name, 0.0)


# ----------------------------------------------------------------------
# Figure 1 — motivation: write amplification of legacy recovery
# ----------------------------------------------------------------------


def fig1(ops=OPS):
    """Bytes written per committed single-record transaction:
    journaling and WAL on a block device (with file-system journaling)
    vs the PM-native schemes' flushed bytes."""
    rows = []
    data = {}
    fast = run_single_inserts("fast", ops=ops)
    for legacy in run_legacy_models(
        fast.extras["commit_page_counts"], record_bytes=64
    ):
        per_txn = legacy.total_bytes / ops
        rows.append([legacy.scheme + " (block dev)", round(per_txn),
                     round(legacy.amplification, 1)])
        data[legacy.scheme] = per_txn
    for scheme in SCHEMES:
        result = fast if scheme == "fast" else run_single_inserts(scheme, ops=ops)
        per_txn = result.counters["pm.flush_bytes"] / ops
        rows.append([scheme + " (PM)", round(per_txn),
                     round(per_txn / 64, 1)])
        data[scheme] = per_txn
    table = format_table(
        "Figure 1 (motivation): bytes written per single-record txn",
        ["scheme", "bytes/txn", "amplification vs 64B record"],
        rows,
        note="Legacy modes pay page-granularity copies plus file-system "
             "journaling; PM schemes flush only records + metadata.",
    )
    return {"table": table, "data": data}


# ----------------------------------------------------------------------
# Figure 6 — insertion-time breakdown vs PM latency
# ----------------------------------------------------------------------


def fig6(ops=OPS):
    grid = [
        (read_ns, write_ns, scheme)
        for read_ns, write_ns in LATENCY_POINTS
        for scheme in SCHEMES
    ]
    results = run_cells(
        cell("run_single_inserts", scheme=scheme, ops=ops,
             read_ns=read_ns, write_ns=write_ns)
        for read_ns, write_ns, scheme in grid
    )
    rows = []
    data = {}
    for (read_ns, write_ns, scheme), result in zip(grid, results):
        rows.append([
            "%d/%d" % (read_ns, write_ns), scheme,
            _seg(result, "search"), _seg(result, "page_update"),
            _seg(result, "commit"), result.op_us,
        ])
        data[(read_ns, write_ns, scheme)] = result
    table = format_table(
        "Figure 6: B-tree insertion time breakdown (us/insert) vs PM "
        "read/write latency",
        ["latency", "scheme", "Search", "PageUpdate", "Commit", "total"],
        rows,
    )
    return {"table": table, "data": data}


# ----------------------------------------------------------------------
# Figure 7 — Page Update breakdown
# ----------------------------------------------------------------------

_FIG7_SEGMENTS = (
    ("volatile_buffer_caching", "volatile buffer caching"),
    ("in_place_record_insert", "in-place record insert"),
    ("update_slot_header", "update slot header"),
    ("clflush_record", "clflush(record)"),
    ("defrag", "defragment(page)"),
)


def fig7(ops=OPS):
    grid = [
        (read_ns, write_ns, scheme)
        for read_ns, write_ns in LATENCY_POINTS[1:]
        for scheme in SCHEMES
    ]
    results = run_cells(
        cell("run_single_inserts", scheme=scheme, ops=ops,
             read_ns=read_ns, write_ns=write_ns)
        for read_ns, write_ns, scheme in grid
    )
    rows = []
    data = {}
    for (read_ns, write_ns, scheme), result in zip(grid, results):
        rows.append(
            ["%d/%d" % (read_ns, write_ns), scheme]
            + [_seg(result, key) for key, _ in _FIG7_SEGMENTS]
        )
        data[(read_ns, write_ns, scheme)] = result
    table = format_table(
        "Figure 7: Page Update breakdown (us/insert) vs PM latency",
        ["latency", "scheme"] + [label for _, label in _FIG7_SEGMENTS],
        rows,
        note="'update slot header' is the unflushed copy of headers "
             "toward the slot-header log (paper counts it here).",
    )
    return {"table": table, "data": data}


# ----------------------------------------------------------------------
# Figure 8 — Commit-time breakdown vs PM write latency
# ----------------------------------------------------------------------

_FIG8_SEGMENTS = (
    ("nvwal_computation", "NVWAL Computation"),
    ("heap_mgmt", "Heap Mgmt"),
    ("update_slot_header", "SlotHdr write"),
    ("log_flush", "Log Flush"),
    ("atomic_commit", "Atomic Commit"),
    ("checkpoint", "Checkpointing"),
    ("wal_index", "Misc (WAL index)"),
    ("misc", "Misc (pager)"),
)


def fig8(ops=OPS):
    grid = [
        (write_ns, scheme)
        for write_ns in WRITE_LATENCIES
        for scheme in SCHEMES
    ]
    results = run_cells(
        cell("run_single_inserts", scheme=scheme, ops=ops,
             read_ns=300, write_ns=write_ns)
        for write_ns, scheme in grid
    )
    rows = []
    data = {}
    for (write_ns, scheme), result in zip(grid, results):
        rows.append(
            [write_ns, scheme, _seg(result, "commit")]
            + [_seg(result, key) for key, _ in _FIG8_SEGMENTS]
        )
        data[(write_ns, scheme)] = result
    ratios = [
        data[(w, "nvwal")].segments_us.get("commit", 0.0)
        / max(1e-9, data[(w, "fastplus")].segments_us.get("commit", 0.0))
        for w in WRITE_LATENCIES
    ]
    table = format_table(
        "Figure 8: Commit time breakdown (us/insert) vs PM write latency "
        "(read fixed at 300 ns)",
        ["write_ns", "scheme", "Commit total"]
        + [label for _, label in _FIG8_SEGMENTS],
        rows,
        note="NVWAL/FAST+ commit ratio per write latency: "
             + ", ".join("%.1fx" % r for r in ratios)
             + "  (paper: commit/logging overhead reduced to ~1/6).",
    )
    return {"table": table, "data": data, "ratios": ratios}


# ----------------------------------------------------------------------
# Figure 9 — record-size sweep: time and flush counts
# ----------------------------------------------------------------------


def fig9(ops=OPS):
    grid = [
        (size, scheme) for size in RECORD_SIZES for scheme in SCHEMES
    ]
    results = run_cells(
        cell("run_single_inserts", scheme=scheme, ops=ops,
             record_size=size, read_ns=300, write_ns=300)
        for size, scheme in grid
    )
    rows = []
    data = {}
    for (size, scheme), result in zip(grid, results):
        rows.append([
            size, scheme, result.op_us, round(result.per_op("pm.flush"), 2),
        ])
        data[(size, scheme)] = result
    table = format_table(
        "Figure 9: insertion time (a) and clflush count (b) per insert "
        "vs record size (PM 300/300 ns)",
        ["record B", "scheme", "us/insert", "clflush/insert"],
        rows,
    )
    return {"table": table, "data": data}


# ----------------------------------------------------------------------
# Figure 10 (reconstructed) — multi-record transactions
# ----------------------------------------------------------------------


def fig10(ops=OPS):
    grid = [
        (per_txn, scheme) for per_txn in TXN_SIZES for scheme in SCHEMES
    ]
    results = run_cells(
        cell("run_multi_insert", scheme=scheme,
             txns=max(50, ops // per_txn), per_txn=per_txn)
        for per_txn, scheme in grid
    )
    rows = []
    data = {}
    for (per_txn, scheme), result in zip(grid, results):
        rows.append([
            per_txn, scheme, result.op_us,
            _seg(result, "commit"), round(result.per_op("pm.flush"), 2),
        ])
        data[(per_txn, scheme)] = result
    table = format_table(
        "Figure 10 (reconstructed): per-insert cost vs records per "
        "transaction (PM 300/300 ns)",
        ["records/txn", "scheme", "us/insert", "commit us/insert",
         "clflush/insert"],
        rows,
        note="Exercises the slot-header-logging path (FAST+ falls back "
             "to logging for every multi-record transaction).",
    )
    return {"table": table, "data": data}


# ----------------------------------------------------------------------
# Figures 11-12 (reconstructed) — full SQL response time / throughput
# ----------------------------------------------------------------------


def fig11(ops=OPS):
    ops = max(300, ops // 2)
    grid = [
        (kind, scheme)
        for kind in ("insert", "update", "delete", "select")
        for scheme in SCHEMES
    ]
    results = run_cells(
        cell("run_sql_statements", scheme=scheme, ops=ops, kind=kind)
        for kind, scheme in grid
    )
    rows = []
    data = {}
    for (kind, scheme), result in zip(grid, results):
        rows.append([kind, scheme, result.sql_op_us])
        data[(kind, scheme)] = result
    improvements = {}
    for kind in ("insert", "update", "delete"):
        nv = data[(kind, "nvwal")].sql_op_us
        fp = data[(kind, "fastplus")].sql_op_us
        improvements[kind] = 100.0 * (nv - fp) / nv
    table = format_table(
        "Figure 11 (reconstructed): full query response time (us/stmt), "
        "including SQL parsing and execution (PM 300/300 ns)",
        ["statement", "scheme", "us/statement"],
        rows,
        note="FAST+ vs NVWAL response-time improvement: "
             + ", ".join("%s %.0f%%" % (k, v) for k, v in improvements.items())
             + "  (paper headline: up to 33%).",
    )
    return {"table": table, "data": data, "improvements": improvements}


def fig12(ops=OPS):
    ops = max(300, ops // 2)
    grid = [
        (ratio, scheme) for ratio in READ_RATIOS for scheme in SCHEMES
    ]
    results = run_cells(
        cell("run_sql_statements", scheme=scheme, ops=ops,
             kind="mixed", read_ratio=ratio)
        for ratio, scheme in grid
    )
    rows = []
    data = {}
    for (ratio, scheme), result in zip(grid, results):
        kops = 1000.0 / max(1e-9, result.sql_op_us)
        rows.append([int(ratio * 100), scheme, result.sql_op_us, kops])
        data[(ratio, scheme)] = result
    table = format_table(
        "Figure 12 (reconstructed): throughput under mixed workloads "
        "(PM 300/300 ns)",
        ["read %", "scheme", "us/op", "K ops/s (simulated)"],
        rows,
    )
    return {"table": table, "data": data}


# ----------------------------------------------------------------------
# Ablations (design choices DESIGN.md calls out)
# ----------------------------------------------------------------------


def ablation_atomicity():
    """A1: failure-atomic write granularity.  FAST/NVWAL need only
    8-byte atomic writes; FAST+ needs line-atomic writes; naive
    in-place paging is unsafe either way."""
    from repro.core import SystemConfig
    from repro.testing import SMALL_CONFIG, SingleRun, crash_sweep, failing

    workload = [("insert", b"%04d" % i, b"x" * 40) for i in range(18)]
    rows = []
    data = {}
    for scheme, granularity in (
        ("fast", 8), ("nvwal", 8), ("fastplus", 8), ("fastplus", 64),
        ("naive", 8), ("naive", 64),
    ):
        config = SystemConfig(atomic_granularity=granularity, **SMALL_CONFIG)
        failures = failing(crash_sweep(
            SingleRun(scheme, workload), config=config, stride=4,
        ))
        rows.append([scheme, granularity, len(failures),
                     "SAFE" if not failures else "CORRUPTS"])
        data[(scheme, granularity)] = len(failures)
    table = format_table(
        "Ablation A1: crash-sweep outcomes by atomic-write granularity",
        ["scheme", "atomic bytes", "violations", "verdict"],
        rows,
        note="Every memory event of the workload is a crash point "
             "(stride-sampled); a violation is lost durability, torn "
             "atomicity, or structural corruption.",
    )
    return {"table": table, "data": data}


def ablation_checkpoint(ops=OPS):
    """A2: eager (FAST) vs lazy (NVWAL) checkpointing — recovery work
    after a crash at the end of the workload."""
    from repro.core import engine_class, open_engine

    ops = max(400, ops // 2)
    rows = []
    data = {}
    for scheme in ("fast", "fastplus", "nvwal"):
        config = build_config(scheme, ops=ops)
        engine = open_engine(config, scheme=scheme)
        from repro.bench.workloads import random_keys, sized_payload

        payload = sized_payload(64)
        for key in random_keys(ops, seed=5):
            engine.insert(key, payload)
        pm = engine.pm
        wal_frames = (
            sum(len(v) for v in engine.wal.index.values())
            if hasattr(engine, "wal") else 0
        )
        pm.crash()
        clock_before = pm.clock.now_ns
        engine_class(scheme).attach(config, pm)
        recovery_us = (pm.clock.now_ns - clock_before) / 1000.0
        rows.append([scheme, wal_frames, recovery_us])
        data[scheme] = recovery_us
    table = format_table(
        "Ablation A2: eager vs lazy checkpointing — recovery cost",
        ["scheme", "WAL frames pending at crash", "recovery us"],
        rows,
        note="FAST's eager checkpoint keeps the log empty, so recovery "
             "is (almost) free; NVWAL must rebuild its WAL index.",
    )
    return {"table": table, "data": data}


def ablation_rtm(ops=OPS):
    """A3: RTM transient-abort sensitivity of the in-place commit."""
    from repro.bench.workloads import random_keys, sized_payload
    from repro.core import open_engine
    import random as _random

    ops = max(400, ops // 2)
    rows = []
    data = {}
    for abort_prob in (0.0, 0.1, 0.3, 0.5):
        config = build_config("fastplus", ops=ops)
        engine = open_engine(config, scheme="fastplus")
        rng = _random.Random(99)
        if abort_prob:
            engine.rtm.abort_injector = lambda attempt: rng.random() < abort_prob
        payload = sized_payload(64)
        snapshot = engine.clock.snapshot()
        for key in random_keys(ops, seed=5):
            engine.insert(key, payload)
        elapsed_us = engine.clock.since(snapshot)[0] / ops / 1000.0
        rows.append([abort_prob, elapsed_us,
                     engine.registry.value("rtm.abort"),
                     engine.registry.value("rtm.commit")])
        data[abort_prob] = elapsed_us
    table = format_table(
        "Ablation A3: in-place commit under injected RTM aborts",
        ["abort prob", "us/insert", "aborts", "commits"],
        rows,
        note="The retry-until-success fallback (paper footnote 1) "
             "degrades gracefully with the abort rate.",
    )
    return {"table": table, "data": data}


def ablation_defrag(ops=OPS):
    """Section 4.3 claim: defragmentation accounts for a tiny share of
    insertion time even under fragmentation-heavy churn."""
    from repro.bench.workloads import random_keys, sized_payload
    from repro.core import open_engine
    import random as _random

    ops = max(600, ops)
    rows = []
    data = {}
    for scheme in ("fast", "fastplus"):
        for workload in ("fixed-64B", "variable-size", "replace-churn"):
            config = build_config(scheme, ops=ops, record_size=96)
            engine = open_engine(config, scheme=scheme)
            keys = random_keys(ops // 2, seed=5)
            rng = _random.Random(17)
            snapshot = engine.clock.snapshot()
            for key in keys:
                size = 64 if workload == "fixed-64B" else rng.randrange(32, 160)
                engine.insert(key, sized_payload(size, seed=1))
            if workload == "replace-churn":
                for key in keys:  # variable-size replacement updates
                    engine.insert(
                        key, sized_payload(rng.randrange(32, 160), seed=2),
                        replace=True,
                    )
            elapsed, segments = engine.clock.since(snapshot)
            share = 100.0 * segments.get("defrag", 0.0) / elapsed
            rows.append([scheme, workload, elapsed / ops / 1000.0,
                         segments.get("defrag", 0.0) / ops / 1000.0,
                         "%.4f%%" % share])
            data[(scheme, workload)] = share
    table = format_table(
        "Ablation: on-demand defragmentation overhead",
        ["scheme", "workload", "us/op", "defrag us/op", "share of total"],
        rows,
        note="Paper Section 4.3 reports <0.02% for their (insert) "
             "workload; the replace-churn column stresses the "
             "copy-on-write path far beyond it.",
    )
    return {"table": table, "data": data}


def ablation_flush_instruction(ops=OPS):
    """A5: clflush vs clwb.  The paper's Figure 3 shows CLWB; the
    evaluation hardware (Haswell) only had the evicting clflush.  clwb
    keeps the flushed lines cached, so re-reads after commit are hits."""
    import dataclasses

    ops = max(400, ops // 2)
    grid = [
        (scheme, instruction)
        for scheme in ("fast", "fastplus")
        for instruction in ("clflush", "clwb")
    ]
    results = run_cells(
        cell("run_single_inserts", scheme=scheme, ops=ops,
             config=dataclasses.replace(
                 build_config(scheme, ops=ops),
                 flush_instruction=instruction,
             ))
        for scheme, instruction in grid
    )
    rows = []
    data = {}
    for (scheme, instruction), result in zip(grid, results):
        rows.append([
            scheme, instruction, result.op_us,
            round(result.per_op("pm.load_miss"), 2),
        ])
        data[(scheme, instruction)] = result.op_us
    table = format_table(
        "Ablation A5: flush instruction (PM 300/300 ns)",
        ["scheme", "instruction", "us/insert", "read misses/insert"],
        rows,
        note="clwb avoids the post-flush re-read misses that clflush's "
             "eviction causes on the hot slot-header lines.",
    )
    return {"table": table, "data": data}


#: Crash points per recovery-distribution sweep (``crash_sweep`` spreads
#: them evenly over the run).
RECOVERY_CRASH_POINTS = 64


def _crash_recovery_us(scheme, config, items):
    """Simulated recovery time (us) at about ``RECOVERY_CRASH_POINTS``
    crash points spread across ``items``: each point is a fork of one
    execution, crashed, recovered and checked against the committed
    prefix by ``crash_sweep``."""
    from repro.testing.crashsim import SingleRun, crash_sweep, failing

    results = crash_sweep(
        SingleRun(scheme, items), config=config, seeds=(0,),
        max_points=RECOVERY_CRASH_POINTS,
    )
    bad = failing(results)
    assert not bad, (scheme, bad[0][0], bad[0][1].violations)
    return [result.recovery_ns / 1000.0 for _, result in results]


def extension_recovery_scaling(ops=OPS // 2):
    """Extension: recovery time vs database size.

    The paper argues recovery is (near-)trivial — replay the committed
    slot-header frames and go; orphan pages and stale free lists are
    handled lazily.  This bench measures simulated recovery time after
    a crash as the database grows, with and without eager
    recovery-time garbage collection.  At the smallest size it also
    crashes the run at points spread across it and reports the median
    and max recovery time next to the end-of-run sample.
    """
    import dataclasses
    import statistics

    from repro.bench.workloads import random_keys, sized_payload
    from repro.core import engine_class, open_engine

    sizes = (ops // 2, ops, ops * 3)
    rows = []
    data = {}
    for size in sizes:
        for scheme in ("fast", "fastplus", "nvwal"):
            for eager in (True, False):
                config = dataclasses.replace(
                    build_config(scheme, ops=size), eager_recovery_gc=eager
                )
                engine = open_engine(config, scheme=scheme)
                payload = sized_payload(64)
                keys = random_keys(size, seed=5)
                for key in keys:
                    engine.insert(key, payload)
                pm = engine.pm
                pm.crash()
                before = pm.clock.now_ns
                recovered = engine_class(scheme).attach(config, pm)
                recovery_us = (pm.clock.now_ns - before) / 1000.0
                assert recovered.search(random_keys(1, seed=5)[0]) is not None
                row = [size, scheme, "eager" if eager else "lazy",
                       recovery_us, "", ""]
                if size == sizes[0]:
                    samples = _crash_recovery_us(
                        scheme, config,
                        [("insert", key, payload) for key in keys],
                    )
                    row[4:] = [statistics.median(samples), max(samples)]
                rows.append(row)
                data[(size, scheme, eager)] = recovery_us
    table = format_table(
        "Extension: recovery time vs database size (simulated us)",
        ["records", "scheme", "GC", "recovery us", "crash median us",
         "crash max us"],
        rows,
        note="Lazy mode replays only the commit-marked log frames; "
             "eager mode additionally garbage-collects: until a value "
             "first spills (the page store's overflow latch is clear) "
             "it reads the internal pages and one leaf and lists the "
             "other leaves unread, then relinks the free pages below "
             "the highest live page (the rest become one run link), so "
             "it scales with internal pages, not leaves, records or the "
             "arena.  'recovery us' crashes the finished run; the crash "
             "columns crash the smallest run at %d points spread across "
             "it (crash_sweep, one writeback draw per point)."
             % RECOVERY_CRASH_POINTS,
    )
    return {"table": table, "data": data}


def ablation_index_maintenance(ops=OPS):
    """A4: multi-structure transactions.  Each SQL INSERT into a table
    with K secondary indexes dirties K+1 trees, so even "single-record"
    statements become multi-page transactions — the regime the paper
    flags for enterprise systems, where slot-header logging (not the
    in-place commit) carries the load."""
    from repro.db import Database

    ops = max(300, ops // 3)
    rows = []
    data = {}
    for nindexes in (0, 1, 2):
        for scheme in SCHEMES:
            config = build_config(scheme, ops=ops, record_size=96)
            db = Database.open(config, scheme=scheme)
            db.execute(
                "CREATE TABLE t (id INTEGER PRIMARY KEY, a TEXT, b INTEGER)"
            )
            if nindexes >= 1:
                db.execute("CREATE INDEX by_a ON t (a)")
            if nindexes >= 2:
                db.execute("CREATE INDEX by_b ON t (b)")
            engine = db.engine
            snapshot = engine.clock.snapshot()
            inplace_before = getattr(engine, "inplace_commits", 0)
            for i in range(ops):
                db.execute(
                    "INSERT INTO t VALUES (?, ?, ?)",
                    (i, "a%04d" % (i * 37 % 10000), i * 13 % 1000),
                )
            elapsed = engine.clock.since(snapshot)[0] / ops / 1000.0
            inplace = getattr(engine, "inplace_commits", 0) - inplace_before
            rows.append([nindexes, scheme, elapsed,
                         "%d%%" % (100 * inplace // ops)])
            data[(nindexes, scheme)] = elapsed
    table = format_table(
        "Ablation A4: SQL INSERT cost vs number of secondary indexes "
        "(PM 300/300 ns)",
        ["indexes", "scheme", "us/insert", "in-place commits"],
        rows,
        note="With indexes, every statement is a multi-tree transaction: "
             "FAST+ falls back to slot-header logging (in-place share "
             "drops to 0%) yet stays ahead of NVWAL, which logs the "
             "dirty portions of every touched page.",
    )
    return {"table": table, "data": data}


def fig13(rows=None):
    """Extension: multi-client throughput under the deterministic
    scheduler — locked readers vs lock-free MVCC snapshot readers.

    The paper's evaluation is single-client; this is the concurrency
    figure its Section 5 workloads imply: 1 writer + N-1 pure readers
    over a hot key space, run twice with byte-identical workloads.
    Locked readers serialize against the writer through the lock
    manager (S/X conflicts); MVCC readers resolve page versions with
    zero lock traffic, so the conflict column goes to 0 and throughput
    stays ahead at every client count.

    A render of the contention grid's ``mvcc_sweep`` rows (``rows``:
    ``BENCH_multiclient.json``'s section; simulated when not given)."""
    from repro.bench.multiclient import run_section

    rows = rows or run_section("mvcc_sweep")
    table = format_table(
        "Extension: read-mostly throughput vs clients — locked vs MVCC "
        "snapshot readers (1 writer + N-1 readers)",
        ["scheme", "clients", "readers", "ktps", "aborts", "conflicts",
         "conflict rate"],
        [[scheme, row["clients"], "mvcc" if row["mvcc"] else "locked",
          round(row["throughput_tps"] / 1000.0, 1), row["aborts"],
          row["lock_conflicts"], "%.1f%%" % (
              100.0 * row["lock_conflicts"]
              / max(1, row["commits"] + row["aborts"]))]
         for scheme, section in rows.items() for row in section],
        note="Identical workloads per pair; MVCC readers pin a snapshot "
             "timestamp and resolve version chains with zero lock "
             "traffic, so reader-writer conflicts vanish and throughput "
             "leads at every client count.",
    )
    return {"table": table, "data": rows}


def fig14(rows=None):
    """Extension: OCC writer path vs strict 2PL under contention.

    The multi-layer OCC refactor trades whole-transaction lock tenure
    for a commit-time-only lock window plus the risk of validation
    aborts.  This figure runs byte-identical workloads twice per cell
    — once locked, once optimistic — across the conflict spectrum
    (read-mostly, low-conflict writes, a deliberately hot write mix)
    and reports throughput, lock acquires per committed transaction,
    the validation-abort rate, and how many sessions exhausted their
    streak and fell back to 2PL.

    A render of the contention grid's 8-client ``occ_sweep`` rows
    (``rows``: ``BENCH_multiclient.json``'s section; simulated when not
    given)."""
    from repro.bench.multiclient import run_section

    rows = rows or run_section("occ_sweep")
    table = format_table(
        "Extension: OCC vs strict 2PL at 8 clients across conflict "
        "mixes (identical workloads per pair)",
        ["scheme", "mix", "writers", "ktps", "locks/txn", "abort rate",
         "2PL fallbacks"],
        [[scheme, row["mix"], row["isolation"],
          round(row["throughput_tps"] / 1000.0, 1),
          row["lock_acquires_per_commit"],
          "%.1f%%" % (100.0 * row["occ_abort_rate"]), row["occ_fallbacks"]]
         for scheme, section in rows.items() for row in section
         if row["clients"] == 8],
        note="OCC writers read at a pinned snapshot and lock only to "
             "install the validated write set, so locks per committed "
             "txn collapse toward the write-set size on read-mostly "
             "mixes; as conflicts rise, validation aborts and 2PL "
             "fallbacks pay for the optimism.",
    )
    return {"table": table, "data": rows}


def fig15(rows=None):
    """Extension: tiered DRAM page cache in front of the PM arena —
    cache capacity x PM read latency over the read-mostly MVCC cell.

    The paper's design point is PM-as-the-buffer-cache (no DRAM copy
    of any page); this figure quantifies what a hybrid tier buys back.
    1 writer + 7 MVCC snapshot readers run byte-identical workloads at
    every (cache_pages, read_ns) cell; ``cache_pages=0`` is the paper's
    configuration and each latency's speedup baseline.  A fill reads
    only a page's live extents through PM (header + content area, not
    the free-space hole), and the writer's descents hit frames too
    (without ever filling one), so an undersized cache (8 pages, hit
    ratio under 0.8) no longer loses anywhere — it barely breaks even
    at the lowest latency, where the fills its evictions keep
    discarding eat what the hits repay — while a cache that holds the
    read-hot set crosses over and the win grows with the PM read
    latency each DRAM hit hides.

    A render of the contention grid's ``cache_sweep`` rows (``rows``:
    ``BENCH_multiclient.json``'s section; simulated when not given)."""
    from repro.bench.multiclient import run_section

    rows = rows or run_section("cache_sweep")
    table = format_table(
        "Extension: DRAM page cache capacity x PM read latency, "
        "read-mostly MVCC (1 writer + 7 readers; 0 pages = paper's "
        "PM-only design)",
        ["scheme", "pages", "read_ns", "hit ratio", "ktps", "speedup",
         "invals"],
        [[scheme, row["cache_pages"], int(row["read_ns"]),
          row["cache_hit_ratio"],
          round(row["throughput_tps"] / 1000.0, 1),
          "%.2fx" % row["speedup_vs_uncached"], row["cache_invalidates"]]
         for scheme, section in rows.items() for row in section],
        note="Reads served from a coherent DRAM frame cost dram_ns per "
             "line instead of read_ns; every committed install "
             "invalidates its page's frame, so the cache only pays off "
             "once the hit ratio amortizes fills — the crossover "
             "sharpens as PM latency grows.",
    )
    return {"table": table, "data": rows}


FIGURES = {
    "fig01": fig1,
    "fig06": fig6,
    "fig07": fig7,
    "fig08": fig8,
    "fig09": fig9,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "fig13": fig13,
    "fig14": fig14,
    "fig15": fig15,
    "ablation_atomicity": ablation_atomicity,
    "ablation_checkpoint": ablation_checkpoint,
    "ablation_rtm": ablation_rtm,
    "ablation_defrag": ablation_defrag,
    "ablation_index_maintenance": ablation_index_maintenance,
    "ablation_flush": ablation_flush_instruction,
    "extension_recovery": extension_recovery_scaling,
}
