#!/usr/bin/env python
"""Multi-client contention baseline: deterministic concurrency numbers.

Runs the multi-client scheduler bench (``repro.bench.multiclient``)
over a fixed grid — schemes x client counts at a 50/50 read/write mix,
plus a read-ratio sweep at 4 clients, plus read-mostly cells pairing
locked readers against lock-free MVCC snapshot readers — and compares
the results against the committed baseline in
``BENCH_multiclient.json``.

Unlike ``bench_selfperf.py`` (host wall-clock, noisy, checked with a
wide regression factor), everything here is *simulated* and the
scheduler is deterministic, so ``--check`` demands EXACT equality:
same simulated-ns totals, same commit/abort/deadlock/retry counts,
same lock counters.  Any diff means concurrency behavior changed and
the baseline must be consciously regenerated with ``--update``.

On a mismatch ``--check`` prints the moved fields of every differing
row, tagged ``time-only`` or ``schedule`` (``TIME_FIELDS``).

Usage::

    python benchmarks/bench_multiclient.py            # run + compare
    python benchmarks/bench_multiclient.py --check    # exit 1 on any diff
    python benchmarks/bench_multiclient.py --update   # rewrite baseline
"""

import argparse
import itertools
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

try:
    import repro  # noqa: F401
except ImportError:
    sys.path.insert(0, str(ROOT / "src"))

BASELINE_PATH = ROOT / "BENCH_multiclient.json"
SCHEMES = ("fast", "fastplus", "nvwal")
#: The PM-resident schemes: the only ones that shard, group commit,
#: serve MVCC / OCC sessions or front PM with the DRAM page cache.
#: NVWAL is the paper's single-writer baseline (plain and strict-2PL
#: transactions only) and already fronts PM with its own volatile
#: buffer cache.
PM_SCHEMES = ("fast", "fastplus")
CLIENT_COUNTS = (1, 2, 4, 8)
READ_RATIOS = (0.0, 0.5, 0.9)
ITEMS = 25
SEED = 7
#: Read-mostly MVCC cells: 1 writer + N-1 pure readers over a hot key
#: space, run twice — readers as locked sessions, then as lock-free
#: MVCC snapshots (identical workloads; the delta is locking cost).
MVCC_CLIENT_COUNTS = (4, 8)
MVCC_KEY_SPACE = 100
#: Shard sweep: 8 clients on disjoint per-shard key pools over 1/2/4
#: independent pagestores.
SHARD_COUNTS = (1, 2, 4)
SHARD_CLIENTS = 8
#: Group-commit sweep: per-txn durability cost (fences / commit marks /
#: flushes) over group size x client count, size 0 = grouping off.
GROUP_SIZES = (0, 2, 4)
GROUP_CLIENTS = (2, 8)
#: OCC sweep: locked-vs-optimistic twins over client count x conflict
#: mix (mixes come from ``repro.bench.multiclient.OCC_MIXES``).
OCC_CLIENTS = (2, 8)
#: Cache sweep (fig15): tiered DRAM page cache capacity x PM read
#: latency over the read-mostly MVCC cell; 0 pages = cache off (the
#: baseline each latency's speedups are relative to).
CACHE_SIZES = (0, 8, 64)
CACHE_READ_LATS = (300.0, 900.0, 1200.0)
#: Longer per-client runs than the contention grid: read-hot caching
#: needs enough reads per invalidation to amortize its fills, and the
#: fig15 crossover claim (>=2.0x at the slow-PM/high-hit corner) is
#: asserted over these committed rows.
CACHE_ITEMS = 40


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


def _summarize(result, fields):
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


def run_grid():
    from repro.bench.multiclient import (
        run_multi_client, run_read_mostly, sweep_cache,
        sweep_group_commit, sweep_occ, sweep_shards,
    )

    runs = {section: {} for section in FIELDS}
    for scheme in SCHEMES:
        runs["client_sweep"][scheme] = [
            run_multi_client(scheme, clients=count, items=ITEMS, seed=SEED)
            for count in CLIENT_COUNTS
        ]
        runs["mix_sweep"][scheme] = [
            run_multi_client(scheme, clients=4, items=ITEMS,
                             read_ratio=ratio, seed=SEED)
            for ratio in READ_RATIOS
        ]
    for scheme in PM_SCHEMES:
        runs["mvcc_sweep"][scheme] = [
            run_read_mostly(scheme, clients=count, items=ITEMS, seed=SEED,
                            key_space=MVCC_KEY_SPACE, mvcc=mvcc)
            for count in MVCC_CLIENT_COUNTS
            for mvcc in (False, True)
        ]
        runs["group_sweep"][scheme] = sweep_group_commit(
            scheme, group_sizes=GROUP_SIZES, counts=GROUP_CLIENTS,
            items=ITEMS, seed=SEED,
        )
        runs["occ_sweep"][scheme] = sweep_occ(
            scheme, counts=OCC_CLIENTS, items=ITEMS, seed=SEED,
        )
        runs["cache_sweep"][scheme] = sweep_cache(
            scheme, cache_sizes=CACHE_SIZES, read_lats=CACHE_READ_LATS,
            items=CACHE_ITEMS, seed=SEED,
        )
        runs["shard_sweep"][scheme] = sweep_shards(
            scheme, shard_counts=SHARD_COUNTS, clients=SHARD_CLIENTS,
            items=ITEMS, seed=SEED,
        )
    grid = {
        section: {scheme: [_summarize(row, FIELDS[section]) for row in rows]
                  for scheme, rows in schemes.items()}
        for section, schemes in runs.items()
    }
    grid["workload"] = {"items_per_client": ITEMS, "seed": SEED}
    return grid


#: Group-commit correctness grid (``--group-grid``): every cell must end
#: in exactly its committed state.  Scheme x group size x clients x
#: items/client x seed = 108 cells, plus the 16 small-page cells
#: (``SMALL_PAGE_EPOCH_CELLS`` on both schemes) and the 32 seeded
#: random-pick cells (``RANDOM_PICK_CELLS`` on both schemes): 156.
GRID_GROUP_SIZES = (2, 4, 8)
GRID_CLIENTS = (2, 8)
GRID_ITEMS = (25, 50, 100)
GRID_SEEDS = (7, 8, 9)


def run_group_grid():
    """Run every cell through the crash driver to completion
    (``crash_at(shape, None)``: ``verify()`` + scan == the dict model
    replaying the commit order, live and after ``DropAll`` + attach)
    with the per-step page invariant checker armed.  Returns the cell
    count and the failing cells."""
    from repro.bench.multiclient import (
        RANDOM_PICK_CELLS, SMALL_PAGE_EPOCH_CELLS, SMALL_PAGE_EPOCH_CLIENTS,
        cell_config, cell_workloads, random_picks, small_page_epoch_config,
    )
    from repro.testing.crashsim import ScheduledRun, crash_at
    from repro.testing.invariants import PageInvariantChecker

    cells = [
        ("%s G=%d clients=%d items=%d seed=%d"
         % (scheme, size, clients, items, seed), scheme,
         cell_config(scheme, clients=clients, items=items,
                     group_commit_size=size),
         dict(clients=clients, items=items, seed=seed), None)
        for scheme, size, clients, items, seed in itertools.product(
            PM_SCHEMES, GRID_GROUP_SIZES, GRID_CLIENTS, GRID_ITEMS,
            GRID_SEEDS,
        )
    ]
    cells += [
        ("%s G=%d small pages seed=%d" % (scheme, size, seed), scheme,
         small_page_epoch_config(size),
         dict(SMALL_PAGE_EPOCH_CLIENTS, seed=seed), None)
        for scheme in PM_SCHEMES
        for seed, size in SMALL_PAGE_EPOCH_CELLS
    ]
    cells += [
        ("%s G=%d clients=8 items=50 seed=%d picks=%d"
         % (scheme, size, seed, pick), scheme,
         cell_config(scheme, clients=8, items=50, group_commit_size=size),
         dict(clients=8, items=50, seed=seed), random_picks(pick))
        for scheme in PM_SCHEMES
        for size, seed, pick in RANDOM_PICK_CELLS
    ]
    failures = []
    for name, scheme, config, cell, picks in cells:
        workloads, rows = cell_workloads(**cell)
        try:
            problems = crash_at(
                ScheduledRun(scheme, workloads, picks, preload=rows), None,
                config=config, checker_factory=PageInvariantChecker,
            ).violations
        # Report every failing cell, whatever it raised.
        except Exception as err:
            problems = ["%s: %s" % (type(err).__name__, err)]
        if problems:
            failures.append("%s: %s" % (name, "; ".join(problems)))
    return len(cells), failures


#: Row fields that cannot show a change in the row's own schedule:
#: simulated time, what is derived from it, and ratios against another
#: row of the sweep.  A row whose other fields (commits, aborts,
#: deadlocks, steps, lock counts, records, flushes, ...) all match
#: moved in time only; any other moved field means its schedule
#: changed.
TIME_FIELDS = frozenset({
    "simulated_ns", "elapsed_ns", "throughput_tps", "busy_ns",
    "parallel_elapsed_ns", "serial_throughput_tps", "speedup_vs_one_shard",
    "speedup_vs_uncached", "fence_reduction_vs_ungrouped",
})
#: Fields that name a row within its section's scheme list.
ROW_KEYS = ("clients", "read_ratio", "mvcc", "group_size", "isolation",
            "mix", "cache_pages", "read_ns", "shards")


def diff_rows(grid, baseline):
    """Every row of ``grid`` that differs from ``baseline``, as
    ``(section, scheme, label, tag, {field: (want, got)})`` with
    ``tag`` ``"time-only"`` or ``"schedule"``."""
    diffs = []
    for section, schemes in grid.items():
        if section == "workload":
            continue
        for scheme, rows in schemes.items():
            wanted = (baseline.get(section) or {}).get(scheme) or []
            for got, want in itertools.zip_longest(rows, wanted, fillvalue={}):
                fields = {
                    name: (want.get(name), got.get(name))
                    for name in sorted(got.keys() | want.keys())
                    if got.get(name) != want.get(name)
                }
                if fields:
                    label = " ".join("%s=%s" % (key, (got or want)[key])
                                     for key in ROW_KEYS if key in (got or want))
                    tag = "time-only" if fields.keys() <= TIME_FIELDS else "schedule"
                    diffs.append((section, scheme, label, tag, fields))
    return diffs


def _print_diffs(diffs, out):
    for section, scheme, label, tag, fields in diffs:
        print("  %s/%s %s [%s]: %s" % (
            section, scheme, label, tag,
            ", ".join("%s %s -> %s" % (name, want, got)
                      for name, (want, got) in fields.items()),
        ), file=out)
    schedule = sum(diff[3] == "schedule" for diff in diffs)
    print("%d rows differ: %d time-only, %d schedule"
          % (len(diffs), len(diffs) - schedule, schedule), file=out)


def _print_grid(grid):
    print("multiclient: simulated throughput under contention "
          "(%d items/client, seed %d)" % (ITEMS, SEED))
    for scheme in SCHEMES:
        rows = grid["client_sweep"][scheme]
        print("  %-9s " % scheme + "  ".join(
            "%dc %8.0f tps (%da/%dd)" % (
                r["clients"], r["throughput_tps"], r["aborts"], r["deadlocks"],
            )
            for r in rows
        ))
    print("read-mostly (1 writer + N-1 readers, key space %d): "
          "locked vs MVCC readers" % MVCC_KEY_SPACE)
    for scheme in PM_SCHEMES:
        rows = grid["mvcc_sweep"][scheme]
        print("  %-9s " % scheme + "  ".join(
            "%dc %-4s %8.0f tps (%d cf)" % (
                r["clients"], "mvcc" if r["mvcc"] else "lock",
                r["throughput_tps"], r["lock_conflicts"],
            )
            for r in rows
        ))
    print("group commit (size 0 = off): marginal fences per committed txn")
    for scheme in PM_SCHEMES:
        rows = grid["group_sweep"][scheme]
        print("  %-9s " % scheme + "  ".join(
            "%dc/g%d %5.2f f/txn (%.2fx)" % (
                r["clients"], r["group_size"], r["fences_per_txn"],
                r["fence_reduction_vs_ungrouped"],
            )
            for r in rows
        ))
    print("occ sweep (locked vs optimistic twins): lock acquires per "
          "committed txn")
    for scheme in PM_SCHEMES:
        rows = grid["occ_sweep"][scheme]
        cells = {}
        for r in rows:
            cells.setdefault((r["mix"], r["clients"]), {})[r["isolation"]] = r
        print("  %-9s " % scheme + "  ".join(
            "%s/%dc %.2f->%.2f la/txn (%.0f%% ab, %d fb)" % (
                mix[:4], count,
                pair["locked"]["lock_acquires_per_commit"],
                pair["occ"]["lock_acquires_per_commit"],
                100 * pair["occ"]["occ_abort_rate"],
                pair["occ"]["occ_fallbacks"],
            )
            for (mix, count), pair in sorted(cells.items())
        ))
    print("cache sweep (DRAM pages x PM read latency, read-mostly MVCC): "
          "hit ratio and speedup vs cache-off")
    for scheme in PM_SCHEMES:
        rows = grid["cache_sweep"][scheme]
        print("  %-9s " % scheme + "  ".join(
            "p%d@%.0f %.2fh %.2fx" % (
                r["cache_pages"], r["read_ns"], r["cache_hit_ratio"],
                r["speedup_vs_uncached"],
            )
            for r in rows
        ))
    print("shard sweep (%d clients, disjoint per-shard pools): modeled "
          "parallel throughput" % SHARD_CLIENTS)
    for scheme in PM_SCHEMES:
        rows = grid["shard_sweep"][scheme]
        print("  %-9s " % scheme + "  ".join(
            "%ds %8.0f tps (%.2fx)" % (
                r["shards"], r["throughput_tps"], r["speedup_vs_one_shard"],
            )
            for r in rows
        ))


def _dump(data, dest):
    """Write ``data`` as sorted JSON to ``dest`` (``"-"``: stdout)."""
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    if dest == "-":
        sys.stdout.write(text)
    else:
        pathlib.Path(dest).write_text(text)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Deterministic multi-client contention baseline.",
    )
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless results exactly equal the "
                             "committed baseline")
    parser.add_argument("--update", action="store_true",
                        help="rewrite %s" % BASELINE_PATH.name)
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also dump the results ('-' = stdout)")
    parser.add_argument("--shards", metavar="N", type=int, default=None,
                        help="skip the grid: one sharded run over N "
                             "pagestores (8 clients, disjoint pools)")
    parser.add_argument("--group-grid", action="store_true",
                        help="skip the baseline grid: run the group-commit "
                             "correctness grid (124 cells through the "
                             "crash driver's committed-prefix check); exit "
                             "1 on any failing cell")
    args = parser.parse_args(argv)

    if args.group_grid:
        cells, failures = run_group_grid()
        for failure in failures:
            print("  FAIL %s" % failure, file=sys.stderr)
        print("group-commit grid: %d of %d cells failed"
              % (len(failures), cells))
        return 1 if failures else 0

    if args.shards is not None:
        from repro.bench.multiclient import sweep_shards

        result, = sweep_shards("fastplus", shard_counts=(args.shards,),
                               clients=SHARD_CLIENTS, items=ITEMS, seed=SEED)
        summary = _summarize(result, SHARDED)
        print("fastplus over %d shard(s): %d commits, %8.0f modeled tps "
              "(serial %8.0f)" % (
                  result["shards"], result["commits"],
                  result["throughput_tps"], result["serial_throughput_tps"],
              ))
        if args.json:
            _dump(summary, args.json)
        return 0

    grid = run_grid()
    _print_grid(grid)

    if args.json:
        _dump(grid, args.json)

    if args.update:
        _dump(grid, BASELINE_PATH)
        print("updated %s" % BASELINE_PATH)
        return 0

    if args.check:
        if not BASELINE_PATH.exists():
            print("multiclient: no committed baseline", file=sys.stderr)
            return 1
        baseline = json.loads(BASELINE_PATH.read_text())
        if grid != baseline:
            print("multiclient MISMATCH: results differ from %s — "
                  "concurrency behavior changed (run --update if intended)"
                  % BASELINE_PATH.name, file=sys.stderr)
            if grid["workload"] != baseline.get("workload"):
                print("  workload %s -> %s" % (baseline.get("workload"),
                                               grid["workload"]),
                      file=sys.stderr)
            _print_diffs(diff_rows(grid, baseline), sys.stderr)
            return 1
        print("multiclient check: OK (exactly equal to baseline)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
