#!/usr/bin/env python
"""Multi-client contention baseline: deterministic concurrency numbers.

Runs the contention grid of ``repro.bench.multiclient`` (``run_grid``:
client count, read/write mix, locked vs MVCC readers, group commit,
locked vs OCC writers, DRAM page cache and shard sweeps), prints the
fig13-15 tables rendered from its rows, and compares the rows against
the committed baseline in ``BENCH_multiclient.json``.

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

from repro.bench.figures import fig13, fig14, fig15  # noqa: E402
from repro.bench.multiclient import (  # noqa: E402
    PM_SCHEMES, RANDOM_PICK_CELLS, SHARD_CELL, SHARDED,
    SMALL_PAGE_EPOCH_CELLS, SMALL_PAGE_EPOCH_CLIENTS, cell_config,
    cell_workloads, random_picks, run_grid, run_multi_client,
    small_page_epoch_config, summarize,
)

BASELINE_PATH = ROOT / "BENCH_multiclient.json"

#: Group-commit correctness grid (``--group-grid``): every cell must end
#: in exactly its committed state.  Scheme x group size x clients x
#: items/client x seed = 108 cells, plus the 16 small-page cells
#: (``SMALL_PAGE_EPOCH_CELLS`` on both schemes) and the 32 seeded
#: random-pick cells (``RANDOM_PICK_CELLS`` on both schemes): 156.
GRID_GROUP_SIZES = (2, 4, 8)
GRID_CLIENTS = (2, 8)
GRID_ITEMS = (25, 50, 100)
GRID_SEEDS = (7, 8, 9)


def group_grid_cells():
    """Every ``--group-grid`` cell: ``(name, scheme, config,
    cell_workloads kwargs, pick strategy factory or None)``."""
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
    return cells


def run_group_grid(cells):
    """Run every cell through the crash driver to completion
    (``crash_at(shape, None)``: ``verify()`` + scan == the dict model
    replaying the commit order, live and after ``DropAll`` + attach)
    with the per-step page invariant checker armed.  Returns the
    failing cells."""
    from repro.testing.crashsim import ScheduledRun, crash_at
    from repro.testing.invariants import PageInvariantChecker

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
    return failures


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
    cells = group_grid_cells()
    parser.add_argument("--group-grid", action="store_true",
                        help="skip the baseline grid: run the group-commit "
                             "correctness grid (%d cells through the "
                             "crash driver's committed-prefix check); exit "
                             "1 on any failing cell" % len(cells))
    args = parser.parse_args(argv)

    if args.group_grid:
        failures = run_group_grid(cells)
        for failure in failures:
            print("  FAIL %s" % failure, file=sys.stderr)
        print("group-commit grid: %d of %d cells failed"
              % (len(failures), len(cells)))
        return 1 if failures else 0

    if args.shards is not None:
        result = run_multi_client("fastplus", shards=args.shards,
                                  **SHARD_CELL)
        summary = summarize(result, SHARDED)
        print("fastplus over %d shard(s): %d commits, %8.0f modeled tps "
              "(serial %8.0f)" % (
                  result["shards"], result["commits"],
                  result["throughput_tps"], result["serial_throughput_tps"],
              ))
        if args.json:
            _dump(summary, args.json)
        return 0

    grid = run_grid()
    for figure, section in ((fig13, "mvcc_sweep"), (fig14, "occ_sweep"),
                            (fig15, "cache_sweep")):
        print(figure(grid[section])["table"] + "\n")

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
