"""Human-readable rendering of exported observability snapshots.

A snapshot is the JSON written by ``Observability.export_json`` (or a
bare ``MetricsRegistry.export_json``).  ``render_report`` turns it into
the text the ``python -m repro.obs`` CLI prints: grouped counters,
gauges, and a phase-histogram summary with a log2 sparkline.
"""

import json

_BARS = " ▁▂▃▄▅▆▇█"


def load_snapshot(path):
    with open(path) as fh:
        snapshot = json.load(fh)
    # Accept both a full Observability export and a bare registry dump.
    if "registry" not in snapshot and "counters" in snapshot:
        snapshot = {"registry": snapshot}
    if "registry" not in snapshot:
        raise ValueError("%s does not look like an obs snapshot" % path)
    return snapshot


def _fmt_ns(ns):
    if ns is None:
        return "-"
    if ns >= 1e6:
        return "%.2f ms" % (ns / 1e6)
    if ns >= 1e3:
        return "%.2f us" % (ns / 1e3)
    return "%.0f ns" % ns


def _sparkline(buckets):
    """One glyph per populated log2 bucket, low exponent first."""
    if not buckets:
        return ""
    pairs = sorted((int(k), v) for k, v in buckets.items())
    lo, hi = pairs[0][0], pairs[-1][0]
    counts = dict(pairs)
    peak = max(counts.values())
    line = []
    for exponent in range(lo, hi + 1):
        count = counts.get(exponent, 0)
        level = 0 if not count else 1 + int((len(_BARS) - 2) * count / peak)
        line.append(_BARS[level])
    return "".join(line)


def _group(names):
    """Group dotted names by their first path component."""
    groups = {}
    for name in names:
        groups.setdefault(name.split(".", 1)[0], []).append(name)
    return groups


def _lock_discipline(kind_totals):
    """Summarise the lock/transaction event kinds, if any were traced.

    Every granted lock is released exactly once (upgrades replace the
    mode in place), so an acquire/release imbalance in a quiescent
    snapshot means leaked locks — the same condition the dynamic
    checker's TC105 flags per transaction.
    """
    acquires = kind_totals.get("lock_acquire", 0)
    upgrades = kind_totals.get("lock_upgrade", 0)
    releases = kind_totals.get("lock_release", 0)
    waits = kind_totals.get("lock_wait", 0)
    begins = kind_totals.get("txn_begin", 0)
    commits = kind_totals.get("txn_commit", 0)
    aborts = kind_totals.get("txn_abort", 0)
    if not (acquires or releases or begins):
        return []
    lines = [
        "  lock discipline: %d acquired (+%d upgraded), %d released, "
        "%d waits" % (acquires, upgrades, releases, waits),
        "  transactions: %d begun, %d committed, %d aborted"
        % (begins, commits, aborts),
    ]
    leaked = acquires - releases
    if leaked:
        lines.append("  WARNING: %d lock(s) never released" % leaked)
    return lines


def _durability_cost(counters):
    """Derived per-committed-transaction durability cost.

    The three prices every durable commit protocol pays — store
    fences, 8-byte commit marks, cache-line flushes — normalized per
    committed transaction, which is the axis group commit moves:
    epoch-pipelined commits share one fence and one mark per epoch,
    so fences/txn and marks/txn drop roughly with the group size
    while flushes/txn stay put (every line still has to reach PM).
    """
    commits = counters.get("engine.txn.commit", 0)
    if not commits:
        return []
    fences = counters.get("pm.fence", 0)
    flushes = counters.get("pm.flush", 0)
    marks = (
        counters.get("log.commit_mark", 0)
        + counters.get("wal.commit_mark", 0)
    )
    lines = [
        "",
        "per-txn durability cost",
        "-----------------------",
        "  fences/txn        %8.2f  (%d fences / %d commits)"
        % (fences / commits, fences, commits),
        "  commit-marks/txn  %8.2f  (%d marks)" % (marks / commits, marks),
        "  flushes/txn       %8.2f  (%d line flushes)"
        % (flushes / commits, flushes),
    ]
    joins = counters.get("group.join", 0)
    closes = counters.get("group.close", 0)
    if closes:
        lines.append(
            "  group commit      %d epoch(s) closed, %.2f members/epoch"
            % (closes, joins / closes)
        )
    return lines


#: Why a scheduled transaction was retried (``Scheduler._abort``).
_ABORT_CAUSES = ("deadlock", "timeout", "occ")


def _scheduler(counters):
    """Derived scheduler health: lock waits and aborts per committed
    transaction, the aborts split by cause — a wait-for cycle, a wait
    timeout, a failed OCC commit.  Present only for scheduled runs."""
    if not counters.get("sched.step", 0):
        return []
    commits = counters.get("engine.txn.commit", 0) or 1
    causes = ", ".join(
        "%s %.3f" % (cause, counters.get("sched.abort." + cause, 0) / commits)
        for cause in _ABORT_CAUSES
    )
    return [
        "",
        "scheduler",
        "---------",
        "  per committed txn %.3f waits, %.3f aborts (%s)"
        % (counters.get("sched.wait", 0) / commits,
           counters.get("sched.abort", 0) / commits, causes),
    ]


def _page_layer(counters):
    """Derived slotted-page health: how many in-page free lists the
    lazy check of paper Section 4.3 walked — one per page per attach
    (or per DRAM frame load), so it tracks the pages mutated, not the
    transactions run — and how many of them it had to rebuild (only a
    crash leaves a list that needs it)."""
    checks = counters.get("page.freelist.check", 0)
    if not checks:
        return []
    return [
        "",
        "slotted pages",
        "-------------",
        "  free lists        %8d  validated on first mutation since "
        "attach / frame load, %d rebuilt"
        % (checks, counters.get("page.freelist.rebuild", 0)),
    ]


def _isolation(counters):
    """Derived OCC writer-path health: how often optimistic commits
    validated cleanly, how often they aborted (validation or install),
    how often a session exhausted its streak and fell back to 2PL, and
    how long the commit-time lock window actually was — the span that
    replaces whole-transaction 2PL lock tenure."""
    validations = counters.get("occ.validation", 0)
    if not validations:
        return []
    begins = counters.get("occ.begin", 0)
    commits = counters.get("occ.commit", 0)
    aborts = counters.get("occ.validation.abort", 0)
    install_conflicts = counters.get("occ.install.conflict", 0)
    fallbacks = counters.get("occ.fallback", 0)
    hold_ns = counters.get("occ.lock_hold_ns", 0)
    lines = [
        "",
        "isolation (occ writer path)",
        "---------------------------",
        "  optimistic txns   %8d  (%d validations, %d installed)"
        % (begins, validations, commits),
        "  validation aborts %8d  (%.1f%% of validations)"
        % (aborts, 100.0 * aborts / validations),
    ]
    if install_conflicts:
        lines.append(
            "  install conflicts %8d  (lock race during write-set "
            "install)" % install_conflicts
        )
    lines.append(
        "  2PL fallbacks     %8d  (sessions that exhausted the "
        "validation streak)" % fallbacks
    )
    if commits:
        lines.append(
            "  commit lock span  %s mean  (%s total over %d installs)"
            % (_fmt_ns(hold_ns / commits), _fmt_ns(hold_ns), commits)
        )
    return lines


def _cache_tier(counters):
    """Derived DRAM page-cache health: how often committed reads were
    served from DRAM frames instead of paying PM read latency, and why
    frames left the cache (capacity pressure vs coherence drops at
    commit installs / page frees).  Present only when a run was
    configured with ``dram_cache_pages > 0``."""
    hits = counters.get("cache.hit", 0)
    misses = counters.get("cache.miss", 0)
    lookups = hits + misses
    if not lookups:
        return []
    bypasses = counters.get("cache.bypass", 0)
    evicts = counters.get("cache.evict", 0)
    invalidates = counters.get("cache.invalidate", 0)
    fills = counters.get("cache.fill", 0)
    copied = counters.get("cache.fill_bytes", 0)
    skipped = counters.get("cache.fill_skipped_bytes", 0)
    lines = [
        "",
        "dram page cache",
        "---------------",
        "  lookups           %8d  (%d hits, %d misses, %.1f%% hit "
        "ratio)" % (lookups, hits, misses, 100.0 * hits / lookups),
        "  bypasses          %8d  writer first touches with no frame "
        "(read from PM; writers never fill)" % bypasses,
        "  fills             %8d  PM reads of a page's live extents into "
        "DRAM frames" % fills,
    ]
    if fills and copied:
        lines.append(
            "  bytes per fill    %8d  (%.1f%% of a page; the free-space "
            "hole is not copied)"
            % (copied / fills, 100.0 * copied / (copied + skipped))
        )
    lines += [
        "  evictions         %8d  clock/second-chance capacity drops"
        % evicts,
        "  invalidations     %8d  coherence drops (commit installs, "
        "frees, GC)" % invalidates,
    ]
    return lines


def _exploration(counters, gauges):
    """Derived schedule-space exploration summary (DPOR model checker).

    Present only when the snapshot came from a run that published
    :class:`repro.analysis.explore.Explorer` stats.  "schedules" is
    complete interleavings actually executed and checked; the two
    "pruned" lines are the work the reduction avoided (sleep-set
    blocks and revisited committed states), and "races" counts TC110
    lockset reports before dedup."""
    attempts = counters.get("explore.attempts", 0)
    if not attempts:
        return []
    schedules = counters.get("explore.schedules", 0)
    lines = [
        "",
        "schedule exploration (dpor)",
        "---------------------------",
        "  schedules         %8d  executed to completion (%d attempts,"
        " %d steps)"
        % (schedules, attempts, counters.get("explore.steps", 0)),
        "  pruned            %8d  sleep-set, %d state-hash"
        % (counters.get("explore.pruned.sleep", 0),
           counters.get("explore.pruned.state", 0)),
        "  frontier          %8d  max pending backtrack points"
        % gauges.get("explore.max_frontier", 0),
    ]
    truncated = counters.get("explore.truncated", 0)
    starved = counters.get("explore.starved", 0)
    if truncated or starved:
        lines.append(
            "  bounded           %8d  step-budget truncations, "
            "%d retry-cap starvations" % (truncated, starved)
        )
    crash_points = counters.get("explore.crash_points", 0)
    if crash_points:
        lines.append(
            "  crash product     %8d  crash points swept across "
            "distinct schedules" % crash_points
        )
    races = counters.get("explore.races", 0)
    findings = counters.get("explore.findings", 0)
    lines.append(
        "  findings          %8d  (%d lockset race report(s))"
        % (findings, races)
    )
    return lines


def render_report(snapshot, *, title="observability report"):
    registry = snapshot["registry"]
    counters = registry.get("counters", {})
    gauges = registry.get("gauges", {})
    histograms = registry.get("histograms", {})
    lines = [title, "=" * len(title)]
    if "now_ns" in snapshot:
        lines.append("simulated time: %s" % _fmt_ns(snapshot["now_ns"]))
    trace = snapshot.get("trace")
    if trace:
        lines.append(
            "trace: %d events recorded (%d buffered of %d capacity, %d dropped)"
            % (
                trace.get("recorded", 0),
                trace.get("recorded", 0) - trace.get("dropped", 0),
                trace.get("capacity", 0),
                trace.get("dropped", 0),
            )
        )
        kind_totals = trace.get("kind_totals") or {}
        if kind_totals:
            lines.append(
                "  " + "  ".join(
                    "%s=%d" % (kind, count)
                    for kind, count in sorted(kind_totals.items())
                )
            )
        lines.extend(_lock_discipline(kind_totals))
    if counters:
        lines.append("")
        lines.append("counters")
        lines.append("--------")
        width = max(len(name) for name in counters)
        for group in sorted(_group(counters)):
            for name in sorted(n for n in counters if n.split(".", 1)[0] == group):
                lines.append("  %s  %d" % (name.ljust(width), counters[name]))
        lines.extend(_durability_cost(counters))
        lines.extend(_scheduler(counters))
        lines.extend(_page_layer(counters))
        lines.extend(_isolation(counters))
        lines.extend(_cache_tier(counters))
        lines.extend(_exploration(counters, gauges))
    if gauges:
        lines.append("")
        lines.append("gauges")
        lines.append("------")
        width = max(len(name) for name in gauges)
        for name in sorted(gauges):
            lines.append("  %s  %s" % (name.ljust(width), gauges[name]))
    phases = {
        name: hist for name, hist in histograms.items()
        if name.startswith("phase.")
    }
    others = {
        name: hist for name, hist in histograms.items()
        if not name.startswith("phase.")
    }
    for heading, table in (("phase histograms", phases),
                           ("other histograms", others)):
        if not table:
            continue
        lines.append("")
        lines.append(heading)
        lines.append("-" * len(heading))
        width = max(len(name) for name in table)
        header = "  %s  %10s  %12s  %10s  %10s  %10s  %s" % (
            "name".ljust(width), "count", "total", "mean", "min", "max",
            "log2 shape",
        )
        lines.append(header)
        for name in sorted(table):
            hist = table[name]
            lines.append(
                "  %s  %10d  %12s  %10s  %10s  %10s  %s" % (
                    name.ljust(width),
                    hist.get("count", 0),
                    _fmt_ns(hist.get("sum_ns", 0.0)),
                    _fmt_ns(hist.get("mean_ns")),
                    _fmt_ns(hist.get("min_ns")),
                    _fmt_ns(hist.get("max_ns")),
                    _sparkline(hist.get("buckets", {})),
                )
            )
    return "\n".join(lines)
