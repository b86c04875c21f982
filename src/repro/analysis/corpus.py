"""Trace-checked corpora: curated runs with a :class:`TraceChecker`
riding them.

Every corpus is one row of :data:`CORPORA` — a run shape of the crash
driver (:mod:`repro.testing.crashsim`), a ``SystemConfig``, the
checker it arms, and optional crash-sweep arguments — and
:func:`run_corpus` runs every row the same way.  A plain row runs as
``crash_at(shape, None, ...)``: a completed run whose live state must
equal the committed-prefix model and whose clients must all drain.  A
swept row runs as ``crash_sweep(shape, ...)``, forking its one
execution at every sampled event.  The checker observes the run
itself, never a fork's recovery; every model or sweep violation
becomes a TC000 finding, so a broken execution can never report a
clean trace.

The rows, each over FAST and FAST⁺:

* *single client* (plain, grouped) — one client with full checking
  (flush coverage, mark atomicity, live-range protection refreshed
  from the committed state before every transaction); grouped, every
  ≤8-byte group mark is checked like a transaction mark (every
  member's log lines flushed + fenced before the one shared fence);
* *scheduled* (plain, grouped, cached) — four 2PL clients under the
  deterministic scheduler over a preloaded key space, checking
  ordering plus strict 2PL off the lock/txn event stream (live ranges
  are per-transaction snapshots, which interleaving invalidates, so
  that rule is out of scope in every scheduled row); cached, the
  locked writers' contexts hit the warmed DRAM tier and TC111 checks
  every hit;
* *mvcc* (plain, cached) — two 2PL writers and two read-only MVCC
  sessions: TC107 fires if a snapshot session takes a lock or resolves
  a version younger than its snapshot;
* *occ single client* — one OCC session (TC109 audits each
  validation; its install's commit is checked like a 2PL commit);
* *occ scheduled* (plain, grouped, cached) — OCC writers racing a 2PL
  writer and an MVCC reader, so validation aborts, install conflicts,
  retries and 2PL fallbacks all happen under the checker;
* *occ crash swept*, *crash swept* — crash sweeps of an OCC + 2PL
  schedule and of the single-client workload;
* *sharded*, *sharded crash swept* — clients over a two-shard router
  with single- and cross-shard transactions, adding the 2PC rule
  (TC108); the plain row also checks each shard's own log and commit
  word (:class:`ShardCheckers`).

``python -m repro.analysis --trace-check`` runs :func:`run_all`.

One corpus lives outside ``run_all`` because it multiplies executions
rather than adding one: :func:`run_explored` model-checks *every
feasible interleaving* (DPOR over the scheduler's pick hook — see
:mod:`repro.analysis.explore`) of a conflict-rich locked workload and
a mixed locked/OCC/read-only workload, with a bounded schedule ×
crash-point product.  ``python -m repro.analysis --explore`` drives it.
"""

from collections import namedtuple
from functools import partial

from repro.analysis.findings import Finding
from repro.analysis.tracecheck import TraceChecker
from repro.bench.multiclient import client_workload, sharded_client_workload
from repro.core import SystemConfig
from repro.testing.crashsim import (
    SMALL_CONFIG, ScheduledRun, ShardedRun, SingleRun, crash_at,
    crash_sweep, failing,
)

#: Schemes with a commit mark the ordering invariants apply to.
SCHEMES = ("fast", "fastplus")


def _workload(items):
    """A deterministic mixed workload: inserts (driving page splits at
    the 512-byte page size), same-key updates, multi-op transactions,
    and deletes — every store path of the commit schemes."""
    payload = bytes(range(48))
    ops = []
    for i in range(items):
        ops.append(("insert", b"ck%04d" % i, payload))
    for i in range(0, items, 3):
        ops.append(("update", b"ck%04d" % i, payload[::-1]))
    for i in range(0, items, 4):
        ops.append(("txn", [
            ("insert", b"cx%04d" % i, payload),
            ("delete", b"ck%04d" % ((i + 1) % items), None),
        ]))
    for i in range(0, items, 5):
        ops.append(("delete", b"cx%04d" % ((i // 5) * 5), None))
    return ops


#: The scheduled rows' hot key space, half of it preloaded so reads
#: hit and writes update shared pages.
PRELOAD = {b"mk%05d" % i: bytes(48) for i in range(0, 200, 4)}


def _clients(items, modes):
    """One scheduler client per isolation mode, client ``i`` running
    ``client_workload(i)`` (all reads for a read-only client)."""
    return [
        {"items": client_workload(
            index, items=items,
            read_ratio=1.0 if mode == "read_only" else 0.5,
        ), "isolation": mode}
        for index, mode in enumerate(modes)
    ]


def _single(items, isolation=None):
    return lambda scheme: SingleRun(
        scheme, _workload(items), isolation=isolation,
    )


def _scheduled(items, modes, preload=PRELOAD):
    return lambda scheme: ScheduledRun(
        scheme, _clients(items, modes), preload=preload,
    )


def _sharded(items, cross_ratio, key_space, clients, occ=False):
    """``clients`` 2PL clients over a two-shard router; with ``occ``
    one more, optimistic, over client 0's exact key slice: per-shard
    validation + install inside the commit path, single- and
    cross-shard alike, with contention guaranteed."""
    def client(index):
        return sharded_client_workload(
            index, items=items, cross_ratio=cross_ratio,
            key_space=key_space, read_ratio=0.2,
        )

    def shape(scheme):
        workloads = [client(index) for index in range(clients)]
        if occ:
            workloads.append({"items": client(0), "isolation": "occ"})
        return ShardedRun(scheme, workloads)

    return shape


class ShardCheckers:
    """The checker of a sharded run: one over the router's merged trace
    for the 2PL + 2PC + OCC rules, and one per shard scoped to *its*
    log range and commit word for the flush/atomic rules — other
    shards' stores fall outside its geometry and are ignored, so
    per-shard commit discipline is checked shard by shard off one
    interleaved event stream.  Its stats are the global checker's."""

    def __init__(self, router):
        self.checkers = [
            TraceChecker(router.trace, invariants=("twopl", "twopc", "occ"))
        ] + [
            TraceChecker.for_engine(
                shard, invariants=("flush", "atomic"), shared_trace=True,
            )
            for shard in router.shards
        ]

    def advance(self):
        for checker in self.checkers:
            checker.advance()

    def finish(self):
        return [f for checker in self.checkers for f in checker.finish()]

    def close(self):
        for checker in self.checkers:
            checker.close()

    @property
    def stats(self):
        return self.checkers[0].stats


#: Every rule armed (a single client refreshes live ranges per
#: transaction).
_EVERY = TraceChecker.for_engine
#: Every rule but ``live``, whose per-transaction live-range snapshots
#: interleaving invalidates, and ``lockset``, which needs the
#: explorer's per-step actor.
_INTERLEAVED = partial(TraceChecker.for_engine, invariants=(
    "flush", "atomic", "twopl", "snapshot", "occ", "cache",
))

#: One trace-check corpus: ``shape(scheme)`` builds the run, ``checker(
#: engine)`` the checker riding it; ``config`` None is the crash
#: driver's small arena, and ``sweep`` (crash-sweep arguments) makes
#: it a swept row.
Corpus = namedtuple(
    "Corpus", "label shape checker config sweep", defaults=(None, None),
)

_GROUPED = SystemConfig(group_commit_size=4, **SMALL_CONFIG)
#: A tiered DRAM page cache: snapshot readers fill and hit frames and
#: locked writers' contexts hit them, so TC111 sees traffic from both.
_CACHED = SystemConfig(dram_cache_pages=16, **SMALL_CONFIG)

_LOCKED = ("locked",) * 4
_MVCC = ("locked", "locked", "read_only", "read_only")
_OCC = ("occ", "occ", "locked", "read_only")

#: The trace-check corpora; :func:`run_all` runs each over every scheme.
CORPORA = (
    Corpus("single client", _single(30), _EVERY),
    Corpus("group commit", _single(30), _EVERY, _GROUPED),
    Corpus("scheduled", _scheduled(12, _LOCKED), _INTERLEAVED),
    Corpus("scheduled grouped", _scheduled(12, _LOCKED), _INTERLEAVED,
           _GROUPED),
    Corpus("scheduled cached", _scheduled(12, _LOCKED), _INTERLEAVED,
           _CACHED),
    Corpus("mvcc", _scheduled(12, _MVCC), _INTERLEAVED),
    Corpus("mvcc cached", _scheduled(12, _MVCC), _INTERLEAVED, _CACHED),
    Corpus("occ single client", _single(30, "occ"), _EVERY),
    Corpus("occ scheduled", _scheduled(10, _OCC), _INTERLEAVED),
    Corpus("occ scheduled grouped", _scheduled(10, _OCC), _INTERLEAVED,
           _GROUPED),
    Corpus("occ scheduled cached", _scheduled(10, _OCC), _INTERLEAVED,
           _CACHED),
    Corpus("occ crash swept", _scheduled(4, ("occ", "locked"), ()),
           _INTERLEAVED, sweep=dict(stride=11, max_points=30)),
    Corpus("crash swept", _single(6), _EVERY,
           sweep=dict(stride=7, max_points=40)),
    Corpus("sharded", _sharded(10, 0.25, 20, 4, occ=True), ShardCheckers),
    Corpus("sharded crash swept", _sharded(3, 0.5, 8, 2), ShardCheckers,
           sweep=dict(stride=9, max_points=30)),
)


def run_corpus(corpus, scheme):
    """Run one :data:`CORPORA` row on ``scheme`` with its checker
    riding the one execution (seed 0 on a sweep: each point's own
    seed); returns ``(findings, stats)``.  Each model or sweep
    violation is a TC000 finding."""
    shape = corpus.shape(scheme)
    if corpus.sweep is None:
        results = [(None, crash_at(
            shape, None, config=corpus.config,
            checker_factory=corpus.checker,
        ))]
    else:
        results = crash_sweep(
            shape, config=corpus.config, seeds=(0,),
            checker_factory=corpus.checker, **corpus.sweep,
        )
    checker = shape.checker  # the checked execution's (built last)
    findings = list(checker.finish())
    for point, result in failing(results):
        findings.append(Finding(
            "TC000",
            "%s %s violation%s: %s" % (
                scheme, corpus.label,
                "" if point is None else " at budget %d" % point,
                "; ".join(result.violations),
            ),
        ))
    stats = checker.stats
    return findings, {
        "txns": stats["txns"], "events": stats["events"],
        "findings": len(findings),
    }


def mixed_explore_workloads():
    """The exploration corpus's mixed-isolation target: a 2PL writer,
    an OCC writer racing it on a shared hot key, and a lock-free MVCC
    reader — every session mode in one small schedule space."""
    payload = bytes(range(40))
    return [
        [("txn", [("insert", b"w-a", payload),
                  ("insert", b"hot", payload)])],
        {"items": [("txn", [("insert", b"o-a", payload),
                            ("insert", b"hot", payload)])],
         "isolation": "occ"},
        {"items": [("search", b"hot", None), ("search", b"w-a", None)],
         "isolation": "read_only"},
    ]


def run_explored(schemes=("fast",), *, budget=None, clients=2,
                 crash_schedules=2, obs=None):
    """The schedule-space exploration corpus (DPOR model checking; see
    :mod:`repro.analysis.explore`): every feasible interleaving of two
    small workloads — the default conflict-rich locked workload, with
    a bounded schedule × crash-point product at its most distinct
    schedules, and a mixed locked/OCC/read-only workload — runs under
    TC101-TC111 plus the crash driver's committed-prefix check.

    Returns ``(findings, stats)``; ``stats`` carries one JSON-ready
    per-run summary list plus corpus totals.  With ``obs`` the
    ``explore.*`` counters are filed into that handle too.
    """
    from repro.analysis.explore import (
        DEFAULT_BUDGET, Explorer, default_workloads,
    )

    budget = budget or DEFAULT_BUDGET
    findings = []
    runs = []
    totals = {"schedules": 0, "attempts": 0, "crash_points": 0, "runs": 0}
    targets = (
        ("locked", default_workloads(clients=clients), crash_schedules),
        ("mixed", mixed_explore_workloads(), 0),
    )
    for scheme in schemes:
        for name, workloads, crashes in targets:
            explorer = Explorer(
                scheme, workloads=workloads, budget=budget,
                crash_schedules=crashes,
            )
            result = explorer.run()
            if obs is not None:
                explorer.publish(obs)
            findings.extend(explorer.findings)
            runs.append(dict(result, workload=name))
            totals["schedules"] += result["schedules"]
            totals["attempts"] += result["attempts"]
            totals["crash_points"] += result["crash_points"]
            totals["runs"] += 1
    stats = dict(totals, findings=len(findings), explorations=runs)
    return findings, stats


def run_all(schemes=SCHEMES):
    """Every corpus over every scheme; returns ``(findings, stats)``
    with corpus totals and one ``rows`` entry per run."""
    findings = []
    rows = []
    for scheme in schemes:
        for corpus in CORPORA:
            run_findings, stats = run_corpus(corpus, scheme)
            findings.extend(run_findings)
            rows.append(dict(stats, scheme=scheme, label=corpus.label))
    totals = {
        key: sum(row[key] for row in rows)
        for key in ("txns", "events", "findings")
    }
    return findings, dict(totals, runs=len(rows), rows=rows)
