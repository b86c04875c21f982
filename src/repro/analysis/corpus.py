"""Trace-checked corpora: curated runs with a :class:`TraceChecker`
attached.

Four harnesses, together covering every execution mode the dynamic
invariants apply to:

* :func:`run_single_client` — FAST / FAST⁺ single-session workloads
  with full checking (flush coverage, mark atomicity, live-range
  protection refreshed from the committed state before every
  transaction);
* :func:`run_group_commit` — the single-client workload with
  epoch-pipelined group commit on: each group mark is checked exactly
  like a transaction mark (every member's log lines flushed + fenced
  before the one shared fence, the mark a single ≤8-byte store);
* :func:`run_scheduled` — the multi-client contention bench under the
  deterministic scheduler, checking ordering plus strict 2PL off the
  lock/txn event stream (live ranges are per-transaction snapshots,
  which interleaving invalidates, so that invariant is out of scope
  here); ``run_all`` drives it grouped, ungrouped, and with a warmed
  DRAM page cache whose frames only the locked writers' contexts hit;
* :func:`run_mvcc_scheduled` — writers plus read-only MVCC sessions,
  adding the snapshot invariant (TC107): a read-only transaction must
  acquire zero locks and only resolve versions with commit timestamp
  ≤ its pinned snapshot timestamp; ``run_all`` drives it (and the OCC
  variant) a second time with the tiered DRAM page cache enabled and
  the cache coherence invariant (TC111) armed — no cached read may
  serve bytes older than the latest committed install for its page;
* :func:`run_occ_single_client` / :func:`run_occ_scheduled` /
  :func:`run_occ_crash_swept` — the optimistic writer path (TC109): a
  lock-free read phase, commit-time validation against the version
  publish history, installs under short X locks only after a clean
  validation — single-session, racing 2PL writers and MVCC readers
  under the scheduler (grouped and ungrouped), and crash-swept;
* :func:`run_crash_swept` — the crash-injection sweep with a checker
  riding along on its one execution: ordering violations surface even
  at crash points that happen to recover correctly;
* :func:`run_sharded_scheduled` — clients over a sharded router with
  single- and cross-shard transactions, adding the 2PC invariant
  (TC108: no shard commit mark before its prepare record and the
  coordinator decision) plus per-shard flush/atomic checkers scoped to
  each shard's own log and commit word;
* :func:`run_sharded_crash_swept` — the cross-shard crash sweep with a
  TC108-armed checker riding its one execution.

``python -m repro.analysis --trace-check`` runs all of them and merges
the findings.

One corpus lives outside ``run_all`` because it multiplies executions
rather than adding one: :func:`run_explored` model-checks *every
feasible interleaving* (DPOR over the scheduler's pick hook — see
:mod:`repro.analysis.explore`) of a conflict-rich locked workload and
a mixed locked/OCC/read-only workload, with a bounded schedule ×
crash-point product.  ``python -m repro.analysis --explore`` drives it.
"""

from repro.analysis.tracecheck import TraceChecker
from repro.core import SystemConfig, open_engine
from repro.testing.crashsim import (
    SMALL_CONFIG, ScheduledRun, ShardedRun, SingleRun, crash_sweep, failing,
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


def _execute(txn, item):
    ops = item[1] if item[0] == "txn" else [item]
    for kind, key, value in ops:
        if kind == "insert":
            txn.insert(key, value, replace=True)
        elif kind == "update":
            txn.update(key, value)
        else:
            txn.delete(key)


def _account(engine, checker):
    stats = checker.stats
    engine.obs.inc("analysis.trace.txns", stats["txns"])
    engine.obs.inc("analysis.trace.events", stats["events"])
    engine.obs.inc("analysis.trace.findings", stats["findings"])
    return stats


def run_single_client(scheme, *, items=30, config=None):
    """Full-invariant checked run of one session; returns
    ``(findings, stats)``."""
    config = config or SystemConfig(**SMALL_CONFIG)
    engine = open_engine(config, scheme=scheme)
    checker = TraceChecker.for_engine(engine)
    for item in _workload(items):
        checker.begin_txn(TraceChecker.live_ranges_of(engine))
        txn = engine.transaction()
        _execute(txn, item)
        txn.commit()
    findings = checker.finish()
    return findings, _account(engine, checker)


def run_group_commit(scheme, *, items=30, config=None):
    """Full-invariant checked run with epoch-pipelined group commit on:
    the single-client workload committing through shared fences and
    ≤8-byte group marks.  TC101/TC102 validate every group mark — one
    mark, every member's log lines flushed and fenced before it — and
    the end-of-run drain closes the last epoch under the checker."""
    config = config or SystemConfig(
        group_commit_size=4, **SMALL_CONFIG
    )
    engine = open_engine(config, scheme=scheme)
    checker = TraceChecker.for_engine(engine)
    for item in _workload(items):
        checker.begin_txn(TraceChecker.live_ranges_of(engine))
        txn = engine.transaction()
        _execute(txn, item)
        txn.commit()
    engine.drain_group_commit()
    findings = checker.finish()
    return findings, _account(engine, checker)


def run_scheduled(scheme, *, clients=4, items=12, config=None):
    """Ordering + strict-2PL checked multi-client scheduler run.  With
    a DRAM page cache in ``config`` the locked writers' contexts read
    through it, and TC111 checks every one of their hits."""
    from repro.bench.multiclient import client_workload
    from repro.core.scheduler import Scheduler

    config = config or SystemConfig(**SMALL_CONFIG)
    engine = open_engine(config, scheme=scheme)
    payload = bytes(48)
    for i in range(0, 200, 4):
        engine.insert(b"mk%05d" % i, payload, replace=True)
    if engine.page_cache is not None:
        # Writer contexts hit frames but never fill one, so a committed
        # scan warms the tier — before the checker attaches: TC111 has
        # to pick these frames up from their first observed hit.
        list(engine.scan())
    checker = TraceChecker.for_engine(
        engine, invariants=("flush", "atomic", "twopl", "cache"),
    )
    # Drain the ring after every step: the checker never lets the ring
    # wrap, and the wait-for graph is validated at every grant.
    scheduler = Scheduler(engine, on_step=lambda _client: checker.advance())
    for index in range(clients):
        scheduler.add_client(client_workload(index, items=items))
    scheduler.run()
    findings = checker.finish()
    return findings, _account(engine, checker)


def run_mvcc_scheduled(scheme, *, writers=2, readers=2, items=12,
                       config=None):
    """Writers under 2PL plus lock-free MVCC reader sessions, with the
    snapshot invariant armed: TC107 fires if any read-only session
    acquires a lock or resolves a version younger than its snapshot."""
    from repro.bench.multiclient import client_workload
    from repro.core.scheduler import Scheduler

    config = config or SystemConfig(**SMALL_CONFIG)
    engine = open_engine(config, scheme=scheme)
    payload = bytes(48)
    for i in range(0, 200, 4):
        engine.insert(b"mk%05d" % i, payload, replace=True)
    checker = TraceChecker.for_engine(
        engine, invariants=("flush", "atomic", "twopl", "snapshot", "cache"),
    )
    scheduler = Scheduler(engine, on_step=lambda _client: checker.advance())
    for index in range(writers):
        scheduler.add_client(client_workload(index, items=items))
    for index in range(writers, writers + readers):
        scheduler.add_client(
            client_workload(index, items=items, read_ratio=1.0),
            read_only=True,
        )
    scheduler.run()
    findings = checker.finish()
    return findings, _account(engine, checker)


def run_occ_single_client(scheme, *, items=30, config=None):
    """Full-invariant checked run of one OCC session: lock-free read
    phase, commit-time validation, write-set install under short X
    locks — the live-range and mark-ordering rules apply to the
    install's commit exactly as to a 2PL transaction's, and the occ
    invariant (TC109) audits the validation exchange itself."""
    config = config or SystemConfig(**SMALL_CONFIG)
    engine = open_engine(config, scheme=scheme)
    checker = TraceChecker.for_engine(engine)
    with engine.session("occ", isolation="occ") as session:
        for item in _workload(items):
            checker.begin_txn(TraceChecker.live_ranges_of(engine))
            txn = session.transaction()
            _execute(txn, item)
            txn.commit()
    findings = checker.finish()
    return findings, _account(engine, checker)


def run_occ_scheduled(scheme, *, occ=2, locked=1, readers=1, items=10,
                      config=None):
    """Mixed-isolation scheduler run with the occ invariant armed: OCC
    writers racing 2PL writers and MVCC readers over one hot keyspace,
    so validation aborts, install conflicts, retries, and 2PL
    fallbacks all happen under the checker (TC104-TC107 plus TC109 off
    one interleaved event stream)."""
    from repro.bench.multiclient import client_workload
    from repro.core.scheduler import Scheduler

    config = config or SystemConfig(**SMALL_CONFIG)
    engine = open_engine(config, scheme=scheme)
    payload = bytes(48)
    for i in range(0, 200, 4):
        engine.insert(b"mk%05d" % i, payload, replace=True)
    checker = TraceChecker.for_engine(
        engine,
        invariants=("flush", "atomic", "twopl", "snapshot", "occ", "cache"),
    )
    scheduler = Scheduler(engine, on_step=lambda _client: checker.advance())
    for index in range(occ):
        scheduler.add_client(
            client_workload(index, items=items), isolation="occ",
        )
    for index in range(occ, occ + locked):
        scheduler.add_client(client_workload(index, items=items))
    for index in range(occ + locked, occ + locked + readers):
        scheduler.add_client(
            client_workload(index, items=items, read_ratio=1.0),
            isolation="read_only",
        )
    scheduler.run()
    findings = checker.finish()
    return findings, _account(engine, checker)


def _crash_swept(label, shape, make_checker, **sweep):
    """One crash sweep (seed 0: each point's own seed) with one checker
    riding its single execution; recovery on the forks is unchecked
    (its redo stores legitimately rewrite live bytes).  Correctness of
    the recovered state stays the sweep's own job — each failing point
    surfaces as a TC000 finding, so a broken execution can never report
    a clean trace."""
    from repro.analysis.findings import Finding

    checkers = []

    def factory(engine):
        checkers.append(make_checker(engine))
        return checkers[-1]

    failures = failing(crash_sweep(
        shape, seeds=(0,), checker_factory=factory, **sweep,
    ))
    (checker,) = checkers
    findings = list(checker.finish())
    for budget, result in failures:
        findings.append(Finding(
            "TC000",
            "%s violation at budget %d: %s"
            % (label, budget, "; ".join(result.violations)),
        ))
    stats = {key: checker.stats[key] for key in ("txns", "events", "findings")}
    return findings, stats


def run_occ_crash_swept(scheme, *, items=4, stride=11, max_points=30):
    """Scheduled crash sweep with an OCC client racing a 2PL client and
    an occ-armed checker riding the run (see :func:`_crash_swept`)."""
    from repro.bench.multiclient import client_workload

    workloads = [
        {"items": client_workload(0, items=items), "isolation": "occ"},
        client_workload(1, items=items),
    ]
    return _crash_swept(
        "occ crash sweep", ScheduledRun(scheme, workloads),
        lambda engine: TraceChecker.for_engine(
            engine,
            invariants=("flush", "atomic", "twopl", "snapshot", "occ"),
        ),
        stride=stride, max_points=max_points,
    )


def run_crash_swept(scheme, *, items=6, stride=7, max_points=40):
    """The crash-injection sweep with a full checker riding the run
    (see :func:`_crash_swept`): ordering violations surface even at
    crash points that happen to recover correctly."""
    return _crash_swept(
        "crash sweep", SingleRun(scheme, _workload(items)),
        TraceChecker.for_engine, stride=stride, max_points=max_points,
    )


def run_sharded_scheduled(scheme, *, shards=2, clients=4, items=10,
                          cross_ratio=0.25, config=None):
    """Clients over a sharded router, mixing single-shard and 2PC
    cross-shard transactions, with TC108 armed.

    One global checker reads the merged trace for the 2PL + 2PC
    invariants; additionally each shard gets a checker scoped to *its*
    log range and commit word for the flush/atomic ordering rules —
    other shards' stores fall outside its geometry and are ignored, so
    per-shard commit discipline is checked shard by shard off one
    interleaved event stream.
    """
    from repro.bench.multiclient import sharded_client_workload
    from repro.core.scheduler import Scheduler
    from repro.storage.sharding import ShardRouter

    config = config or SystemConfig(**SMALL_CONFIG)
    router = ShardRouter.create(config, shards, scheme=scheme)
    checkers = [
        TraceChecker(router.trace, invariants=("twopl", "twopc", "occ"))
    ]
    for shard in router.shards:
        checkers.append(TraceChecker.for_engine(
            shard, invariants=("flush", "atomic"), shared_trace=True,
        ))

    def drain(_client):
        for checker in checkers:
            checker.advance()

    scheduler = Scheduler(router, on_step=drain)
    for index in range(clients):
        scheduler.add_client(sharded_client_workload(
            index, items=items, cross_ratio=cross_ratio,
            key_space=20, read_ratio=0.2,
        ))
    # One optimistic client over client 0's exact key slice: per-shard
    # validation + install inside the commit path, single-shard and
    # cross-shard (2PC) alike, with contention guaranteed.
    scheduler.add_client(
        sharded_client_workload(
            0, items=items, cross_ratio=cross_ratio,
            key_space=20, read_ratio=0.2,
        ),
        isolation="occ",
    )
    scheduler.run()
    findings = []
    for checker in checkers:
        findings.extend(checker.finish())
    stats = {
        "txns": 0,
        "events": checkers[0].stats["events"],
        "findings": len(findings),
    }
    router.obs.inc("analysis.trace.events", stats["events"])
    router.obs.inc("analysis.trace.findings", stats["findings"])
    return findings, stats


def run_sharded_crash_swept(scheme, *, shards=2, stride=9, max_points=30):
    """The cross-shard crash sweep with a TC108-armed checker riding
    the run (see :func:`_crash_swept`)."""
    from repro.bench.multiclient import sharded_client_workload

    workloads = [
        sharded_client_workload(
            index, items=3, cross_ratio=0.5, key_space=8, read_ratio=0.2,
        )
        for index in range(2)
    ]
    return _crash_swept(
        "sharded crash sweep", ShardedRun(scheme, workloads, shards),
        lambda router: TraceChecker(
            router.obs.trace, invariants=("twopl", "twopc"),
        ),
        stride=stride, max_points=max_points,
    )


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
    TC101-TC110 plus the commit-order serializability oracle.

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
    """Every corpus over every scheme; returns ``(findings, stats)``."""
    findings = []
    totals = {"txns": 0, "events": 0, "findings": 0, "runs": 0}

    def merge(result):
        run_findings, stats = result
        findings.extend(run_findings)
        for key in ("txns", "events"):
            totals[key] += stats[key]
        totals["findings"] += len(run_findings)
        totals["runs"] += 1

    grouped = SystemConfig(
        group_commit_size=4, **SMALL_CONFIG
    )
    # Tiered DRAM page cache on: snapshot readers fill and hit frames
    # and locked writers' contexts hit them, so the TC111 coherence
    # invariant sees real cache traffic from both sides.
    cached = SystemConfig(dram_cache_pages=16, **SMALL_CONFIG)
    for scheme in schemes:
        merge(run_single_client(scheme))
        merge(run_group_commit(scheme))
        merge(run_scheduled(scheme))
        merge(run_scheduled(scheme, config=grouped))
        merge(run_scheduled(scheme, config=cached))
        merge(run_mvcc_scheduled(scheme))
        merge(run_mvcc_scheduled(scheme, config=cached))
        merge(run_occ_single_client(scheme))
        merge(run_occ_scheduled(scheme))
        merge(run_occ_scheduled(scheme, config=grouped))
        merge(run_occ_scheduled(scheme, config=cached))
        merge(run_occ_crash_swept(scheme))
        merge(run_crash_swept(scheme))
        merge(run_sharded_scheduled(scheme))
        merge(run_sharded_crash_swept(scheme))
    return findings, totals
