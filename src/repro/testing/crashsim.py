"""Systematic crash injection for the storage engines.

The harness runs a workload of single-operation transactions against
an engine whose ``PersistentMemory`` is replaced by ``CrashablePM``,
which raises ``CrashPoint`` after a chosen number of memory events
(stores, flushes, fences).  At the crash point the volatile state is
discarded under a ``CrashPolicy`` (any subset of unfenced atomic units
may survive), recovery runs, and the recovered database is checked
against the model:

* **durability** — every transaction whose ``commit()`` returned must
  be fully visible;
* **atomicity** — the transaction in flight at the crash must be
  either fully visible or fully invisible;
* **integrity** — the B-tree passes structural verification.

Sweeping the crash point across every memory event of a workload
explores every writeback interleaving the hardware could produce —
this is the executable form of the paper's Section 4.4 case analysis.
"""

import random
from dataclasses import dataclass, field

from repro.core import SystemConfig, engine_class
from repro.obs.trace import RECOVERY_REPLAY
from repro.pm.crash import DropAll, RandomPersist
from repro.pm.memory import PersistentMemory


class CrashPoint(Exception):
    """Raised by ``CrashablePM`` when the event budget is exhausted."""


class AtomicityViolation(AssertionError):
    """The recovered state broke durability or atomicity."""


class CrashablePM(PersistentMemory):
    """A ``PersistentMemory`` that power-fails after N memory events.

    Events are counted only while ``armed`` (so setup and recovery are
    exempt) and never inside an RTM commit (the hardware applies those
    stores indivisibly).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.armed = False
        self.budget = None
        self.events = 0

    def _tick(self):
        if not self.armed or getattr(self, "rtm_commit_in_progress", False):
            return
        self.events += 1
        if self.budget is not None and self.events >= self.budget:
            self.armed = False
            raise CrashPoint()

    def write(self, addr, data):
        self._tick()
        super().write(addr, data)

    def clflush(self, addr):
        self._tick()
        super().clflush(addr)

    def clwb(self, addr):
        self._tick()
        super().clwb(addr)

    def sfence(self):
        self._tick()
        super().sfence()

    mfence = sfence

    # ``PersistentMemory``'s fast paths (fixed-width stores, the
    # inlined ``flush_range`` loop) bypass the overridable methods
    # above for speed.  Here every store and every per-line flush must
    # remain an interceptable event — "every memory event is a crash
    # point" — so route them back through the generic paths, which
    # have identical simulated cost and semantics.

    def write_u16(self, addr, value):
        self.write(addr, value.to_bytes(2, "little"))

    def write_u32(self, addr, value):
        self.write(addr, value.to_bytes(4, "little"))

    def write_u64(self, addr, value):
        self.write(addr, value.to_bytes(8, "little"))

    def flush_range(self, addr, length):
        if length <= 0:
            return
        flush = self.clwb if self.flush_instruction == "clwb" else self.clflush
        for line in range(addr >> 6, ((addr + length - 1) >> 6) + 1):
            flush(line << 6)


@dataclass
class CrashTestResult:
    """Outcome of one crash-and-recover run."""

    crashed: bool
    committed: dict
    inflight: tuple
    recovered: dict
    violations: list = field(default_factory=list)
    #: ``recovery_replay`` trace events emitted while recovery ran
    #: (empty when the run completed without crashing).
    recovery_events: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations


def _build_engine(config, scheme):
    cls = engine_class(scheme)
    pm = CrashablePM(
        config.arena_bytes,
        latency=config.latency,
        cost=config.cost,
        atomic_granularity=config.atomic_granularity,
        cache_lines=config.cache_lines,
    )
    return cls.create(config, pm=pm), pm


def _ops_of(item):
    """A workload item is one op or a composite ("txn", [ops...])."""
    if item[0] == "txn":
        return list(item[1])
    return [item]


def _apply(model, item):
    for kind, key, value in _ops_of(item):
        if kind == "insert":
            model[key] = value
        elif kind == "update":
            if key in model:
                model[key] = value
        elif kind == "delete":
            model.pop(key, None)
        else:
            raise ValueError("unknown op %r" % (kind,))


def _execute(txn, item):
    for kind, key, value in _ops_of(item):
        if kind == "insert":
            txn.insert(key, value, replace=True)
        elif kind == "update":
            txn.update(key, value)
        else:
            txn.delete(key)


def _prefix_model(items, count):
    """Model state after the first ``count`` committed items."""
    model = {}
    for item in items[:count]:
        _apply(model, item)
    return model


def _dirtying_positions(items):
    """Indexes of the ``items`` whose commit dirtied a page.  Only
    those join an epoch: a read-only item, or one whose updates and
    deletes all missed, commits without staging anything."""
    model = {}
    positions = []
    for index, item in enumerate(items):
        if any(kind == "insert" or key in model
               for kind, key, _ in _ops_of(item)):
            positions.append(index)
        _apply(model, item)
    return positions


def _group_candidates(engine, items, inflight):
    """Recovered-state candidates under group commit, or None.

    With ``SystemConfig.group_commit_size`` set, the open epoch's M members
    are committed but not yet durable: a crash before the shared fence
    + group mark loses all M, a crash after the mark (mid-close) loses
    none.  A crash inside a commit that already joined the epoch
    shifts the boundary by one.  Everything in between — some members
    recovered, others not — is exactly the torn-group atomicity
    violation this harness exists to catch, so only the boundary
    prefixes are legal.  ``items`` must be ``_apply``-able committed
    items in commit order; the members are the last M of them *that
    dirtied a page* (the commit order also holds items that never
    joined — reads, no-op deletes).
    """
    group = getattr(engine, "group", None)
    if group is None:
        return None
    members = group.member_count
    total = len(items)
    joined = _dirtying_positions(items)

    def without_last(count):
        """Prefix length that loses the last ``count`` members: it
        ends where the earliest of them starts (whatever follows that
        one and is not a member changes nothing)."""
        if count <= 0:
            return total
        return joined[-count] if count <= len(joined) else 0

    lengths = {without_last(members), total}
    if inflight:
        lengths.add(without_last(members - 1))
    return [_prefix_model(items, count) for count in sorted(lengths)]


def run_to_crash_point(scheme, workload, budget, *, config=None, policy=None,
                       seed=0, checker_factory=None):
    """Run ``workload`` (a list of ``(op, key, value)`` single-op
    transactions), crash after ``budget`` armed memory events, recover,
    and validate.  ``budget=None`` runs to completion (baseline).

    ``checker_factory`` (optional) is called with the fresh engine and
    must return a ``repro.analysis.TraceChecker``-shaped object; the
    run then drives it transaction by transaction so persistence-
    ordering violations surface even at crash points that happen to
    recover cleanly.  The checker observes the run only up to the
    crash — recovery's redo stores legitimately rewrite live bytes.

    Returns a ``CrashTestResult``; ``result.violations`` lists every
    broken invariant (empty = the scheme survived this crash point).
    """
    config = config or SystemConfig(
        npages=128, page_size=512, log_bytes=16384,
        heap_bytes=1 << 20, dram_bytes=64 * 512,
    )
    engine, pm = _build_engine(config, scheme)
    checker = checker_factory(engine) if checker_factory is not None else None
    committed = {}
    committed_items = []
    inflight = ()
    crashed = False
    pm.budget = budget
    pm.events = 0
    pm.armed = True
    try:
        for op in workload:
            inflight = op
            if checker is not None:
                # Pure PM reads: refreshing the live set never ticks
                # the crash budget or perturbs the traced store stream.
                checker.begin_txn(checker.live_ranges_of(engine))
            txn = engine.transaction()
            _execute(txn, op)
            txn.commit()
            _apply(committed, op)
            committed_items.append(op)
            inflight = ()
        # End-of-run durability barrier (armed: the sweep also visits
        # every crash point inside the final epoch close) — a no-op
        # with grouping off.
        engine.drain_group_commit()
    except CrashPoint:
        crashed = True
    finally:
        pm.armed = False
        if checker is not None:
            checker.close()  # seal at the crash; recovery is unchecked

    if not crashed:
        recovered = {k: v for k, v in engine.scan()}
        result = CrashTestResult(False, committed, inflight, recovered)
        _validate(engine, result)
        return result

    prefix_candidates = _group_candidates(engine, committed_items, inflight)
    pm.crash(policy or RandomPersist(rng=random.Random(seed)))
    recovery_start_seq = pm.obs.trace.seq
    try:
        engine = engine_class(scheme).attach(config, pm)
        recovered = {k: v for k, v in engine.scan()}
    except Exception as err:  # corruption can crash recovery itself
        result = CrashTestResult(True, committed, inflight, {})
        result.violations.append(
            "recovery crashed: %s: %s" % (type(err).__name__, err)
        )
        return result
    result = CrashTestResult(True, committed, inflight, recovered)
    result.recovery_events = pm.obs.trace.events(
        kind=RECOVERY_REPLAY, since_seq=recovery_start_seq
    )
    _validate(engine, result, prefix_candidates=prefix_candidates)
    return result


def _validate(engine, result, *, prefix_candidates=None):
    """Exact-state validation: the recovered database must equal either
    the committed model or committed-plus-the-whole-in-flight-
    transaction — nothing else (durability + atomicity + no phantoms
    in one comparison).  ``prefix_candidates`` (group commit) swaps
    the single committed model for the legal epoch-boundary prefixes
    from :func:`_group_candidates`."""
    committed, inflight, recovered = (
        result.committed, result.inflight, result.recovered,
    )
    try:
        engine.verify()
    except AssertionError as err:
        result.violations.append("structure: %s" % err)

    candidates = list(prefix_candidates) if prefix_candidates else [committed]
    if inflight:
        with_inflight = dict(committed)
        _apply(with_inflight, inflight)
        candidates.append(with_inflight)
    if any(recovered == candidate for candidate in candidates):
        return result
    # Build a readable diff against the closest candidate.
    candidate = candidates[0]
    for key, value in candidate.items():
        if recovered.get(key) != value:
            result.violations.append(
                "durability: expected %r -> %r but recovered %r"
                % (key, value, recovered.get(key))
            )
    allowed = set().union(*[set(c) for c in candidates])
    for key in recovered:
        if key not in allowed:
            result.violations.append("phantom key %r after recovery" % key)
    if not result.violations:
        result.violations.append(
            "atomicity: recovered state is a blend of the in-flight "
            "transaction (neither fully applied nor fully absent)"
        )
    return result


def crash_points_in(scheme, workload, *, config=None):
    """Total armed memory events the workload generates (the sweep
    range for exhaustive injection)."""
    config = config or SystemConfig(
        npages=128, page_size=512, log_bytes=16384,
        heap_bytes=1 << 20, dram_bytes=64 * 512,
    )
    engine, pm = _build_engine(config, scheme)
    pm.budget = None
    pm.events = 0
    pm.armed = True
    for op in workload:
        txn = engine.transaction()
        _execute(txn, op)
        txn.commit()
    engine.drain_group_commit()
    pm.armed = False
    return pm.events


# ----------------------------------------------------------------------
# Crash injection through the multi-client scheduler
# ----------------------------------------------------------------------

_SMALL_CONFIG = dict(
    npages=128, page_size=512, log_bytes=16384,
    heap_bytes=1 << 20, dram_bytes=64 * 512,
)


def _writes_of(item):
    """The state-changing ops of an item (reads/thinks have none)."""
    return [
        op for op in _ops_of(item)
        if op[0] in ("insert", "update", "delete")
    ]


def _scheduled_model(clients, commit_order, preloaded=None):
    """Replay the committed transactions in commit order (over the
    ``preloaded`` records, if any) — strict 2PL makes the interleaving
    serializable in exactly that order, so this is the one state a
    correct recovery may expose (modulo the in-flight commit)."""
    items_of = {client.name: client.items for client in clients}
    model = dict(preloaded or ())
    for name, item_idx in commit_order:
        _apply(model, ("txn", _writes_of(items_of[name][item_idx])))
    return model


def check_committed_prefix(engine, scheduler, *, preloaded=None):
    """The committed-prefix oracle for a *finished* scheduled run:
    ``verify()`` passes and a scan equals the plain-dict model that
    replays ``scheduler.commit_order`` over the ``preloaded`` records —
    on the live engine, then again on a fresh attach after a
    ``DropAll`` power failure.  Raises ``AtomicityViolation`` (or
    ``verify()``'s own ``AssertionError``) at the first mismatch.

    The crash destroys the engine's volatile state: call this last.
    """
    model = _scheduled_model(
        scheduler.clients, scheduler.commit_order, preloaded
    )

    def expect_model(engine, label):
        engine.verify()
        found = dict(engine.scan())
        if found != model:
            wrong = sorted(
                key for key in set(found) | set(model)
                if found.get(key) != model.get(key)
            )
            raise AtomicityViolation(
                "%s scan != committed model at %d keys, first %r"
                % (label, len(wrong), wrong[:3])
            )

    expect_model(engine, "live")
    engine.pm.crash(DropAll())
    expect_model(type(engine).attach(engine.config, engine.pm), "recovered")


def run_scheduler_to_crash_point(scheme, workloads, budget, *, config=None,
                                 policy=None, seed=0, checker_factory=None,
                                 pick_strategy_factory=None):
    """Crash an N-client scheduled run after ``budget`` armed memory
    events, recover, and validate the serializable committed prefix.

    ``workloads`` is one entry per client: an item list (items as in
    ``run_to_crash_point``: bare ``(op, key, value)`` tuples or
    ``("txn", [ops])``, plus ``("search", key, None)`` reads), or
    ``{"items": [...], "isolation": mode}`` — see
    :func:`repro.core.scheduler.client_spec`.  Read-only clients (pure
    ``search``/``think`` items) change no durable state, so the
    committed-prefix model is untouched by them — but their presence
    at the crash exercises recovery with version chains live (all
    volatile: recovery starts with none).  OCC clients buffer their
    writes and install them at commit, so their model is a 2PL
    client's: only committed transactions may surface, in commit order.
    The recovered database must equal the committed transactions
    replayed in the scheduler's commit order, optionally plus the
    whole item that was in flight on the one client executing at the
    crash — any other state (a torn commit, a half-rolled-back abort,
    another session's uncommitted pages surfacing) is a violation.

    ``checker_factory`` (optional) attaches a trace checker to the run
    (advanced at every scheduler step, sealed at the crash — recovery's
    redo stores are legitimately out of scope).

    ``pick_strategy_factory`` (optional) builds a fresh scheduler
    ``pick_strategy`` per run, so the schedule-space explorer can crash
    a *specific* explored interleaving (the schedule × crash-point
    product mode).  The strategy's ``sched_pick`` events live in the
    obs trace, not the crashable memory, so arming budgets are
    unchanged by it.
    """
    from repro.core.scheduler import Scheduler, client_spec

    config = config or SystemConfig(**_SMALL_CONFIG)
    engine, pm = _build_engine(config, scheme)
    checker = checker_factory(engine) if checker_factory is not None else None
    on_step = None if checker is None else (lambda _client: checker.advance())
    # No error cleanup: a CrashPoint is a simulated power failure, and
    # the recovered state must be exactly what the crash left behind —
    # rolling the running transaction back would write *after* the
    # power was cut.
    scheduler = Scheduler(
        engine, cleanup_on_error=False, on_step=on_step,
        pick_strategy=(
            pick_strategy_factory() if pick_strategy_factory is not None
            else None
        ),
    )
    for workload in workloads:
        items, isolation = client_spec(workload)
        scheduler.add_client(items, isolation=isolation)
    crashed = False
    pm.budget = budget
    pm.events = 0
    pm.armed = True
    try:
        scheduler.run()
    except CrashPoint:
        crashed = True
    finally:
        pm.armed = False
        if checker is not None:
            checker.close()

    committed = _scheduled_model(scheduler.clients, scheduler.commit_order)

    if not crashed:
        recovered = {k: v for k, v in engine.scan()}
        result = CrashTestResult(False, committed, (), recovered)
        # Per-session invariants: every client drained its workload,
        # and every commit it counted is in the global commit order.
        order_counts = {}
        for name, _ in scheduler.commit_order:
            order_counts[name] = order_counts.get(name, 0) + 1
        for client in scheduler.clients:
            if client.commits != len(client.items):
                result.violations.append(
                    "client %r committed %d of %d items"
                    % (client.name, client.commits, len(client.items))
                )
            if order_counts.get(client.name, 0) != client.commits:
                result.violations.append(
                    "client %r commit count disagrees with commit order"
                    % client.name
                )
        _validate(engine, result)
        return result

    # Only the client that was executing can have an in-flight commit;
    # every other open transaction was parked mid-operation and its
    # effects must vanish with the volatile state.
    inflight = ()
    running = scheduler.running_client
    if running is not None and not running.finished:
        writes = _writes_of(running.items[running.item_idx])
        if writes:
            inflight = ("txn", writes)

    # Group commit: the serializable committed prefix may legally stop
    # at the open epoch's boundary instead of the full commit order.
    items_of = {client.name: client.items for client in scheduler.clients}
    ordered = [
        ("txn", _writes_of(items_of[name][item_idx]))
        for name, item_idx in scheduler.commit_order
    ]
    prefix_candidates = _group_candidates(engine, ordered, inflight)

    pm.crash(policy or RandomPersist(rng=random.Random(seed)))
    try:
        engine = engine_class(scheme).attach(config, pm)
        recovered = {k: v for k, v in engine.scan()}
    except Exception as err:  # corruption can crash recovery itself
        result = CrashTestResult(True, committed, inflight, {})
        result.violations.append(
            "recovery crashed: %s: %s" % (type(err).__name__, err)
        )
        return result
    result = CrashTestResult(True, committed, inflight, recovered)
    _validate(engine, result, prefix_candidates=prefix_candidates)
    return result


def scheduler_crash_points_in(scheme, workloads, *, config=None,
                              pick_strategy_factory=None):
    """Armed memory events in a full scheduled run (the sweep range)."""
    from repro.core.scheduler import Scheduler, client_spec

    config = config or SystemConfig(**_SMALL_CONFIG)
    engine, pm = _build_engine(config, scheme)
    scheduler = Scheduler(
        engine, cleanup_on_error=False,
        pick_strategy=(
            pick_strategy_factory() if pick_strategy_factory is not None
            else None
        ),
    )
    for workload in workloads:
        items, isolation = client_spec(workload)
        scheduler.add_client(items, isolation=isolation)
    pm.budget = None
    pm.events = 0
    pm.armed = True
    scheduler.run()
    pm.armed = False
    return pm.events


def run_scheduler_crash_sweep(scheme, workloads, *, config=None, stride=1,
                              seeds=(0, 1), policies=None, max_points=None,
                              checker_factory=None,
                              pick_strategy_factory=None):
    """Crash the scheduled multi-client run at every ``stride``-th
    memory event; returns the failing ``CrashTestResult`` list (empty =
    the committed prefix survived every interleaved crash point)."""
    total = scheduler_crash_points_in(
        scheme, workloads, config=config,
        pick_strategy_factory=pick_strategy_factory,
    )
    budgets = list(range(1, total + 1, stride))
    if max_points is not None and len(budgets) > max_points:
        step = max(1, len(budgets) // max_points)
        budgets = budgets[::step]
    failures = []
    for budget in budgets:
        if policies is not None:
            runs = [(None, policy) for policy in policies]
        else:
            runs = [(seed, None) for seed in seeds]
        for seed, policy in runs:
            result = run_scheduler_to_crash_point(
                scheme, workloads, budget,
                config=config, policy=policy, seed=seed or budget,
                checker_factory=checker_factory,
                pick_strategy_factory=pick_strategy_factory,
            )
            if not result.ok:
                failures.append((budget, result))
    return failures


# ----------------------------------------------------------------------
# Crash injection through the sharded router (cross-shard 2PC)
# ----------------------------------------------------------------------


def _build_sharded(config, scheme, nshards):
    from repro.storage.sharding import ShardRouter, total_arena_bytes

    pm = CrashablePM(
        total_arena_bytes(config, nshards),
        latency=config.latency,
        cost=config.cost,
        atomic_granularity=config.atomic_granularity,
        cache_lines=config.cache_lines,
    )
    return ShardRouter.create(config, nshards, scheme=scheme, pm=pm), pm


def run_sharded_to_crash_point(scheme, workloads, budget, *, shards=2,
                               config=None, policy=None, seed=0,
                               checker_factory=None):
    """Crash an N-client run over a sharded router after ``budget``
    armed memory events, recover (resolving in-doubt 2PC participants
    from the prepare/decision records), and validate.

    The validation is the same exact-state comparison as the unsharded
    scheduler harness — which is precisely what makes it a 2PC
    conformance check: a transaction whose commit marks landed on some
    shards but not others recovers to a state that is neither the
    committed prefix nor prefix-plus-whole-in-flight-item, and fails
    as an atomicity blend.
    """
    from repro.core.scheduler import Scheduler, client_spec
    from repro.storage.sharding import ShardRouter

    config = config or SystemConfig(**_SMALL_CONFIG)
    router, pm = _build_sharded(config, scheme, shards)
    checker = checker_factory(router) if checker_factory is not None else None
    scheduler = Scheduler(
        router, cleanup_on_error=False,
        on_step=None if checker is None else lambda _client: checker.advance(),
    )
    for workload in workloads:
        items, isolation = client_spec(workload)
        scheduler.add_client(items, isolation=isolation)
    crashed = False
    pm.budget = budget
    pm.events = 0
    pm.armed = True
    try:
        scheduler.run()
    except CrashPoint:
        crashed = True
    finally:
        pm.armed = False
        if checker is not None:
            checker.close()  # seal at the crash; recovery is unchecked

    committed = _scheduled_model(scheduler.clients, scheduler.commit_order)

    if not crashed:
        recovered = {k: v for k, v in router.scan()}
        result = CrashTestResult(False, committed, (), recovered)
        _validate(router, result)
        return result

    inflight = ()
    running = scheduler.running_client
    if running is not None and not running.finished:
        writes = _writes_of(running.items[running.item_idx])
        if writes:
            inflight = ("txn", writes)

    pm.crash(policy or RandomPersist(rng=random.Random(seed)))
    try:
        router = ShardRouter.attach(config, shards, pm, scheme=scheme)
        recovered = {k: v for k, v in router.scan()}
    except Exception as err:  # corruption can crash recovery itself
        result = CrashTestResult(True, committed, inflight, {})
        result.violations.append(
            "recovery crashed: %s: %s" % (type(err).__name__, err)
        )
        return result
    result = CrashTestResult(True, committed, inflight, recovered)
    # All-or-nothing across shards: after attach, no shard may carry a
    # leftover prepare record and the coordinator must be clear.
    for shard in router.shards:
        if shard.twopc.prepared() is not None:
            result.violations.append(
                "2PC: prepare record survived recovery on a shard"
            )
    if router.coordinator.decided_commit() is not None:
        result.violations.append("2PC: decision record survived recovery")
    _validate(router, result)
    return result


def sharded_crash_points_in(scheme, workloads, *, shards=2, config=None):
    """Armed memory events in a full sharded run (the sweep range)."""
    from repro.core.scheduler import Scheduler, client_spec

    config = config or SystemConfig(**_SMALL_CONFIG)
    router, pm = _build_sharded(config, scheme, shards)
    scheduler = Scheduler(router, cleanup_on_error=False)
    for workload in workloads:
        items, isolation = client_spec(workload)
        scheduler.add_client(items, isolation=isolation)
    pm.budget = None
    pm.events = 0
    pm.armed = True
    scheduler.run()
    pm.armed = False
    return pm.events


def run_sharded_crash_sweep(scheme, workloads, *, shards=2, config=None,
                            stride=1, seeds=(0, 1), policies=None,
                            max_points=None, checker_factory=None):
    """Crash the sharded multi-client run at every ``stride``-th memory
    event — which enumerates every instant between redo-frame writes,
    prepare records, the coordinator decision, and the per-shard commit
    marks — and validate all-shards-or-none recovery at each.  Returns
    the failing ``CrashTestResult`` list (empty = conformant)."""
    total = sharded_crash_points_in(
        scheme, workloads, shards=shards, config=config,
    )
    budgets = list(range(1, total + 1, stride))
    if max_points is not None and len(budgets) > max_points:
        step = max(1, len(budgets) // max_points)
        budgets = budgets[::step]
    failures = []
    for budget in budgets:
        if policies is not None:
            runs = [(None, policy) for policy in policies]
        else:
            runs = [(seed, None) for seed in seeds]
        for seed, policy in runs:
            result = run_sharded_to_crash_point(
                scheme, workloads, budget, shards=shards,
                config=config, policy=policy, seed=seed or budget,
                checker_factory=checker_factory,
            )
            if not result.ok:
                failures.append((budget, result))
    return failures


def run_crash_sweep(scheme, workload, *, config=None, stride=1, seeds=(0, 1),
                    policies=None, max_points=None, checker_factory=None):
    """Crash the workload at every ``stride``-th memory event under
    each policy/seed; returns the list of failing ``CrashTestResult``.
    ``checker_factory`` attaches a fresh trace checker to every
    budgeted run (see ``run_to_crash_point``).

    An empty return value is the theorem the paper argues in Section
    4.4: no crash point and no writeback ordering breaks the scheme.
    """
    total = crash_points_in(scheme, workload, config=config)
    budgets = list(range(1, total + 1, stride))
    if max_points is not None and len(budgets) > max_points:
        step = max(1, len(budgets) // max_points)
        budgets = budgets[::step]
    failures = []
    for budget in budgets:
        if policies is not None:
            runs = [(None, policy) for policy in policies]
        else:
            runs = [(seed, None) for seed in seeds]
        for seed, policy in runs:
            result = run_to_crash_point(
                scheme, workload, budget,
                config=config, policy=policy, seed=seed or budget,
                checker_factory=checker_factory,
            )
            if not result.ok:
                failures.append((budget, result))
    return failures
