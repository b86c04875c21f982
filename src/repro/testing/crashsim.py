"""Systematic crash injection for the storage engines.

The harness runs a workload once, against an engine whose
``PersistentMemory`` is a ``CrashablePM``: it counts memory events
(stores, flushes, fences) and hands the live memory to a visitor at
each selected one.  The crash visitor forks the memory at the N-th
event of that one run, discards the fork's volatile state under a
``CrashPolicy`` (any subset of unfenced atomic units may survive),
runs recovery on the fork, and checks the recovered database against
the model while the run itself keeps going:

* **durability** — every transaction whose ``commit()`` returned must
  be fully visible;
* **atomicity** — the transaction in flight at the crash must be
  either fully visible or fully invisible;
* **integrity** — the structures pass verification.

A crash image depends only on the durable arena and the at-risk words
at that instant, so a fork at event N is the image a run stopped at
event N would leave; ``tests/testing/test_crash_fork_equivalence.py``
keeps that true.  Sweeping the fork point across every memory event
of a workload explores every writeback interleaving the hardware could
produce — this is the executable form of the paper's Section 4.4 case
analysis.

What is run is a *shape*: :class:`SingleRun` (one session, item by
item), :class:`ScheduledRun` (N clients through the deterministic
scheduler), :class:`ShardedRun` (N clients over a sharded router),
:class:`HashRun` (one client through a hash index) or :class:`SqlRun`
(SQL statements, modelled by stdlib ``sqlite3``).  A shape's
``observe(engine)`` reads and verifies what it models, so the driver
compares states and knows no structure.  :func:`crash_sweep` visits
many points of one execution; :func:`crash_at` visits one point and
stops there.
"""

import random
import sys
from dataclasses import dataclass, field

from repro.core import SystemConfig, engine_class
from repro.core.scheduler import _ops_of, execute_op
from repro.obs.trace import RECOVERY_REPLAY
from repro.pm.crash import DropAll, RandomPersist
from repro.pm.memory import PersistentMemory

#: The crash harnesses' arena: small pages so a few dozen operations
#: exercise splits, reclaims and checkpoints.
SMALL_CONFIG = dict(
    npages=128, page_size=512, log_bytes=16384,
    heap_bytes=1 << 20, dram_bytes=64 * 512,
)


class CrashPoint(BaseException):
    """A power failure that stops the run (see :func:`power_fail`).  A
    ``BaseException``, as ``KeyboardInterrupt`` is: no ``except
    Exception`` handler runs after the power is cut, so none can store
    into the crashed arena."""


class AtomicityViolation(AssertionError):
    """The recovered state broke durability or atomicity."""


def power_fail(_pm):
    """The visitor that cuts the power at the visited event."""
    raise CrashPoint()


class CrashablePM(PersistentMemory):
    """A ``PersistentMemory`` whose memory events can be visited.

    Events are counted only while ``armed`` (so setup and recovery are
    exempt) and never inside an RTM commit (the hardware applies those
    stores indivisibly).  ``arm(points, visit)`` calls ``visit(pm)`` at
    each counted event whose index is in ``points``, before the event
    takes effect and with the memory disarmed.  A visitor that raises
    (:func:`power_fail`) ends the run there, still disarmed.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.armed = False
        self.events = 0
        self.points = ()
        self.visit = None

    def arm(self, points, visit):
        """Count events from zero, visiting those in ``points``."""
        self.points = points
        self.visit = visit
        self.events = 0
        self.armed = True

    def _tick(self):
        if not self.armed or getattr(self, "rtm_commit_in_progress", False):
            return
        self.events += 1
        if self.events in self.points:
            self.armed = False
            self.visit(self)
            self.armed = True

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
        if addr < 0 or addr + length > self.size or self.flush_forbidden:
            self._check_flush(addr, length, self.flush_instruction)
        flush = self.clwb if self.flush_instruction == "clwb" else self.clflush
        for line in range(addr >> 6, ((addr + length - 1) >> 6) + 1):
            flush(line << 6)


@dataclass
class CrashTestResult:
    """Outcome of one crash-and-recover check (or of an uncrashed run)."""

    crashed: bool
    committed: dict
    inflight: tuple
    recovered: dict
    violations: list = field(default_factory=list)
    #: ``recovery_replay`` trace events emitted while recovery ran
    #: (empty when the run completed without crashing).
    recovery_events: list = field(default_factory=list)
    #: Armed memory events counted: the crash point's index, or every
    #: event of a run that completed.
    events: int = 0
    #: Simulated ns recovery (``attach``) took on the crashed image
    #: (0.0 when the run completed or recovery crashed).
    recovery_ns: float = 0.0

    @property
    def ok(self):
        return not self.violations


def _writes_of(item):
    """The state-changing ops of an item (reads/thinks have none)."""
    return [
        op for op in _ops_of(item)
        if op[0] in ("insert", "update", "delete")
    ]


def _apply(model, item):
    """The dict model of committing ``item``: the reference oracle,
    kept apart from :func:`~repro.core.scheduler.execute_op`."""
    for kind, key, value in _writes_of(item):
        if kind == "insert":
            model[key] = value
        elif kind == "update":
            if key in model:
                model[key] = value
        else:
            model.pop(key, None)


def _replay(items, base=()):
    """Model state after applying ``items`` in order over ``base``."""
    model = dict(base)
    for item in items:
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
               for kind, key, _ in _writes_of(item)):
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

    A ``ShardRouter`` has no one epoch but one per shard, and those
    candidates are not modelled: while any shard's epoch has open
    members this raises ``NotImplementedError`` rather than check the
    crash against the plain model, which would report the open
    members as lost.
    """
    group = getattr(engine, "group", None)
    if group is None:
        if any(shard.group is not None and shard.group.member_count
               for shard in getattr(engine, "shards", ())):
            raise NotImplementedError(
                "crash check of a sharded run with open group-commit "
                "epochs: per-shard epoch candidates are not modelled"
            )
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
    return [_replay(items[:count]) for count in sorted(lengths)]


def _structure(verify):
    """``verify()``'s failed assertion as a violation list."""
    try:
        verify()
    except AssertionError as err:
        return ["structure: %s" % err]
    return []


def _validate(result, *, prefix_candidates=None):
    """Exact-state validation: the recovered state must equal either
    the committed model or committed-plus-the-whole-in-flight-
    transaction — nothing else (durability + atomicity + no phantoms
    in one comparison).  ``prefix_candidates`` swaps the single
    committed model for the legal states: group commit's epoch
    boundaries (:func:`_group_candidates`), or :class:`SqlRun`'s."""
    committed, inflight, recovered = (
        result.committed, result.inflight, result.recovered,
    )
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


# ----------------------------------------------------------------------
# Run shapes: what one execution builds, runs, and checks
# ----------------------------------------------------------------------


class _Shape:
    """What one execution builds, runs and checks.  A shape supplies
    ``run()``, ``state()`` — the ``(committed model, in-flight item,
    legal prefix candidates)`` at this instant of the run — and
    ``observe(engine)``, the same state read off an engine.

    ``preload`` (a mapping, or ``(key, value)`` pairs) is inserted
    before the checker attaches and arming starts; it is the model's
    base, as the first committed items (under group commit its last
    inserts may still ride the open epoch).  After a preload, a
    committed scan warms any DRAM page cache: writer contexts hit
    frames but never fill one."""

    def __init__(self, scheme, workload, preload=()):
        self.scheme = scheme
        self.workload = workload
        self.preload = [
            ("insert", key, value) for key, value in dict(preload).items()
        ]

    def _create(self, config):
        pm = CrashablePM.for_config(config)
        return engine_class(self.scheme).create(config, pm=pm), pm

    def build(self, config, checker_factory):
        """A fresh engine and checker, before arming; returns
        ``(pm, checker)``."""
        self.engine, self.pm = self._create(config)
        for _kind, key, value in self.preload:
            self.engine.insert(key, value, replace=True)
        if (self.preload
                and getattr(self.engine, "page_cache", None) is not None):
            list(self.engine.scan())
        self.checker = (
            checker_factory(self.engine) if checker_factory is not None
            else None
        )
        return self.pm, self.checker

    def attach(self, config, pm):
        """Re-open a crashed arena: recovery runs here."""
        return engine_class(self.scheme).attach(config, pm)

    def observe(self, engine):
        """``(state, structure violations)`` of a live or recovered
        engine, spelled as ``state()`` spells the model: here the
        B-tree's scan and ``verify()``."""
        return dict(engine.scan()), _structure(engine.verify)

    def recovered_violations(self, engine):
        """Checks beyond the model comparison after recovery."""
        return []

    def completed_violations(self):
        """Checks beyond the model comparison after a run that did not
        crash (a single session cannot skip an item, so none here)."""
        return []


class SingleRun(_Shape):
    """One client runs ``workload`` item by item, each item its own
    transaction: a bare ``(op, key, value)`` or ``("txn", [ops])``,
    ops as :func:`~repro.core.scheduler.execute_op` runs them.  With
    ``isolation`` the transactions run in one session of that mode,
    else on the engine's own transaction path.

    A ``checker_factory`` checker is refreshed from the committed
    state before every transaction, so persistence-ordering violations
    surface even at crash points that happen to recover cleanly."""

    def __init__(self, scheme, workload, *, preload=(), isolation=None):
        super().__init__(scheme, workload, preload)
        self.isolation = isolation

    def build(self, config, checker_factory):
        self.committed = _replay(self.preload)
        self.committed_items = list(self.preload)
        self.inflight = ()
        return super().build(config, checker_factory)

    def run(self):
        engine, checker = self.engine, self.checker
        session = None
        if self.isolation is not None:
            session = engine.session(self.isolation, isolation=self.isolation)
        begin = engine.transaction if session is None else session.transaction
        for item in self.workload:
            self.inflight = item
            if checker is not None:
                # Pure PM reads: refreshing the live set never ticks
                # an armed event or perturbs the traced store stream.
                checker.begin_txn(checker.live_ranges_of(engine))
            txn = begin()
            for op in _ops_of(item):
                self.execute(txn, *op)
            txn.commit()
            _apply(self.committed, item)
            self.committed_items.append(item)
            self.inflight = ()
        if session is not None:
            session.close()
        # End-of-run durability barrier (armed: a sweep also visits
        # every crash point inside the final epoch close) — a no-op
        # with grouping off.
        engine.drain_group_commit()

    execute = staticmethod(execute_op)

    def state(self):
        return (
            dict(self.committed), self.inflight,
            _group_candidates(self.engine, self.committed_items,
                              self.inflight),
        )


def _committed_items(clients, commit_order):
    """The committed transactions' writes, in commit order — strict 2PL
    makes the interleaving serializable in exactly that order, so their
    replay is the one state a correct recovery may expose (modulo the
    in-flight commit)."""
    items_of = {client.name: client.items for client in clients}
    return [
        ("txn", _writes_of(items_of[name][item_idx]))
        for name, item_idx in commit_order
    ]


class ScheduledRun(_Shape):
    """N clients interleaved by the deterministic scheduler.

    ``workloads`` is one entry per client: an item list (items as in
    :class:`SingleRun`, plus ``("search", key, None)`` reads), or
    ``{"items": [...], "isolation": mode}`` — see
    :func:`repro.core.scheduler.client_spec`.  Read-only clients change
    no durable state, but their presence at the crash exercises
    recovery with version chains live (all volatile: recovery starts
    with none).  OCC clients buffer their writes and install them at
    commit, so their model is a 2PL client's.  The recovered database
    must equal the committed transactions replayed in the scheduler's
    commit order, optionally plus the whole item that was in flight on
    the one client executing at the crash — any other state (a torn
    commit, a half-rolled-back abort, another session's uncommitted
    pages surfacing) is a violation.

    ``pick_strategy_factory`` (optional) builds a fresh scheduler
    ``pick_strategy`` per execution: the schedule-space explorer runs
    every explored interleaving this way, and crashes a *specific*
    one.  The strategy's ``sched_pick`` events live in the obs trace,
    not the crashable memory, so event indexes are unchanged by it.
    """

    def __init__(self, scheme, workloads, pick_strategy_factory=None, *,
                 preload=()):
        super().__init__(scheme, workloads, preload)
        self.pick_strategy_factory = pick_strategy_factory

    def build(self, config, checker_factory):
        from repro.core.scheduler import Scheduler, client_spec

        pm, checker = super().build(config, checker_factory)
        # No error cleanup: a CrashPoint is a simulated power failure,
        # and the recovered state must be exactly what the crash left
        # behind — rolling the running transaction back would write
        # *after* the power was cut.
        self.scheduler = Scheduler(
            self.engine, cleanup_on_error=False,
            on_step=None if checker is None else (
                lambda _client: checker.advance()
            ),
            pick_strategy=(
                self.pick_strategy_factory()
                if self.pick_strategy_factory is not None else None
            ),
        )
        for workload in self.workload:
            items, isolation = client_spec(workload)
            self.scheduler.add_client(items, isolation=isolation)
        return pm, checker

    def run(self):
        self.scheduler.run()

    def state(self):
        scheduler = self.scheduler
        ordered = self.preload + _committed_items(
            scheduler.clients, scheduler.commit_order,
        )
        # Only the client that was executing can have an in-flight
        # commit; every other open transaction was parked mid-operation
        # and its effects must vanish with the volatile state.
        inflight = ()
        running = scheduler.running_client
        if running is not None and not running.finished:
            writes = _writes_of(running.items[running.item_idx])
            if writes:
                inflight = ("txn", writes)
        return (
            _replay(ordered), inflight,
            _group_candidates(self.engine, ordered, inflight),
        )

    def completed_violations(self):
        """Every client drained its workload, and every commit it
        counted is in the global commit order."""
        violations = []
        order_counts = {}
        for name, _ in self.scheduler.commit_order:
            order_counts[name] = order_counts.get(name, 0) + 1
        for client in self.scheduler.clients:
            if client.commits != len(client.items):
                violations.append(
                    "client %r committed %d of %d items"
                    % (client.name, client.commits, len(client.items))
                )
            if order_counts.get(client.name, 0) != client.commits:
                violations.append(
                    "client %r commit count disagrees with commit order"
                    % client.name
                )
        return violations


class ShardedRun(ScheduledRun):
    """N clients over a ``shards``-way router with cross-shard 2PC.

    Recovery resolves in-doubt participants from the prepare/decision
    records, and the exact-state comparison is what makes the check a
    2PC conformance test: a transaction whose commit marks landed on
    some shards but not others recovers to a state that is neither the
    committed prefix nor prefix-plus-whole-in-flight-item, and fails as
    an atomicity blend."""

    def __init__(self, scheme, workloads, shards=2, *, preload=()):
        super().__init__(scheme, workloads, preload=preload)
        self.shards = shards

    def _create(self, config):
        from repro.storage.sharding import ShardRouter, total_arena_bytes

        pm = CrashablePM.for_config(
            config, total_arena_bytes(config, self.shards),
        )
        router = ShardRouter.create(
            config, self.shards, scheme=self.scheme, pm=pm,
        )
        return router, pm

    def attach(self, config, pm):
        from repro.storage.sharding import ShardRouter

        return ShardRouter.attach(config, self.shards, pm, scheme=self.scheme)

    def recovered_violations(self, router):
        """All-or-nothing across shards: after attach, no shard may
        carry a leftover prepare record and the coordinator must be
        clear."""
        violations = [
            "2PC: prepare record survived recovery on a shard"
            for shard in router.shards if shard.twopc.prepared() is not None
        ]
        if router.coordinator.decided_commit() is not None:
            violations.append("2PC: decision record survived recovery")
        return violations


class HashRun(SingleRun):
    """:class:`SingleRun` items (inserts and deletes) run through a
    4-bucket :class:`~repro.hashindex.HashIndex`, made before arming,
    against the same dict model."""

    def __init__(self, scheme, workload):
        from repro.hashindex import HashIndex

        super().__init__(scheme, workload)
        self.index = HashIndex(root_slot=1, nbuckets=4)

    def _create(self, config):
        engine, pm = super()._create(config)
        with engine.transaction() as txn:
            self.index.create(txn.ctx)
        return engine, pm

    def execute(self, txn, kind, key, value):
        if kind == "insert":
            self.index.insert(txn.ctx, key, value, replace=True)
        elif kind == "delete":
            self.index.delete(txn.ctx, key)
        else:
            raise ValueError("a hash run has no %r op" % (kind,))

    def observe(self, engine):
        view = engine.read_view()
        return (dict(self.index.items(view)),
                _structure(lambda: self.index.verify(view)))


class SqlRun(_Shape):
    """``(sql, params)`` statements, transaction control and savepoints
    included, run through a :class:`~repro.db.Database`.  The model is
    stdlib ``sqlite3``: the statements run there once, keeping the
    state after each commit boundary (``snapshots``; ``boundaries[i]``
    is the one in force as statement *i* starts).  While statement *i*
    runs, that boundary and the next one are legal.  A state is
    ``{(table, primary key): row, ("schema", name): kind}``."""

    def __init__(self, scheme, statements):
        import sqlite3

        super().__init__(scheme, statements)
        conn = sqlite3.connect(":memory:", isolation_level=None)
        self.snapshots, self.boundaries = [_sql_state(conn)], []
        for sql, params in statements:
            self.boundaries.append(len(self.snapshots) - 1)
            conn.execute(sql, params)
            if not conn.in_transaction:
                self.snapshots.append(_sql_state(conn))
        self.boundaries.append(len(self.snapshots) - 1)

    def run(self):
        from repro.db import Database

        db = Database(self.engine)
        for self.position, (sql, params) in enumerate(self.workload):
            db.execute(sql, params)
        self.position = len(self.workload)

    def state(self):
        first = self.boundaries[self.position]
        legal = self.snapshots[first:first + 2]
        return legal[0], (), legal

    def observe(self, engine):
        """Also: each index holds exactly its table's rows."""
        from repro.db import Database
        from repro.db.records import decode_row
        from repro.db.sql.executor import Executor

        catalog = Database(engine).catalog
        state, violations, slots = {}, [], [0]  # 0: the schema tree
        for name, table in catalog.tables().items():
            state[("schema", name)] = "table"
            rows = [decode_row(value) for _, value
                    in engine.scan(root_slot=table.root_slot)]
            state.update(((name, row[table.pk_index]), row) for row in rows)
            for index in catalog.indexes_on(name):
                state[("schema", index.name)] = "index"
                slots.append(index.root_slot)
                entries = [key for key, _ in
                           engine.scan(root_slot=index.root_slot)]
                if entries != sorted(Executor._entry_key(table, index, row)
                                     for row in rows):
                    violations.append("index %s: %d entries, table %s: %d "
                                      "rows" % (index.name, len(entries),
                                                name, len(rows)))
            slots.append(table.root_slot)
        violations += _structure(lambda: [engine.verify(s) for s in slots])
        return state, violations


def _sql_state(conn):
    """A ``sqlite3`` database spelled as :class:`SqlRun` spells a state."""
    state = {}
    for kind, name in conn.execute("SELECT type, name FROM sqlite_master"):
        state[("schema", name)] = kind
        if kind == "table":
            pk = [column[5] for column in
                  conn.execute("PRAGMA table_info(%s)" % name)].index(1)
            for row in conn.execute("SELECT * FROM %s" % name):
                state[(name, row[pk])] = row
    return state


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------


def _recover(shape, config, image, point, state):
    """Recover the crashed ``image`` and validate it against the
    ``(committed, inflight, candidates)`` the run had at ``point``."""
    committed, inflight, candidates = state
    start_seq = image.obs.trace.seq
    start_ns = image.clock.now_ns  # 0.0 on a fork's fresh clock
    try:
        engine = shape.attach(config, image)
        recovery_ns = image.clock.now_ns - start_ns
        recovered, structure = shape.observe(engine)
    except Exception as err:  # corruption can crash recovery itself
        return CrashTestResult(True, committed, inflight, {}, events=point,
                               violations=["recovery crashed: %s: %s"
                                           % (type(err).__name__, err)])
    result = CrashTestResult(
        True, committed, inflight, recovered, events=point,
        recovery_ns=recovery_ns,
        recovery_events=image.obs.trace.events(
            kind=RECOVERY_REPLAY, since_seq=start_seq,
        ),
        violations=shape.recovered_violations(engine) + structure,
    )
    return _validate(result, prefix_candidates=candidates)


def _drive(shape, config, points, policies_at, checker_factory, stop=False):
    """Execute ``shape`` once.  At each armed event in ``points``, fork
    the live memory once per policy in ``policies_at(point)``, crash
    the fork under it, recover and validate; ``stop`` ends the run at
    the first visited point.  Returns the ``(point, result)`` list in
    visit order.

    A checker from ``checker_factory`` observes the run itself: it is
    finished when the run completes or sealed at the stopping crash, and
    never sees a fork's recovery (whose redo stores legitimately rewrite
    live bytes)."""
    pm, checker = shape.build(config, checker_factory)
    results = []

    def visit(live):
        state = shape.state()
        for policy in policies_at(live.events):
            image = live.fork()
            image.crash(policy)
            results.append(
                (live.events, _recover(shape, config, image, live.events,
                                       state))
            )
        if stop:
            raise CrashPoint()

    pm.arm(points, visit)
    try:
        shape.run()
    except CrashPoint:
        pass
    else:
        if checker is not None:
            checker.finish()  # a completed run gets end-of-stream checks
    finally:
        pm.armed = False
        if checker is not None:
            checker.close()
    return results


def _completed(shape, config, events=0, violations=()):
    """The checks of a run that completed: the live engine's observed
    state is structurally sound and equals the committed model, and so
    does the state a ``DropAll`` power failure now recovers to (a fork
    of the arena, recovered through :func:`_recover`).  ``violations``:
    what the caller already found."""
    state = shape.state()
    committed, inflight, _ = state
    live, structure = shape.observe(shape.engine)
    result = CrashTestResult(
        False, committed, inflight, live,
        violations=[*violations, *structure], events=events,
    )
    _validate(result)
    image = shape.pm.fork()
    image.crash(DropAll())
    result.violations.extend(
        "after DropAll + attach: %s" % violation
        for violation in _recover(shape, config, image, events,
                                  state).violations
    )
    return result


def crash_at(shape, budget, *, config=None, policy=None, seed=0,
             checker_factory=None):
    """Run ``shape``, crash it at armed event ``budget`` under
    ``policy`` (default: ``RandomPersist`` seeded with ``seed``),
    recover and validate; returns the ``CrashTestResult``.

    A run that ends before ``budget`` (or ``budget=None``) is checked
    as completed instead: every client must have drained its items, and
    its live state, and the state a ``DropAll`` crash of it recovers
    to, must equal the full committed model."""
    config = config or SystemConfig(**SMALL_CONFIG)
    results = _drive(
        shape, config, () if budget is None else (budget,),
        lambda _point: [policy or RandomPersist(rng=random.Random(seed))],
        checker_factory, stop=True,
    )
    if results:
        return results[0][1]
    return _completed(shape, config, shape.pm.events,
                      shape.completed_violations())


def crash_sweep(shape, *, config=None, stride=1, seeds=(0, 1),
                policies=None, max_points=None, checker_factory=None):
    """Crash ``shape`` at every ``stride``-th armed memory event (thinned
    to about ``max_points``), all forked from one execution, under each
    of ``policies`` or else a ``RandomPersist`` per seed (seed 0 means
    "seeded with the point").  Returns every ``(point, result)`` in
    ascending point order, so stateful policies see the points in
    order."""
    config = config or SystemConfig(**SMALL_CONFIG)
    points = range(1, sys.maxsize, stride)
    if max_points is not None:
        # Thinning needs the event total: one uncrashed execution.
        _drive(shape, config, (), None, None)
        points = range(1, shape.pm.events + 1, stride)
        if len(points) > max_points:
            points = points[::max(1, len(points) // max_points)]

    def policies_at(point):
        if policies is not None:
            return list(policies)
        return [RandomPersist(rng=random.Random(seed or point))
                for seed in seeds]

    return _drive(shape, config, points, policies_at, checker_factory)


def failing(results):
    """The ``(point, result)`` pairs of a sweep that broke an invariant
    (empty = the scheme survived every crash point)."""
    return [(point, result) for point, result in results if not result.ok]


def check_committed_prefix(engine, scheduler, *, preloaded=None):
    """The committed-prefix check of a *finished* scheduled run that a
    test drove itself: :func:`crash_at`'s completed-run check, with the
    model replaying ``scheduler.commit_order`` over the ``preloaded``
    records.  Raises ``AtomicityViolation`` on a mismatch.  The engine
    keeps running: the power failure hits a fork of its arena."""
    shape = ScheduledRun(engine.scheme, (), preload=preloaded or ())
    shape.engine, shape.pm, shape.scheduler = engine, engine.pm, scheduler
    result = _completed(shape, engine.config)
    if not result.ok:
        raise AtomicityViolation(
            "state is not the committed model: %s"
            % "; ".join(result.violations[:3])
        )
