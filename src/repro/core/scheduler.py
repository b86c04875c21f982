"""Deterministic cooperative scheduler for N simulated clients.

Concurrency in this reproduction is *simulated*, like everything else:
there are no host threads.  Each client is a :class:`repro.core.session.Session`
plus a workload (a list of transaction items), and the scheduler
interleaves them one operation at a time on the shared
:class:`repro.pm.clock.SimClock`:

* every client carries a ``ready_at_ns`` instant (the simulated time
  at which its next operation may start — right after its previous
  operation, or later when it is backing off after an abort);
* each step runs the runnable client with the smallest
  ``(ready_at_ns, client index)`` — round-robin *by simulated time*,
  which is exactly how concurrent clients interleave on real hardware,
  and byte-reproducible because nothing depends on host time, host
  threads, or hash order;
* a step executes ONE operation (insert/update/delete/search/think) of
  the client's current transaction, so transactions genuinely
  interleave and conflict through the shared
  :class:`repro.core.locking.LockManager`.

Conflict policy (the timeout/abort-retry policy of the lock manager):

* a :class:`LockConflict` always meets an operation that has stored
  nothing: every B-tree operation claims its whole lock footprint —
  the leaf, the ancestors a structure change will write up to the
  first safe one, the root slot, any overflow-chain pages — before its
  first store, and a locked context raises
  :class:`repro.core.locking.ClaimAfterStore` (a bug, never waited
  out) if it asks for anything new after one.  So the client parks in
  WAITING: its wait is registered in the wait-for graph, and it wakes
  as soon as a blocker commits or aborts, to re-run the operation.  A
  wait-for cycle found at park time aborts the requester immediately
  (deadlock victim), and the whole item retries after a deterministic
  exponential backoff.  A point descent holds no internal page: it
  passes each under an instant-duration S check
  (``LockManager.check``) that grants nothing, so an internal page is
  held only by a structure change (X) or an open range scan (S);
* a wait that outlives ``lock_timeout_ns`` simulated nanoseconds times
  out: the transaction aborts and retries the same way.

Aborted items retry up to ``max_retries`` times (then the run
fails loudly — livelock is a bug in the policy, not something to paper
over).  Committed items are recorded in ``commit_order``; because of
strict two-phase locking the interleaving is serializable *in that
order*, which is what the crash harness validates against.

Workload items use the same shapes as :mod:`repro.testing.crashsim`:
``("txn", [ops])`` for a multi-operation transaction or a bare
``(kind, key, value)`` tuple for a single-operation transaction, with
kinds ``insert`` / ``update`` / ``delete`` / ``search`` / ``think``
(think's ``key`` is simulated nanoseconds to hold the transaction open).
"""

from repro.core.locking import LockConflict
from repro.core.occ import OCCConflict
from repro.core.session import resolve_isolation
from repro.obs import trace as ev

READY = "ready"
WAITING = "waiting"
DONE = "done"

#: The conflict policy's defaults, in simulated time: how long a
#: client waits on a lock before timing out, how far an aborted
#: transaction backs off before retrying, and how many retries an item
#: gets before the scheduler gives up on it.
LOCK_TIMEOUT_NS = 2_000_000.0
RETRY_BACKOFF_NS = 50_000.0
MAX_RETRIES = 64


class SchedulerError(Exception):
    """The scheduler cannot make progress (retry budget exhausted)."""


class RetriesExhausted(SchedulerError):
    """One client aborted past ``max_retries``.  Distinguished from
    other scheduler failures because it is a *liveness* cap, not a
    safety violation: an adversarial pick strategy can starve any
    client indefinitely, so the schedule-space explorer treats this as
    schedule truncation rather than a finding."""


class _Client:
    """One simulated client: a session plus its workload cursor."""

    __slots__ = (
        "index", "name", "session", "items", "item_idx", "ops", "op_idx",
        "txn", "state", "ready_at_ns", "wait_deadline_ns", "retries",
        "commits", "aborts", "deadlocks", "timeouts", "total_retries",
        "reads", "steps", "last_step",
    )

    def __init__(self, index, name, session, items):
        self.index = index
        self.name = name
        self.session = session
        self.items = list(items)
        self.item_idx = 0
        self.ops = None          # current item's op list (txn open)
        self.op_idx = 0
        self.txn = None
        self.state = READY
        self.ready_at_ns = 0.0
        self.wait_deadline_ns = None
        self.retries = 0         # of the current item
        self.commits = 0
        self.aborts = 0
        self.deadlocks = 0
        self.timeouts = 0
        self.total_retries = 0
        self.reads = 0
        self.steps = 0
        self.last_step = 0   # global step sequence of the last run

    @property
    def finished(self):
        return self.item_idx >= len(self.items)

    def summary(self):
        return {
            "name": self.name,
            "items": len(self.items),
            "commits": self.commits,
            "aborts": self.aborts,
            "deadlocks": self.deadlocks,
            "timeouts": self.timeouts,
            "retries": self.total_retries,
            "reads": self.reads,
            "steps": self.steps,
        }


def _ops_of(item):
    """Normalize a workload item to its operation list."""
    if item and item[0] == "txn":
        return list(item[1])
    return [item]


def execute_op(txn, kind, key, value):
    """Run one workload operation in ``txn``: the one op dispatch of
    the scheduler and the crash driver's run shapes (``think`` is the
    scheduler's own and never reaches here)."""
    if kind == "insert":
        txn.insert(key, value, replace=True)
    elif kind == "update":
        txn.update(key, value)
    elif kind == "delete":
        txn.delete(key)
    elif kind == "search":
        txn.search(key)
    else:
        raise SchedulerError("unknown op kind %r" % (kind,))


def client_spec(workload):
    """``(items, isolation)`` of one client workload entry as the
    crash and exploration harnesses spell it: a plain item list (a
    classic 2PL writer), or ``{"items": [...], "isolation": mode}``."""
    if isinstance(workload, dict):
        return workload["items"], resolve_isolation(workload.get("isolation"))
    return workload, "locked"


class Scheduler:
    """Interleaves N client sessions deterministically (see module doc)."""

    def __init__(self, engine, *, lock_timeout_ns=LOCK_TIMEOUT_NS,
                 retry_backoff_ns=RETRY_BACKOFF_NS, max_retries=MAX_RETRIES,
                 cleanup_on_error=True, on_step=None, pick_strategy=None):
        if not engine.isolation_modes:
            raise SchedulerError(
                "the %r scheme does not support concurrent sessions"
                % engine.scheme
            )
        self.engine = engine
        self.obs = engine.obs
        handle = engine.obs.registry.counter_handle
        self._c_step = handle("sched.step")
        self._c_wait = handle("sched.wait")
        self._c_wake = handle("sched.wake")
        self._c_abort = handle("sched.abort")
        self._c_retry = handle("sched.retry")
        self._c_deadlock = handle("sched.deadlock")
        self._c_timeout = handle("sched.timeout")
        self._c_abort_deadlock = handle("sched.abort.deadlock")
        self._c_abort_timeout = handle("sched.abort.timeout")
        self._c_abort_occ = handle("sched.abort.occ")
        self.clock = engine.clock
        self.lock_timeout_ns = lock_timeout_ns
        self.retry_backoff_ns = retry_backoff_ns
        self.max_retries = max_retries
        #: Roll back open transactions and close sessions when an
        #: unexpected (non-LockConflict) exception escapes the run loop,
        #: so a failed operation can never leak held locks.  Crash
        #: harnesses set this False: a simulated power failure must
        #: leave the engine exactly as the crash found it (no post-crash
        #: rollback writes).
        self.cleanup_on_error = cleanup_on_error
        #: Optional callback invoked after every completed step with the
        #: stepped client — the trace-checker harness drains the event
        #: ring here so the ring never wraps mid-run.
        self.on_step = on_step
        #: Optional scheduling hook: ``pick_strategy(scheduler,
        #: ready_clients)`` is called whenever at least one client is
        #: READY, with the candidates sorted by the default pick key
        #: ``(ready_at_ns, last_step, index)``, and must return one of
        #: them.  The schedule-space explorer drives interleavings
        #: through this hook; with it unset (the default) scheduling is
        #: byte-identical to the historical deterministic policy, and
        #: no extra trace events are emitted.
        self.pick_strategy = pick_strategy
        self.clients = []
        self._step_seq = 0
        #: The client whose operation is (or was last) executing — at a
        #: simulated crash, the only client that can have an in-flight
        #: commit (cooperative scheduling: one session runs at a time).
        self.running_client = None
        #: (client name, item index) per committed transaction — the
        #: serialization order (strict 2PL commits in lock order).
        self.commit_order = []

    def add_client(self, items, *, name=None, isolation=None):
        """Register one client with its workload; returns the client.

        ``isolation`` picks the session's concurrency mode
        (``"locked"`` / ``"read_only"`` / ``"occ"``, see
        ``Engine.session``).  Read-only clients run
        MVCC snapshot transactions: their session carries no lock
        manager, so their workloads may contain only ``search`` and
        ``think`` operations (validated here — failing at add time
        beats a mid-run surprise).
        """
        isolation = resolve_isolation(isolation)
        if isolation == "read_only":
            for item in items:
                for op in _ops_of(item):
                    if op and op[0] not in ("search", "think"):
                        raise SchedulerError(
                            "read-only client workload contains %r "
                            "(only search/think allowed)" % (op[0],)
                        )
        index = len(self.clients)
        name = name or ("c%d" % index)
        session = self.engine.session(name, isolation=isolation)
        client = _Client(index, name, session, items)
        client.ready_at_ns = self.clock.now_ns
        self.clients.append(client)
        return client

    # -- the run loop ------------------------------------------------------

    def run(self):
        """Interleave all clients to completion; returns the report."""
        start_ns = self.clock.now_ns
        try:
            while True:
                client = self._next_client()
                if client is None:
                    break
                self._step(client)
                if self.on_step is not None:
                    self.on_step(client)
        except Exception:
            # An operation failed for a non-conflict reason (engine
            # error, bad workload item, a conflict escaping a
            # non-operation path...).  Without cleanup the failed
            # client's transaction would stay open with its locks held
            # and every session would leak.  Roll back and close, then
            # re-raise the original error.
            if self.cleanup_on_error:
                self._cleanup_after_error()
            raise
        # End-of-run durability barrier: close any open group-commit
        # epoch so the report's counts cover every member's shared
        # fence + mark (no-op with grouping off).
        self.engine.drain_group_commit()
        report = self._report(start_ns)
        for client in self.clients:
            client.session.close()
        return report

    def _cleanup_after_error(self):
        """Best-effort teardown after an unexpected error: roll back
        every open transaction (releasing its locks) and close every
        session.  Lock release is guaranteed even when a rollback
        itself fails mid-way."""
        locks = self.engine.lock_manager
        for client in self.clients:
            if client.txn is not None:
                try:
                    client.txn.rollback()
                # repro: allow[PM005] failed-rollback cleanup: the original error re-raises; lock release below must still run
                except Exception:
                    pass
                finally:
                    locks.release_all(client.session.sid)
                client.txn = None
                client.ops = None
            try:
                client.session.close()
            except Exception:
                locks.release_all(client.session.sid)

    def _next_client(self):
        """The next event in simulated-time order: either a runnable
        client (returned) or the earliest lock-wait timeout (handled
        here, then re-evaluated)."""
        while True:
            if self.pick_strategy is not None:
                picked = self._pick_with_strategy()
                if picked is not None:
                    return picked
                if not any(c.state is WAITING for c in self.clients):
                    return None  # every client DONE
                # No runnable client: fall through to the default
                # timeout handling below (wait deadlines still fire).
            # Ties on ready_at (common right after a wake) go to the
            # least-recently-run client, so releases hand the lock over
            # instead of letting the low-index client streak (convoy).
            ready = min(
                (
                    (c.ready_at_ns, c.last_step, c.index, c)
                    for c in self.clients if c.state is READY
                ),
                default=None,
            )
            waiting = min(
                (
                    (c.wait_deadline_ns, c.last_step, c.index, c)
                    for c in self.clients if c.state is WAITING
                ),
                default=None,
            )
            if ready is not None and (
                waiting is None or ready[0] <= waiting[0]
            ):
                client = ready[3]
                self.clock.advance_to(client.ready_at_ns)
                return client
            if waiting is None:
                return None  # every client DONE
            deadline, _, _, client = waiting
            self.clock.advance_to(deadline)
            self._time_out(client)

    def _pick_with_strategy(self):
        """Let ``pick_strategy`` choose among the READY clients
        (sorted by the default pick key); returns None when no client
        is READY.  Runnable clients take priority over pending wait
        timeouts here: the explorer must be able to exercise any
        runnable interleaving, and a deferred timeout only means the
        waiter waits a little longer in simulated time."""
        ready = sorted(
            (c for c in self.clients if c.state is READY),
            key=lambda c: (c.ready_at_ns, c.last_step, c.index),
        )
        if not ready:
            return None
        client = self.pick_strategy(self, ready)
        if client is None or client.state is not READY:
            raise SchedulerError(
                "pick_strategy returned %r (must return a READY client)"
                % (client,)
            )
        self.clock.advance_to(client.ready_at_ns)
        return client

    def _step(self, client):
        """Run one operation of ``client``'s current transaction."""
        client.steps += 1
        self._step_seq += 1
        client.last_step = self._step_seq
        self.running_client = client
        self._c_step.inc()
        if self.pick_strategy is not None:
            # Stamp the stream with the stepping session so per-step
            # event attribution (the lockset race detector's actor)
            # reads straight off the trace.  Never emitted on the
            # default path — replay/golden traces stay byte-identical.
            self.obs.event(ev.SCHED_PICK, client.session.sid, client.index)
        if client.txn is None:
            client.ops = _ops_of(client.items[client.item_idx])
            client.op_idx = 0
            client.txn = client.session.transaction()
        kind, key, value = client.ops[client.op_idx]
        txn = client.txn
        if kind == "think":
            # A sleep, not work: the client (with any locks it holds)
            # parks until now + key ns of simulated time; other clients
            # run in the meantime.  A terminal think falls through to
            # the commit below.
            client.op_idx += 1
            if client.op_idx < len(client.ops):
                client.ready_at_ns = self.clock.now_ns + key
                return
        else:
            try:
                execute_op(txn, kind, key, value)
            except LockConflict as conflict:
                self._on_conflict(client, conflict)
                return
            if kind == "search":
                client.reads += 1
            client.op_idx += 1
        if client.op_idx >= len(client.ops):
            try:
                txn.commit()
            except OCCConflict:
                # Commit-time optimistic failure (stale read set, or
                # the install lost a lock race): the transaction is
                # still open — abort it and retry the item, eventually
                # under the session's 2PL fallback.
                self._abort(client, self._c_abort_occ)
                return
            self.commit_order.append((client.name, client.item_idx))
            client.txn = None
            client.ops = None
            client.commits += 1
            client.retries = 0
            client.item_idx += 1
            if client.finished:
                client.state = DONE
        client.ready_at_ns = self.clock.now_ns
        # A snapshot client's commit releases no locks, so it can never
        # unblock a waiter — and a pure-reader mix must not lazily
        # instantiate the lock manager just to scan an empty table.
        if client.session.locking:
            self._wake_waiters()

    # -- conflicts, deadlock, timeout --------------------------------------

    def _on_conflict(self, client, conflict):
        locks = self.engine.lock_manager
        # The operation stored nothing yet: park and re-run it when a
        # blocker releases.  Deadlock check at park time — the new
        # wait edge is the only one that can have closed a cycle.
        locks.start_wait(client.session.sid, conflict.resource, conflict.mode)
        cycle = locks.find_deadlock(client.session.sid)
        if cycle is not None:
            locks.stop_wait(client.session.sid)
            client.deadlocks += 1
            self._c_deadlock.inc()
            self._abort(client, self._c_abort_deadlock)
            return
        client.state = WAITING
        client.wait_deadline_ns = self.clock.now_ns + self.lock_timeout_ns
        self._c_wait.inc()

    def _time_out(self, client):
        """A parked client's wait deadline arrived."""
        locks = self.engine.lock_manager
        wait = locks.waiting(client.session.sid)
        if wait is not None and not locks.blockers(
            client.session.sid, wait[0], wait[1]
        ):
            # The blockers vanished without a wake (defensive; wakes
            # normally happen eagerly at release time).
            self._wake(client)
            return
        locks.stop_wait(client.session.sid)
        client.state = READY
        client.wait_deadline_ns = None
        client.timeouts += 1
        self._c_timeout.inc()
        self._abort(client, self._c_abort_timeout)

    def _abort(self, client, counter):
        """Roll back the client's transaction and schedule the retry;
        ``counter`` is the handle of the abort's cause."""
        client.txn.rollback()
        client.txn = None
        client.ops = None
        client.aborts += 1
        self._c_abort.inc()
        counter.inc()
        client.retries += 1
        if client.retries > self.max_retries:
            raise RetriesExhausted(
                "client %r exhausted %d retries on item %d"
                % (client.name, self.max_retries, client.item_idx)
            )
        client.total_retries += 1
        self._c_retry.inc()
        # Deterministic exponential backoff, staggered per client so
        # simultaneous aborters do not collide forever.
        delay = self.retry_backoff_ns * (
            1 << min(client.retries - 1, 8)
        ) + client.index * (self.retry_backoff_ns / 16.0)
        client.ready_at_ns = self.clock.now_ns + delay
        client.state = READY
        self._wake_waiters()

    def _wake_waiters(self):
        """Wake every parked client whose blockers released their locks."""
        locks = self.engine.lock_manager
        for client in self.clients:
            if client.state is not WAITING:
                continue
            wait = locks.waiting(client.session.sid)
            if wait is None or not locks.blockers(
                client.session.sid, wait[0], wait[1]
            ):
                self._wake(client)

    def _wake(self, client):
        self.engine.lock_manager.stop_wait(client.session.sid)
        client.state = READY
        client.wait_deadline_ns = None
        client.ready_at_ns = self.clock.now_ns
        self._c_wake.inc()

    # -- reporting ---------------------------------------------------------

    def _report(self, start_ns):
        elapsed_ns = self.clock.now_ns - start_ns
        commits = sum(c.commits for c in self.clients)
        return {
            "scheme": self.engine.scheme,
            "clients": len(self.clients),
            "simulated_ns": self.clock.now_ns,
            "elapsed_ns": elapsed_ns,
            "commits": commits,
            "aborts": sum(c.aborts for c in self.clients),
            "deadlocks": sum(c.deadlocks for c in self.clients),
            "timeouts": sum(c.timeouts for c in self.clients),
            "retries": sum(c.total_retries for c in self.clients),
            "steps": sum(c.steps for c in self.clients),
            "throughput_tps": (
                commits / (elapsed_ns / 1e9) if elapsed_ns else 0.0
            ),
            "commit_order": list(self.commit_order),
            "per_client": [c.summary() for c in self.clients],
        }


__all__ = [
    "Scheduler", "SchedulerError", "RetriesExhausted", "client_spec",
]
