"""Sessions: independently-owned transaction scopes over one engine.

The paper's host system (SQLite) serializes writers, and this
reproduction historically did the same — ``Engine`` owned one implicit
transaction at a time.  A :class:`Session` generalizes that: each
session owns at most one open transaction, its own clock-segment
attribution (all simulated time spent inside its operations lands in
the ``session.<name>`` segment) and obs labels
(``session.<name>.commit`` / ``.abort`` counters), and — when the
engine hands out lock-managed sessions — a scheme context with
:class:`repro.core.locking.TwoPhaseLocking` mixed in, which serializes
conflicting page/root access against the other sessions (strict 2PL).

The *default* single-session path (``engine.transaction()``,
``engine.insert()``, every existing benchmark and golden-counter test)
does not construct sessions and is byte-for-byte unchanged.

Sessions are cooperative, not threaded: at most one session executes
host code at any instant.  The deterministic interleaving of many
sessions is the scheduler's job (:mod:`repro.core.scheduler`).
"""

from repro.obs import trace as ev

#: The session isolation modes — what every transaction's lifecycle
#: dispatches on:
#:
#: ``"locked"``
#:     classic strict 2PL (IS/IX/S/X held to commit).
#: ``"read_only"``
#:     MVCC snapshot reads: no lock manager, zero locks, reads resolve
#:     against version chains.
#: ``"occ"``
#:     snapshot-isolation writes: reads at a pinned tracked snapshot,
#:     writes buffered, commit-time validation + install under short X
#:     locks — falling back to ``"locked"`` for one transaction after
#:     :data:`OCC_MAX_VALIDATION_FAILURES` straight failed validations.
ISOLATION_MODES = ("locked", "read_only", "occ")

#: Consecutive failed commit-time validations before an OCC session
#: runs its next transaction under classic 2PL (a committed
#: transaction resets the streak).
OCC_MAX_VALIDATION_FAILURES = 3


def resolve_isolation(isolation=None):
    """The isolation mode ``isolation`` names (``None`` is
    ``"locked"``); anything outside :data:`ISOLATION_MODES` raises
    ``ValueError``."""
    if isolation is None:
        isolation = "locked"
    if isolation not in ISOLATION_MODES:
        raise ValueError(
            "unknown isolation mode %r (choose from %s)"
            % (isolation, ", ".join(ISOLATION_MODES))
        )
    return isolation


class Session:
    """One client's transaction scope on a shared engine."""

    def __init__(self, engine, sid, name, *, isolation="locked",
                 lock_manager=None, quiet=False, resource_namespace=0):
        self.engine = engine
        self.sid = sid
        self.name = name
        self.lock_manager = lock_manager
        #: One of :data:`ISOLATION_MODES`.  ``"read_only"`` sessions
        #: run MVCC snapshot transactions: they carry no lock manager
        #: and acquire zero locks (no IS/S traffic at all) — reads
        #: resolve against version chains.
        self.isolation = isolation
        #: Consecutive failed OCC validations (the 2PL-fallback streak).
        self._occ_failures = 0
        #: Quiet sessions are inner per-shard legs of a sharded
        #: transaction: the router emits one *global* TXN event and
        #: outcome counter per transaction, so the legs suppress
        #: theirs (lock events still flow — they are per shard).
        self.quiet = quiet
        #: OR-ed into every lock resource id this session constructs,
        #: so per-shard resources stay distinct in the global
        #: wait-for graph (0 = unsharded, ids unchanged).
        self.resource_namespace = resource_namespace
        self.segment_name = "session.%s" % name
        #: Per-session obs labels ("session.<name>.commit" ...).
        self.obs = engine.obs.labeled("session.%s" % name)
        self._c_commit = self.obs.counter_handle("commit")
        self._c_abort = self.obs.counter_handle("abort")
        self._c_begin = engine.obs.registry.counter_handle("engine.txn.begin")
        self._trace = engine.obs.trace
        self._clock = engine.clock
        self._txn = None
        #: Log sequence of the last committed transaction (None until
        #: one commits, or when the scheme doesn't stamp contexts) —
        #: what ``commit_durable`` checks against the open epoch.
        self._last_commit_seq = None
        self.closed = False

    @classmethod
    def open(cls, host, name=None, isolation=None):
        """Open and register one session on ``host`` (an engine, or a
        shard router for the sharded subclass) — what both
        ``session()`` entry points do.  A mode outside the host's
        ``isolation_modes`` raises ``TransactionError``.  Read-only
        sessions get no lock manager, so a pure-reader mix never
        instantiates one."""
        isolation = resolve_isolation(isolation)
        if isolation not in host.isolation_modes:
            from repro.core.base import TransactionError

            raise TransactionError(
                "the %r scheme does not serve %r sessions (it serves: %s)"
                % (host.scheme, isolation,
                   ", ".join(host.isolation_modes) or "none")
            )
        sid = host._next_sid
        host._next_sid += 1
        session = cls(
            host, sid, name or ("s%d" % sid), isolation=isolation,
            lock_manager=(
                None if isolation == "read_only" else host.lock_manager
            ),
        )
        host._sessions[sid] = session
        host.obs.inc("engine.session.open")
        return session

    # -- transactions ------------------------------------------------------

    @property
    def locking(self):
        return self.lock_manager is not None

    def _begin_mode(self):
        """The mode the *next* transaction runs in — where the OCC
        fallback policy lives.  An OCC session that failed validation
        :data:`OCC_MAX_VALIDATION_FAILURES` times in a row runs its
        next transaction under classic 2PL (guaranteed lock-managed
        progress); its success resets the streak and the session
        returns to optimistic mode."""
        if (self.isolation == "occ"
                and self._occ_failures >= OCC_MAX_VALIDATION_FAILURES):
            self.engine.obs.inc("occ.fallback")
            self.engine.obs.event(
                ev.OCC_FALLBACK, self.sid, self._occ_failures
            )
            return "locked"
        return self.isolation

    def _occ_failed(self):
        """Count one failed validation/install toward the fallback."""
        self._occ_failures += 1

    @property
    def in_transaction(self):
        return self._txn is not None

    @property
    def commit_durable(self):
        """Is this session's last committed transaction durable?

        With grouping off every commit fences before returning, so
        this is always True.  With ``SystemConfig.group_commit_size``
        set, a commit is *committed* (visible to every later
        transaction) the moment it joins the open epoch but *durable*
        only once the epoch closes and the shared group mark persists
        — until then this reports False.
        ``engine.drain_group_commit()`` forces the close (a
        durability barrier).
        """
        group = self.engine.group
        if group is None or self._last_commit_seq is None:
            return True
        return not group.contains_seq(self._last_commit_seq)

    @property
    def transaction_ctx(self):
        """The open transaction's *inner* scheme context (None when
        idle) — what the engine consults to protect this session's
        uncommitted pages from garbage collection."""
        if self._txn is None:
            return None
        return self._txn.inner_ctx

    def transaction(self):
        """Begin this session's transaction (one at a time)."""
        from repro.core.base import TransactionError

        if self.closed:
            raise TransactionError("session %r is closed" % self.name)
        if self._txn is not None:
            raise TransactionError(
                "session %r already has an open transaction" % self.name
            )
        return self._begin(self._begin_mode())

    def _begin(self, mode):
        """Open a transaction in ``mode``.  The session's own
        transactions get theirs from ``_begin_mode()``; a sharded
        transaction's per-shard legs are handed the router
        transaction's, so every leg runs — and falls back — together."""
        txn = self._txn = self._new_transaction(mode)
        if not self.quiet:
            self._c_begin.inc()
            if self._trace.enabled:
                self._trace.record(ev.TXN_BEGIN, self.sid)
        return txn

    def _new_transaction(self, mode):
        from repro.core.base import Transaction

        return Transaction(self.engine, self, mode)

    def op_segment(self):
        """Clock segment attributing an operation's simulated time to
        this session (nested inside it, the usual phase segments keep
        accumulating exactly as before)."""
        return self._clock.segment(self.segment_name)

    def _txn_finished(self, txn, committed):
        """Transaction epilogue: drop lock state, count the outcome.

        The lock releases are emitted into the trace *before* the
        TXN_COMMIT/TXN_ABORT event, so the dynamic checker's "all
        locks released at transaction end" invariant reads straight
        off the event order (strict 2PL releases in one step)."""
        if self._txn is txn:
            self._txn = None
        if committed:
            self._last_commit_seq = getattr(
                txn.inner_ctx, "commit_seq", None
            )
            if self.isolation == "occ":
                self._occ_failures = 0
        if self.lock_manager is not None:
            self.lock_manager.release_all(self.sid)
        snapshot = txn.pinned_snapshot
        if snapshot is not None:
            # Unpin the snapshot (emits SNAPSHOT_END before the
            # TXN_COMMIT/TXN_ABORT event, mirroring the lock-release
            # ordering) and let the watermark GC reclaim versions.
            # Both read-only and OCC transactions pin one; a committed
            # OCC install already unpinned it (no-op here).
            self.engine.version_manager.end_snapshot(snapshot)
        if self.quiet:
            return
        (self._c_commit if committed else self._c_abort).inc()
        if self._trace.enabled:
            self._trace.record(
                ev.TXN_COMMIT if committed else ev.TXN_ABORT, self.sid
            )

    # -- autocommit conveniences ------------------------------------------

    def insert(self, key, value, *, root_slot=0, replace=False):
        with self.transaction() as txn:
            txn.insert(key, value, root_slot=root_slot, replace=replace)

    # -- lifecycle ---------------------------------------------------------

    def close(self):
        """Roll back any open transaction and detach from the engine."""
        if self.closed:
            return
        if self._txn is not None:
            self._txn.rollback()
        if self.lock_manager is not None:
            self.lock_manager.release_all(self.sid)
        self.closed = True
        self.engine._session_closed(self)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    def __repr__(self):
        state = "txn open" if self._txn is not None else "idle"
        return "%s(%r, %s)" % (type(self).__name__, self.name, state)
