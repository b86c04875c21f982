"""Multi-granularity lock manager for concurrent sessions.

The session layer serializes conflicting transactions with classic
intent locking: a transaction takes an *intent* lock on the B-tree's
root slot (``IS`` to read, ``IX`` to write, ``X`` to repoint the root)
and then shared/exclusive latches on the individual pages it touches.
Locks are held to commit/rollback (strict two-phase locking), which is
what makes the cooperative scheduler's interleavings serializable in
commit order.  One read is lighter: a point descent only *routes*
through an internal page, so it checks that page with an
instant-duration S lock (:meth:`LockManager.check`) — an X holder, a
transaction with an uncommitted structure change there, still stops
it — and keeps nothing.  Leaves keep their S/X locks to commit, and so
do range scans on every page (DESIGN.md §10).

Everything here is *simulated-time* machinery: there are no host
threads, so a conflicting ``acquire`` never blocks — it raises
:class:`LockConflict` naming the holders, and the caller (normally the
:class:`repro.core.scheduler.Scheduler`) decides whether to wait,
retry, or abort.  Waiting sessions are registered with
:meth:`LockManager.start_wait`, which keeps the wait-for graph the
deadlock detector walks.

``TwoPhaseLocking`` puts the lock manager between a session and
``PageStore``/``BTree``: mixed into a scheme's context class, it fills
in the claim hook every mutator body calls before its first store, and
latches the pages the tree reads.  Only a locked transaction's context
has it, so the default code path never takes a lock.

Read-only MVCC sessions (``engine.session(isolation="read_only")``) bypass
this module entirely: their transactions resolve reads against the
version chains (:mod:`repro.storage.versions`) with a pinned snapshot
timestamp, take no IS/S locks, never appear in the wait-for graph, and
can neither block nor be blocked by the lock-managed writers here.
The dynamic trace checker's TC107 rule enforces that: a session that
emitted ``snapshot_begin`` must emit zero ``lock_acquire`` events.
"""

from contextlib import contextmanager

from repro.obs import trace as ev
from repro.storage.slotted_page import PAGE_LEAF

LOCK_IS = "IS"
LOCK_IX = "IX"
LOCK_S = "S"
LOCK_X = "X"

#: Stable numeric codes for packing lock events into trace integers.
_MODE_CODE = {LOCK_IS: 0, LOCK_IX: 1, LOCK_S: 2, LOCK_X: 3}
_MODE_NAME = {code: mode for mode, code in _MODE_CODE.items()}
_RES_CODE = {"root": 1, "page": 2}
_RES_NAME = {code: kind for kind, code in _RES_CODE.items()}


def encode_lock(resource, mode):
    """Pack a (resource, mode) pair into one trace integer.

    Layout: ``kind << 40 | id << 8 | mode`` — ids are page numbers or
    root slots, both far below 2**32, so the packing is lossless.
    """
    kind, ident = resource
    return (_RES_CODE[kind] << 40) | (ident << 8) | _MODE_CODE[mode]


def decode_lock(word):
    """Inverse of :func:`encode_lock`: ``((kind, id), mode)``."""
    resource = (_RES_NAME[word >> 40], (word >> 8) & 0xFFFF_FFFF)
    return resource, _MODE_NAME[word & 0xFF]

#: mode -> the set of modes it may coexist with (on other owners).
_COMPATIBLE = {
    LOCK_IS: frozenset((LOCK_IS, LOCK_IX, LOCK_S)),
    LOCK_IX: frozenset((LOCK_IS, LOCK_IX)),
    LOCK_S: frozenset((LOCK_IS, LOCK_S)),
    LOCK_X: frozenset(),
}

#: mode -> the weaker modes it subsumes (a holder of the key needs no
#: new lock to act in any listed mode).
_COVERS = {
    LOCK_IS: frozenset((LOCK_IS,)),
    LOCK_IX: frozenset((LOCK_IS, LOCK_IX)),
    LOCK_S: frozenset((LOCK_IS, LOCK_S)),
    LOCK_X: frozenset((LOCK_IS, LOCK_IX, LOCK_S, LOCK_X)),
}


def _upgrade(held, wanted):
    """Least mode subsuming both ``held`` and ``wanted`` (no SIX mode:
    the IX+S combination escalates straight to X)."""
    if wanted in _COVERS[held]:
        return held
    if held in _COVERS[wanted]:
        return wanted
    return LOCK_X


def _blockers(granted, owner, target):
    """The owners in ``granted`` ({owner: mode}) whose modes exclude
    ``owner`` holding ``target`` — the one conflict rule behind
    ``acquire``, ``check`` and the wait-for graph."""
    compatible = _COMPATIBLE[target]
    blockers = []
    for other, other_mode in granted.items():
        if other != owner and other_mode not in compatible:
            blockers.append(other)
    return blockers


class LockError(Exception):
    """Base class for locking failures."""


class LockConflict(LockError):
    """The requested lock is incompatible with current holders.

    Raised instead of blocking (there are no host threads to block).
    ``resource``/``mode`` describe the request, ``holders`` the owner
    ids whose granted locks stand in the way.
    """

    def __init__(self, owner, resource, mode, holders):
        self.owner = owner
        self.resource = resource
        self.mode = mode
        self.holders = tuple(holders)
        super().__init__(
            "%r cannot lock %r in %s (held by %s)"
            % (owner, resource, mode, ", ".join(map(repr, self.holders)))
        )


class ClaimAfterStore(LockError):
    """An operation asked for a lock it does not already hold after its
    first store: its plan missed part of its footprint.  Raised whether
    or not the lock would conflict, so every locked run checks the
    plan; never waited out (a conflict there could only abort)."""


def root_resource(slot):
    """The lockable resource for a named root slot."""
    return ("root", slot)


def page_resource(page_no):
    """The lockable resource for one page."""
    return ("page", page_no)


class LockManager:
    """Grants IS/IX/S/X locks to owners and tracks who waits on whom.

    Owners are opaque hashable ids (the session ids).  State is purely
    volatile — locks are a concurrency-control artifact, not a
    persistence one, and a crash discards them with the rest of the
    volatile state.
    """

    def __init__(self, *, obs=None):
        self.obs = obs
        if obs is not None:
            # Bound once: every grant, check and release counts, and
            # traces only while the ring records (event arguments are
            # computed under ``trace.enabled`` alone).
            handle = obs.registry.counter_handle
            self._c_acquire = handle("lock.acquire")
            self._c_upgrade = handle("lock.upgrade")
            self._c_conflict = handle("lock.conflict")
            self._c_check = handle("lock.check")
            self._c_release = handle("lock.release")
            self._c_hold_ns = handle("occ.lock_hold_ns")
            self._trace = obs.trace
        self._granted = {}   # resource -> {owner: mode}
        self._owned = {}     # owner -> set of resources
        self._waits = {}     # owner -> (resource, mode)

    # -- grants ------------------------------------------------------------

    def acquire(self, owner, resource, mode):
        """Grant ``mode`` on ``resource`` (upgrading a held lock if
        needed) or raise :class:`LockConflict`.  Returns the mode now
        held."""
        granted = self._granted.get(resource)
        if granted is None:
            granted = self._granted[resource] = {}
        held = granted.get(owner)
        if held is not None:
            target = _upgrade(held, mode)
            if target == held:
                return held
        else:
            target = mode
        blockers = _blockers(granted, owner, target)
        if blockers:
            if self.obs is not None:
                self._c_conflict.inc()
            raise LockConflict(owner, resource, mode, blockers)
        granted[owner] = target
        self._owned.setdefault(owner, set()).add(resource)
        if self.obs is not None:
            upgraded = held is not None
            (self._c_upgrade if upgraded else self._c_acquire).inc()
            trace = self._trace
            if trace.enabled:
                trace.record(
                    ev.LOCK_UPGRADE if upgraded else ev.LOCK_ACQUIRE,
                    owner if isinstance(owner, int) else 0,
                    encode_lock(resource, target),
                )
        return target

    def check(self, owner, resource, mode):
        """An instant-duration lock: raise :class:`LockConflict` exactly
        when :meth:`acquire` would, but grant nothing — the caller
        passes the resource and keeps no claim on it (a B-tree descent
        routing through an internal page, DESIGN.md §10).

        Returns the mode ``owner`` holds if that already covers
        ``mode`` (the held lock answers for the check, and nothing is
        traced), else None.  A passed check is traced as
        ``lock_check``; a failed one raises before anything is traced,
        as a failed acquire does."""
        granted = self._granted.get(resource)
        if granted:
            held = granted.get(owner)
            if held is not None:
                target = _upgrade(held, mode)
                if target == held:
                    return held
            else:
                target = mode
            blockers = _blockers(granted, owner, target)
            if blockers:
                if self.obs is not None:
                    self._c_conflict.inc()
                raise LockConflict(owner, resource, mode, blockers)
        if self.obs is not None:
            self._c_check.inc()
            trace = self._trace
            if trace.enabled:
                trace.record(
                    ev.LOCK_CHECK,
                    owner if isinstance(owner, int) else 0,
                    encode_lock(resource, mode),
                )
        return None

    def try_acquire(self, owner, resource, mode):
        """``acquire`` returning False instead of raising on conflict."""
        try:
            self.acquire(owner, resource, mode)
        except LockConflict:
            return False
        return True

    def holds(self, owner, resource):
        """The mode ``owner`` holds on ``resource`` (None if none)."""
        granted = self._granted.get(resource)
        return granted.get(owner) if granted else None

    def locks_of(self, owner):
        """{resource: mode} snapshot of everything ``owner`` holds."""
        return {
            resource: self._granted[resource][owner]
            for resource in self._owned.get(owner, ())
        }

    def release_all(self, owner):
        """Drop every lock and any registered wait of ``owner``
        (transaction end — strict 2PL releases in one step).  Returns
        the number of locks released."""
        resources = self._owned.pop(owner, None)
        released = 0
        trace = self._trace if self.obs is not None else None
        sid = owner if isinstance(owner, int) else 0
        if resources:
            # Sorted release order keeps the emitted event sequence
            # deterministic across processes (set iteration order of
            # ("page", n) tuples depends on string hash seeds).
            for resource in sorted(resources):
                granted = self._granted.get(resource)
                if granted is None:
                    continue
                mode = granted.pop(owner, None)
                if mode is None:
                    continue
                released += 1
                if not granted:
                    del self._granted[resource]
                if trace is not None and trace.enabled:
                    trace.record(
                        ev.LOCK_RELEASE, sid, encode_lock(resource, mode)
                    )
        self._waits.pop(owner, None)
        if released and trace is not None:
            self._c_release.inc(released)
        return released

    @contextmanager
    def commit_scope(self, owner, *, clock=None):
        """Scoped commit-time acquisition for OCC installs.

        Everything ``owner`` acquires inside the scope is released when
        it exits — success, conflict, or crash of the install path —
        and the simulated span the locks were held is accounted to
        ``occ.lock_hold_ns``.  This is the only lock traffic an OCC
        transaction generates: zero acquisitions before its commit
        point (TC109), a write-set-sized burst inside the scope.
        """
        start = clock.now_ns if clock is not None else 0.0
        try:
            yield self
        finally:
            if clock is not None and self.obs is not None:
                held = clock.now_ns - start
                if held > 0:
                    self._c_hold_ns.inc(int(held))
            self.release_all(owner)

    # -- wait-for graph ----------------------------------------------------

    def start_wait(self, owner, resource, mode):
        """Register that ``owner`` is waiting to lock ``resource``."""
        self._waits[owner] = (resource, mode)
        if self.obs is not None and self._trace.enabled:
            self._trace.record(
                ev.LOCK_WAIT,
                owner if isinstance(owner, int) else 0,
                encode_lock(resource, mode),
            )

    def stop_wait(self, owner):
        """Remove ``owner``'s registered wait (woken or aborted)."""
        if self._waits.pop(owner, None) is not None and self.obs is not None:
            self.obs.event(
                ev.LOCK_WAKE, owner if isinstance(owner, int) else 0
            )

    def waiting(self, owner):
        """The (resource, mode) ``owner`` waits for, or None."""
        return self._waits.get(owner)

    def blockers(self, owner, resource, mode):
        """Owners whose granted locks block ``owner``'s request."""
        granted = self._granted.get(resource)
        if not granted:
            return ()
        held = granted.get(owner)
        target = mode if held is None else _upgrade(held, mode)
        return tuple(_blockers(granted, owner, target))

    def wait_edges(self):
        """The wait-for graph: {waiter: (blocking owners...)}."""
        return {
            owner: self.blockers(owner, resource, mode)
            for owner, (resource, mode) in self._waits.items()
        }

    def find_deadlock(self, owner):
        """Walk the wait-for graph from ``owner``; return the cycle
        through ``owner`` as an owner list, or None.

        Deterministic: edges are expanded in grant-insertion order, so
        identical histories find identical cycles.
        """
        return find_cycle(self.wait_edges(), owner)


def find_cycle(edges, owner):
    """The cycle through ``owner`` in the wait-for graph ``edges``
    ({waiter: (blockers...)}), as an owner list, or None.  Shared by
    :meth:`LockManager.find_deadlock` and the sharded lock facade
    (which merges per-shard edges before searching)."""
    path = [owner]
    on_path = {owner}
    visited = set()

    def visit(node):
        for blocker in edges.get(node, ()):
            if blocker == owner:
                return True
            if blocker in on_path or blocker in visited:
                continue
            if blocker in edges:
                path.append(blocker)
                on_path.add(blocker)
                if visit(blocker):
                    return True
                on_path.discard(path.pop())
            visited.add(blocker)
        return False

    if visit(owner):
        return list(path)
    return None


class TwoPhaseLocking:
    """Strict two-phase locking for a scheme context: a mixin.

    A strict-2PL transaction's context is its scheme's context class
    with this mixed in (``Engine.locked_context_class``), built when
    ``Transaction._open_ctx`` (mode ``"locked"``) or an OCC install
    asks for one.  It fills in :class:`repro.core.base.MutationContext`'s
    claim hook, and latches the two reads: ``page`` S to commit,
    ``route`` as below.

    The context caches views only of pages this transaction holds a
    lock on: ``route`` reads a page it holds none on fresh (the first
    touch's committed read) and keeps it only once it has S-latched a
    leaf; the first mutator that X-latches a route-only internal view
    adopts it.  Cached, such a view would outlive the
    check it was read behind and miss a later committed install.

    Plan, claim, then store: a top-level operation (``begin_op``)
    takes every lock it needs before its first store, so a conflict
    only ever meets it unmutated and the scheduler can park it and
    re-run it.  The context enforces this itself.  Once a mutator
    reports a completed store (``_stored_claimed``), any claim or
    route check not covered by a lock already held — contended or not
    — raises :class:`ClaimAfterStore`; pages the transaction allocated
    are exempt.
    """

    def __init__(self, engine, session):
        super().__init__(engine, session)
        self._locks = session.lock_manager
        self._owner = session.sid
        # Sharded sessions namespace their resource ids (shard << 24)
        # so per-shard locks stay distinct in a merged wait-for graph.
        self._ns = session.resource_namespace
        self._op_stored = False

    def begin_op(self):
        """Mark the start of a top-level operation (insert/search/...)."""
        self._op_stored = False

    def _stored_claimed(self):
        self._op_stored = True

    def _held(self, resource, mode):
        """After the operation's first store: ``resource`` must already
        be held in a mode covering ``mode``."""
        held = self._locks.holds(self._owner, resource)
        if held is None or _upgrade(held, mode) != held:
            raise ClaimAfterStore(
                "%r asked for %r in %s after its operation's first store"
                % (self._owner, resource, mode)
            )

    def _claim(self, resource, mode):
        kind, ident = resource
        resource = (kind, self._ns | ident)
        if self._op_stored and not (kind == "page" and ident in self.new_pages):
            self._held(resource, mode)
        self._locks.acquire(self._owner, resource, mode)

    def lock_root(self, slot, mode):
        """Intent lock on a tree's root slot (taken per operation)."""
        self._claim(root_resource(slot), mode)

    def page(self, page_no):
        self._claim(page_resource(page_no), LOCK_S)
        return self._lookup(page_no)

    def route(self, page_no):
        """``page`` for a point descent: a page this transaction holds
        no lock on is checked for S and read fresh, and only a leaf
        then keeps its S latch.  An internal page is passed under the
        check alone — its routing can change only through a structure
        change that X-locks it (or the leaf below it), which the check
        or the leaf's latch still meets."""
        resource = page_resource(self._ns | page_no)
        locks = self._locks
        if self._op_stored:
            self._held(resource, LOCK_S)
        if locks.check(self._owner, resource, LOCK_S) is not None:
            return self._lookup(page_no)
        page = self._first_touch(page_no)
        if page.page_type == PAGE_LEAF:
            locks.acquire(self._owner, resource, LOCK_S)
            self.keep(page_no, page)
        return page
