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

``LockingContext`` is the shim that puts the lock manager between a
session and ``PageStore``/``BTree``: it wraps an engine transaction
context, acquires the right latch before delegating each view/mutation
call, and forwards everything else untouched.  Single-session engines
never construct one, so the default code path pays nothing.

Read-only MVCC sessions (``engine.session(read_only=True)``) bypass
this module entirely: their transactions resolve reads against the
version chains (:mod:`repro.storage.versions`) with a pinned snapshot
timestamp, take no IS/S locks, never appear in the wait-for graph, and
can neither block nor be blocked by the lock-managed writers here.
The dynamic trace checker's TC107 rule enforces that: a session that
emitted ``snapshot_begin`` must emit zero ``lock_acquire`` events.
"""

from contextlib import contextmanager
from functools import partial

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


class DeadlockError(LockError):
    """A wait-for cycle was found; ``cycle`` lists the owners on it."""

    def __init__(self, victim, cycle):
        self.victim = victim
        self.cycle = tuple(cycle)
        super().__init__(
            "deadlock: %s (victim %r)"
            % (" -> ".join(map(repr, self.cycle)), victim)
        )


class LockTimeout(LockError):
    """A session waited longer than the configured simulated timeout."""


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
                self.obs.inc("lock.conflict")
            raise LockConflict(owner, resource, mode, blockers)
        granted[owner] = target
        self._owned.setdefault(owner, set()).add(resource)
        if self.obs is not None:
            upgraded = held is not None
            self.obs.inc("lock.upgrade" if upgraded else "lock.acquire")
            self.obs.event(
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
                    self.obs.inc("lock.conflict")
                raise LockConflict(owner, resource, mode, blockers)
        if self.obs is not None:
            self.obs.inc("lock.check")
            self.obs.event(
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
        obs = self.obs
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
                if obs is not None:
                    obs.event(ev.LOCK_RELEASE, sid, encode_lock(resource, mode))
        self._waits.pop(owner, None)
        if released and obs is not None:
            obs.inc("lock.release", released)
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
                    self.obs.inc("occ.lock_hold_ns", int(held))
            self.release_all(owner)

    # -- wait-for graph ----------------------------------------------------

    def start_wait(self, owner, resource, mode):
        """Register that ``owner`` is waiting to lock ``resource``."""
        self._waits[owner] = (resource, mode)
        if self.obs is not None:
            self.obs.event(
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


class LockingContext:
    """A transaction context proxy that latches before delegating.

    Sits between a :class:`repro.core.session.Session` and the
    scheme context (FAST/FAST⁺/NVWAL): ``page`` reads take S page
    latches held to commit, ``route`` reads an instant S check on an
    internal page and an S latch on a leaf, mutations take X,
    root-pointer updates take X on the root slot.  Attributes and
    methods outside the view/mutation protocol are forwarded to the
    wrapped context, so the commit paths (which receive the *inner*
    context) see the exact objects they always did.

    The wrapped context caches views only of pages this transaction
    holds a lock on: a page it holds none on carries none of its
    changes, so ``route`` reads it fresh from the engine's committed
    read seam (what the context's own first touch would read) and
    hands it to the context to ``keep`` only once it has S-latched a
    leaf; a route-only internal view is adopted by the first mutator
    that X-latches it.  A cached route-only view would outlive the
    check it was read behind and miss a later committed install.

    ``op_mutated`` tracks whether the current top-level operation has
    already changed transaction state; the scheduler uses it to decide
    between waiting (operation restart is safe — only reads happened)
    and aborting the transaction (a partial mutation cannot be
    re-issued).
    """

    def __init__(self, inner, session):
        # Avoid __setattr__ recursion by writing through __dict__.
        self.__dict__["_inner"] = inner
        self.__dict__["_session"] = session
        self.__dict__["_locks"] = session.lock_manager
        self.__dict__["_owner"] = session.sid
        self.__dict__["_store"] = session.engine.store
        self.__dict__["_committed_page"] = partial(
            session.engine._read_page, writer=True
        )
        # Sharded sessions namespace their resource ids (shard << 24)
        # so per-shard locks stay distinct in a merged wait-for graph.
        self.__dict__["_ns"] = session.resource_namespace
        self.__dict__["op_mutated"] = False

    # -- lock plumbing ----------------------------------------------------

    def begin_op(self):
        """Mark the start of a top-level operation (insert/search/...)."""
        self.__dict__["op_mutated"] = False

    def _lock(self, resource, mode):
        self._locks.acquire(self._owner, resource, mode)

    def lock_root(self, slot, mode):
        """Intent lock on a tree's root slot (taken per operation)."""
        self._locks.acquire(
            self._owner, root_resource(self._ns | slot), mode
        )

    def _page_no(self, page):
        page_no = getattr(page, "page_no", None)
        if page_no is not None:
            return page_no  # NVWAL's DRAM frames carry their number
        return self._store.page_no_of(page)

    def _xlock_page(self, page):
        self._locks.acquire(
            self._owner, page_resource(self._ns | self._page_no(page)), LOCK_X
        )

    # -- view protocol -----------------------------------------------------

    def segment(self, name):
        return self._inner.segment(name)

    def root_page_no(self, slot):
        return self._inner.root_page_no(slot)

    def page(self, page_no):
        self._lock(page_resource(self._ns | page_no), LOCK_S)
        return self._inner.page(page_no)

    def route(self, page_no):
        """``page`` for a point descent: a page this transaction holds
        no lock on is checked for S and read fresh, and only a leaf
        then keeps its S latch.  An internal page is passed under the
        check alone — its routing can change only through a structure
        change that X-locks it (or the leaf below it), which the check
        or the leaf's latch still meets."""
        resource = page_resource(self._ns | page_no)
        locks = self._locks
        if locks.check(self._owner, resource, LOCK_S) is not None:
            return self._inner.page(page_no)
        page = self._committed_page(page_no)
        if page.page_type == PAGE_LEAF:
            locks.acquire(self._owner, resource, LOCK_S)
            self._inner.keep(page_no, page)
        return page

    # -- mutation protocol -------------------------------------------------

    def insert_record(self, page, slot, payload):
        self._xlock_page(page)
        offset = self._inner.insert_record(page, slot, payload)
        self.__dict__["op_mutated"] = True
        return offset

    def update_record(self, page, slot, payload):
        self._xlock_page(page)
        offset = self._inner.update_record(page, slot, payload)
        self.__dict__["op_mutated"] = True
        return offset

    def delete_record(self, page, slot):
        self._xlock_page(page)
        self._inner.delete_record(page, slot)
        self.__dict__["op_mutated"] = True

    def set_page_flags(self, page, mask):
        self._xlock_page(page)
        self._inner.set_page_flags(page, mask)
        self.__dict__["op_mutated"] = True

    def allocate_page(self, page_type):
        page_no, page = self._inner.allocate_page(page_type)
        # A fresh page is uncontended: the grant cannot conflict.
        self._lock(page_resource(self._ns | page_no), LOCK_X)
        self.__dict__["op_mutated"] = True
        return page_no, page

    def free_page(self, page_no):
        self._lock(page_resource(self._ns | page_no), LOCK_X)
        self._inner.free_page(page_no)
        self.__dict__["op_mutated"] = True

    def set_root(self, slot, page_no):
        self._lock(root_resource(self._ns | slot), LOCK_X)
        self._inner.set_root(slot, page_no)
        self.__dict__["op_mutated"] = True

    def overwrite_child_pointer(self, parent_page, slot, new_child_no):
        self._xlock_page(parent_page)
        self._inner.overwrite_child_pointer(parent_page, slot, new_child_no)
        self.__dict__["op_mutated"] = True

    def lock_ahead(self, page=None, root_slot=None):
        """X-lock ``page`` — or, given none, root slot ``root_slot`` —
        for a structure change about to write it, before anything is
        stored.  Unlike the mutators this leaves ``op_mutated`` alone,
        so a conflict here parks the transaction instead of aborting
        it."""
        if page is None:
            self._lock(root_resource(self._ns | root_slot), LOCK_X)
        else:
            self._xlock_page(page)

    def defragment(self, page_no):
        self._lock(page_resource(self._ns | page_no), LOCK_X)
        fresh_no, fresh = self._inner.defragment(page_no)
        self._lock(page_resource(self._ns | fresh_no), LOCK_X)
        self.__dict__["op_mutated"] = True
        return fresh_no, fresh

    # -- passthrough -------------------------------------------------------

    @property
    def inner(self):
        """The wrapped scheme context (what the commit paths consume)."""
        return self._inner

    def __getattr__(self, name):
        return getattr(self.__dict__["_inner"], name)

    def __setattr__(self, name, value):
        if name in self.__dict__:
            self.__dict__[name] = value
        else:
            setattr(self.__dict__["_inner"], name, value)
