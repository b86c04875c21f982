"""Optimistic concurrency control: snapshot-isolation writer path.

An OCC transaction (``engine.session(isolation="occ")``) runs in three
phases, after Kung-Robinson shaped over the MVCC substrate of
:mod:`repro.storage.versions`:

read phase
    Every read resolves against a snapshot pinned at transaction
    begin, exactly like a read-only MVCC session — zero locks, no
    IS/S traffic at all.  The snapshot *tracks* its read set (pages
    and root slots, first touch each) so validation can replay it.

write buffering
    Writes never touch the tree during the transaction.  They are
    buffered as logical operations in an :class:`OccContext` — a
    private write set with a read-your-own-writes overlay — and each
    buffered write first performs a snapshot read of its key, pulling
    the key's leaf path into the read set.  Page-grain read-set
    validation therefore subsumes write-write conflict detection.

validation + install
    At commit, the read set is validated against the version stamps:
    any page or root slot with a committed version in ``(pin_ts,
    now]`` aborts the transaction (:class:`OCCConflict`).  A valid
    transaction unpins its snapshot, then replays the write set into
    a fresh lock-managed scheme context under the lock manager's
    ``commit_scope`` — a short burst of X locks sized by the write
    set — and runs the engine's ordinary commit protocol (slot-header
    redo log, flush, fence, ≤8B mark; group-commit epochs included).

Validation is sound because the pinned snapshot itself keeps
``VersionManager.capture_active`` true for the transaction's whole
lifetime: every concurrent commit stamps the pages and roots it
publishes, so a stale read cannot slip through unstamped.  The
cooperative scheduler makes validate-then-install atomic — no other
session runs between the two.

After ``OCC_MAX_VALIDATION_FAILURES`` consecutive failed validations,
the owning session's next transaction falls back to classic 2PL
(:class:`repro.core.session.Session` tracks the streak); one
successful commit switches it back to optimistic mode.
"""

from contextlib import ExitStack

from repro.btree.btree import DuplicateKeyError
from repro.core.locking import LOCK_IX, LockConflict
from repro.obs import trace as ev

#: Overlay tombstone: the key was deleted by this transaction.
_DELETED = object()


class OCCConflict(Exception):
    """Commit-time optimistic failure.

    ``kind`` is ``"validation"`` (a read-set resource has a committed
    version newer than the pin — ``stale`` lists the packed resource
    words) or ``"install"`` (the write-set replay lost a lock race to
    a concurrent 2PL holder).  The transaction is left open and
    rollbackable; the scheduler aborts and retries it.
    """

    def __init__(self, kind, stale=()):
        self.kind = kind
        self.stale = tuple(stale)
        super().__init__(
            "occ %s conflict (%d stale resources)" % (kind, len(self.stale))
        )


class OccContext:
    """An OCC transaction's context: pinned tracked snapshot + write set.

    Implements the same logical operations a :class:`Transaction`
    dispatches (insert/update/delete/search/scan/create), with
    read-your-own-writes semantics mirroring the B-tree's: duplicate
    insert without ``replace`` raises, update/delete report whether
    the key existed.  Nothing here touches the tree — the write set
    replays at install time.
    """

    #: The buffer itself holds nothing a scheme could commit or roll
    #: back; once the write set installs, ``Transaction.inner_ctx``
    #: names the scheme context instead.
    is_read_only = True

    def __init__(self, engine, session):
        self.engine = engine
        self.session = session
        self.obs = engine.obs
        self.snapshot = engine.version_manager.begin_snapshot(
            session, track_reads=True
        )
        self.snapshot_ts = self.snapshot.snapshot_ts
        #: Buffered logical ops, replay order: (kind, slot, key, value,
        #: replace).
        self._writes = []
        #: root_slot -> {key: value | _DELETED} read-your-own-writes
        #: overlay.
        self._overlays = {}
        #: The lock-managed scheme context the write set was installed
        #: into (None until install) — what ``Transaction.inner_ctx``
        #: exposes so ``commit_seq``/GC protection see the real thing.
        self.installed_ctx = None
        self.obs.inc("occ.begin")
        # The pin timestamp is shard-local; OR-ing in the version
        # manager's event namespace (shard index << 24, 0 unsharded)
        # lets the trace checker validate each leg's read set against
        # the right shard's publishes.
        self.obs.event(
            ev.OCC_BEGIN, session.sid,
            engine.version_manager.event_namespace | self.snapshot_ts,
        )

    # -- read phase --------------------------------------------------------

    @property
    def has_writes(self):
        return bool(self._writes)

    def _read(self, root_slot, key):
        """(present, value) through the overlay, falling back to a
        tracked snapshot read (which records the key's path pages in
        the read set)."""
        overlay = self._overlays.get(root_slot)
        if overlay is not None and key in overlay:
            value = overlay[key]
            if value is _DELETED:
                return False, None
            return True, value
        value = self.engine.tree(root_slot).search(self.snapshot, key)
        return value is not None, value

    def search(self, root_slot, key):
        present, value = self._read(root_slot, key)
        return value if present else None

    def scan(self, root_slot, lo=None, hi=None):
        """Snapshot scan merged with the private overlay."""
        overlay = self._overlays.get(root_slot, {})
        merged = {
            key: value
            for key, value in self.engine.tree(root_slot).scan(
                self.snapshot, lo, hi
            )
            if key not in overlay
        }
        for key, value in overlay.items():
            if value is _DELETED:
                continue
            if lo is not None and key < lo:
                continue
            if hi is not None and key > hi:
                continue
            merged[key] = value
        return sorted(merged.items())

    # -- write buffering ---------------------------------------------------

    def _overlay(self, root_slot):
        overlay = self._overlays.get(root_slot)
        if overlay is None:
            overlay = self._overlays[root_slot] = {}
        return overlay

    def insert(self, root_slot, key, value, *, replace=False):
        present, _ = self._read(root_slot, key)
        if present and not replace:
            raise DuplicateKeyError(key)
        self._writes.append(("insert", root_slot, key, value, replace))
        self._overlay(root_slot)[key] = value

    def update(self, root_slot, key, value):
        present, _ = self._read(root_slot, key)
        if not present:
            return False
        self._writes.append(("update", root_slot, key, value, False))
        self._overlay(root_slot)[key] = value
        return True

    def delete(self, root_slot, key):
        present, _ = self._read(root_slot, key)
        if not present:
            return False
        self._writes.append(("delete", root_slot, key, None, False))
        self._overlay(root_slot)[key] = _DELETED
        return True

    def create(self, root_slot):
        # Reading the root slot records it in the read set, so a
        # concurrent create of the same slot fails validation.
        self.snapshot.root_page_no(root_slot)
        self._writes.append(("create", root_slot, None, None, False))

    # -- savepoints (Transaction.savepoint/rollback_to) --------------------

    def snapshot_state(self):
        return (
            list(self._writes),
            {slot: dict(overlay) for slot, overlay in self._overlays.items()},
        )

    def restore_state(self, token):
        writes, overlays = token
        self._writes = list(writes)
        self._overlays = {slot: dict(ov) for slot, ov in overlays.items()}

    # -- validation + install ----------------------------------------------

    def validate(self):
        """Commit-time read-set validation; raises :class:`OCCConflict`
        when any read resource has a committed version newer than the
        pin.  Counts/events either way (TC109 audits the exchange)."""
        obs = self.obs
        versions = self.engine.version_manager
        obs.inc("occ.validation")
        obs.event(ev.OCC_VALIDATE, self.session.sid, self.snapshot_ts)
        stale = versions.validate_read_set(self.snapshot, self.snapshot_ts)
        if stale:
            obs.inc("occ.validation.abort")
            obs.event(ev.OCC_CONFLICT, self.session.sid, len(stale))
            raise OCCConflict("validation", stale)

    def unpin(self):
        """End the pinned snapshot (idempotent).  Must happen before
        the install takes its first lock: a session with a live
        snapshot acquiring locks violates TC107."""
        self.engine.version_manager.end_snapshot(self.snapshot)

    def install(self):
        """Replay the write set into a fresh lock-managed scheme
        context (caller owns lock release).  A lock conflict uninstalls
        the partial context and raises :class:`OCCConflict("install")`."""
        engine, session = self.engine, self.session
        ctx = self.installed_ctx = engine._new_context(session, locked=True)
        try:
            for kind, slot, key, value, replace in self._writes:
                ctx.begin_op()
                ctx.lock_root(slot, LOCK_IX)
                tree = engine.tree(slot)
                if kind == "insert":
                    tree.insert(ctx, key, value, replace=replace)
                elif kind == "update":
                    tree.update(ctx, key, value)
                elif kind == "delete":
                    tree.delete(ctx, key)
                else:
                    tree.create(ctx)
        except LockConflict:
            self.uninstall()
            self.obs.inc("occ.install.conflict")
            self.obs.event(ev.OCC_CONFLICT, self.session.sid, 1)
            raise OCCConflict("install")

    def uninstall(self):
        """Roll the installed context back, if there is one; the write
        set stays buffered and the transaction open."""
        if self.installed_ctx is not None:
            self.engine._rollback(self.installed_ctx)
            self.installed_ctx = None


def occ_commit(legs, commit):
    """The optimistic commit, over the one transaction of an engine or
    the per-shard legs of a router transaction: validate every leg's
    read set (zero locks, so a failure aborts for free), then unpin
    each leg's snapshot and install its write set under its lock
    manager's ``commit_scope``, run ``commit()`` — the scheme's
    ordinary commit protocol, or the router's native-vs-2PC choice —
    with those locks held, and count ``occ.commit`` once.

    Any :class:`OCCConflict` unwinds the already-installed legs and
    re-raises with every leg still open and rollbackable; so does a
    commit that fails before its first store (the log is full...).  A
    write-free commit installs nothing, takes no locks, makes nothing
    durable and doesn't count.

    Because the install replays through the ordinary commit, the
    tiered DRAM page cache needs no OCC-specific hook: the commit's
    install points (checkpoint apply, RTM in-place publish, pointer
    swaps) invalidate every frame the replay's writes touch.
    """
    for leg in legs:
        leg.ctx.validate()
    installed = []
    with ExitStack() as scopes:
        try:
            for leg in legs:
                octx, session = leg.ctx, leg.session
                octx.unpin()
                if octx.has_writes:
                    scopes.enter_context(session.lock_manager.commit_scope(
                        session.sid, clock=session.engine.clock,
                    ))
                    installed.append(octx)
                    octx.install()
            if installed:
                commit()
                installed[0].obs.inc("occ.commit")
        except Exception:
            for octx in installed:
                octx.uninstall()
            raise
