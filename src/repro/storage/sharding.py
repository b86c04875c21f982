"""Sharded pagestores behind a thin router, with cross-shard 2PC.

One arena + one lock manager serializes every writer; this module
carves the keyspace over N independent shards instead.  Each shard is
a complete engine — its own pagestore, slot-header log, lock manager,
and MVCC version chains — living in its own slice of ONE simulated PM
arena (``SystemConfig.base_offset`` places each slice), all driven by
the one shared ``SimClock``/obs handle so multi-shard runs stay
byte-identical across reruns.

Keys route by ``crc32(key) % nshards``.  A transaction that touches a
single shard commits exactly as before — including FAST⁺'s RTM
in-place commit — and transactions on disjoint shards share *no*
mutable state (distinct lock managers, logs, version chains), which is
where the near-linear scaling on disjoint workloads comes from.

A transaction that wrote on two or more shards commits via two-phase
commit (records in :mod:`repro.wal.twopc`):

1. **prepare** — every participant persists its redo frames and a
   per-shard prepare record, withholding its commit word (the commit
   word IS a shard-local commit mark; publishing it early would let a
   crash commit half a transaction).  FAST⁺'s in-place path is always
   bypassed for participants, for the same reason.
2. **decide** — the coordinator record persists the commit decision
   (the transaction's global commit point).
3. **commit** — each participant publishes its withheld commit word,
   clears its prepare record, and checkpoints.
4. the decision record is cleared.

Recovery (presumed abort) resolves in-doubt shards from those records:

====================  ======================  ===========================
prepare record        coordinator decision    resolution
====================  ======================  ===========================
absent                —                       plain single-shard recovery
present, mark set     —                       stale record: clear it
present, no mark      matching commit         re-publish the commit word
                                              from the saved (seq, tail),
                                              then replay the frames
present, no mark      absent / other gtid     presumed abort: clear the
                                              record, frames are garbage
====================  ======================  ===========================

The cooperative scheduler guarantees at most one transaction is ever
between decision and completion, so one decision word suffices; attach
always ends with every prepare record and the decision word clear.
"""

from dataclasses import replace
from zlib import crc32

from repro.core import engine_class
from repro.core.base import Transaction
from repro.core.locking import find_cycle
from repro.core.session import ISOLATION_MODES, Session
from repro.obs import trace as ev
from repro.pm.memory import PersistentMemory
from repro.wal.twopc import CoordinatorLog

#: Shard index bits OR-ed into lock resource ids (page numbers and
#: root slots stay far below 2**24).
SHARD_NS_SHIFT = 24

#: Cache-line-rounded region sizes.
_TWOPC_BYTES = 64
_COORD_BYTES = 64

#: Schemes a router can shard: both commit through the slot-header
#: log, whose withheld commit word is what makes prepare possible.
SHARDABLE_SCHEMES = ("fast", "fastplus")


def shard_config(config, index):
    """The per-shard config: ``config``'s geometry at shard ``index``'s
    slice, with a 2PC prepare region appended."""
    span = shard_span(config)
    return replace(
        config, base_offset=index * span, twopc_bytes=_TWOPC_BYTES,
    )


def shard_span(config):
    """Bytes one shard's slice occupies."""
    return replace(config, twopc_bytes=_TWOPC_BYTES).arena_bytes


def total_arena_bytes(config, nshards):
    """Bytes the whole sharded arena occupies (incl. the coordinator)."""
    return nshards * shard_span(config) + _COORD_BYTES


class ShardRouter:
    """N per-shard engines behind one engine-shaped facade.

    Quacks like an :class:`repro.core.base.Engine` everywhere the
    scheduler, benches, and crash harnesses look: ``session()``,
    ``lock_manager``, ``scheme`` / ``obs`` / ``clock`` / ``config``,
    and the committed-read conveniences (``search`` / ``scan`` /
    ``verify`` / ``garbage_collect`` fan out over the shards).
    """

    isolation_modes = ISOLATION_MODES

    def __init__(self, config, pm, shards, coordinator):
        self.config = config        # the base (per-shard) geometry
        self.pm = pm
        self.obs = pm.obs
        handle = self.obs.registry.counter_handle
        self._c_txn_commit = handle("engine.txn.commit")
        self._c_txn_rollback = handle("engine.txn.rollback")
        self.shards = shards
        self.coordinator = coordinator
        self.nshards = len(shards)
        self._sessions = {}
        self._next_sid = 1
        self._next_gtid = 1
        self._lock_facade = None
        #: False while a group-committed 2PC decision is still covered
        #: by an open epoch somewhere (its participants' marks may not
        #: all be durable, so the decision word must not be cleared
        #: yet).  Settled again once those epochs close.
        self._twopc_settled = True
        #: Per-shard labeled outcome counters ("shard.<i>.commit"...).
        self._shard_obs = [
            self.obs.labeled("shard.%d" % index)
            for index in range(self.nshards)
        ]
        # OCC read-set/publish events pack lock-style resource words;
        # namespacing each shard's version manager keeps them distinct
        # in the global trace (mirrors Session.resource_namespace).
        for index, shard in enumerate(shards):
            shard.version_manager.event_namespace = index << SHARD_NS_SHIFT

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build_pm(cls, config, nshards):
        """One arena sized for ``nshards`` slices + the coordinator."""
        return PersistentMemory.for_config(
            config, total_arena_bytes(config, nshards),
        )

    @classmethod
    def create(cls, config, nshards, *, scheme=None, pm=None):
        """Format a fresh sharded arena: N shard engines + coordinator."""
        scheme = scheme or config.scheme
        if scheme not in SHARDABLE_SCHEMES:
            raise ValueError(
                "scheme %r cannot be sharded (2PC needs the withheld "
                "slot-header commit word; choose from %s)"
                % (scheme, ", ".join(SHARDABLE_SCHEMES))
            )
        engine_cls = engine_class(scheme)
        pm = pm or cls.build_pm(config, nshards)
        shards = [
            engine_cls.create(shard_config(config, index), pm=pm)
            for index in range(nshards)
        ]
        coordinator = CoordinatorLog.format(
            pm, nshards * shard_span(config)
        )
        return cls(config, pm, shards, coordinator)

    @classmethod
    def attach(cls, config, nshards, pm, *, scheme=None):
        """Re-open a sharded arena post-crash: resolve in-doubt 2PC
        participants from the durable records (the recovery matrix in
        the module docstring), then run each shard's own recovery."""
        from repro.storage.pagestore import PageStore

        scheme = scheme or config.scheme
        engine_cls = engine_class(scheme)
        coordinator = CoordinatorLog.attach(pm, nshards * shard_span(config))
        decided = coordinator.decided_commit()
        shards = []
        for index in range(nshards):
            cfg = shard_config(config, index)
            store = PageStore.attach(pm, cfg.store_base)
            engine = engine_cls(cfg, pm, store)
            engine._attach_regions()
            record = engine.twopc.prepared()
            if record is not None:
                gtid, seq, tail = record
                if engine.log.pending_bytes():
                    # The crash hit between this shard's commit mark
                    # and the prepare-record clear: the mark already
                    # decides, the record is stale.
                    engine.twopc.clear()
                elif decided == gtid:
                    # In-doubt, coordinator says commit: re-publish
                    # the withheld commit word; the shard's normal
                    # recovery below replays the (durable) frames.
                    engine.log.restore_commit(seq, tail)
                    engine.twopc.clear()
                    pm.obs.inc("twopc.resolve.commit")
                else:
                    # Presumed abort: no commit decision on record,
                    # so the durable frames are garbage.
                    engine.twopc.clear()
                    pm.obs.inc("twopc.resolve.abort")
            engine.recover()
            shards.append(engine)
        coordinator.clear()
        return cls(config, pm, shards, coordinator)

    # ------------------------------------------------------------------
    # Engine facade
    # ------------------------------------------------------------------

    @property
    def scheme(self):
        return self.shards[0].scheme

    @property
    def clock(self):
        return self.pm.clock

    @property
    def registry(self):
        return self.obs.registry

    @property
    def trace(self):
        return self.obs.trace

    @property
    def lock_manager(self):
        """The cross-shard lock facade (scheduler-facing)."""
        if self._lock_facade is None:
            self._lock_facade = ShardLockFacade(self)
        return self._lock_facade

    def shard_of(self, key):
        """The shard index owning ``key``."""
        return crc32(key) % self.nshards

    def next_gtid(self):
        gtid = self._next_gtid
        self._next_gtid += 1
        return gtid

    def session(self, name=None, isolation=None):
        """Open a sharded session (one concurrent client)."""
        return ShardedSession.open(self, name, isolation)

    def _session_closed(self, session):
        self._sessions.pop(session.sid, None)

    def sessions(self):
        return list(self._sessions.values())

    # -- committed-state conveniences (fan out over the shards) ---------

    def insert(self, key, value, *, root_slot=0, replace=False):
        """Single-statement autocommit on the owning shard."""
        self.shards[self.shard_of(key)].insert(
            key, value, root_slot=root_slot, replace=replace,
        )

    def search(self, key, *, root_slot=0):
        return self.shards[self.shard_of(key)].search(key, root_slot=root_slot)

    @property
    def page_caches(self):
        """The per-shard DRAM cache tiers (empty when cache off).

        ``dram_cache_pages`` is per-shard geometry: each shard engine
        fronts its own arena slice with its own
        :class:`repro.storage.cache.TieredPageCache`, and invalidation
        stays shard-local — page numbers are shard-local, and every
        install (including a cross-shard 2PC transaction's per-shard
        installs) runs inside the owning shard's commit machinery,
        which already drops the affected frames.  Counters aggregate
        naturally: all shards share one arena's registry, so
        ``cache.hit`` et al. are fleet-wide totals."""
        return tuple(
            shard.page_cache for shard in self.shards
            if shard.page_cache is not None
        )

    def scan(self, lo=None, hi=None, *, root_slot=0):
        """Merged committed scan over every shard, in key order."""
        rows = []
        for shard in self.shards:
            rows.extend(shard.scan(lo, hi, root_slot=root_slot))
        rows.sort(key=lambda kv: kv[0])
        return rows

    def verify(self, root_slot=0):
        """Per-shard structural checks; returns the total record count."""
        return sum(shard.verify(root_slot) for shard in self.shards)

    def garbage_collect(self):
        """Per-shard GC: each shard consults only its *own* sessions
        and version-chain pins, so one shard's long-lived snapshot
        never protects (or retains) another shard's pages."""
        return sum(shard.garbage_collect() for shard in self.shards)

    # -- group commit ----------------------------------------------------

    @property
    def group_commit(self):
        """Is epoch-pipelined group commit on (it is per-shard)?"""
        return self.shards[0].group is not None

    def _settle_twopc(self):
        """Make the previous group-committed 2PC transaction's marks
        durable and clear the decision word.

        A grouped 2PC decision rides the epoch of its last participant
        (see :meth:`ShardedTransaction._commit_two_phase`); until every
        epoch holding one of its participants closes, some commit marks
        are still pending and the decision word must stay on record so
        a crash re-publishes them.  Called before the *next* decision
        is persisted — the single decision word is reused only once the
        previous transaction has fully completed."""
        if self._twopc_settled:
            return
        for shard in self.shards:
            group = shard.group
            if group is not None and any(
                member.get("twopc_clear") for member in group.members
            ):
                group.close()
        self.coordinator.clear()
        self._twopc_settled = True

    def drain_group_commit(self):
        """End-of-run durability barrier: close every shard's open
        epoch, then settle any outstanding 2PC decision (exactly a
        no-op with grouping off)."""
        for shard in self.shards:
            shard.drain_group_commit()
        if not self._twopc_settled:
            self.coordinator.clear()
            self._twopc_settled = True


class ShardLockFacade:
    """Routes lock-manager calls to the owning shard's manager.

    Resources carry their shard in the id's high bits (see
    ``SHARD_NS_SHIFT``), so every per-resource call dispatches in O(1);
    owner-wide calls (release, deadlock search) fan out and merge.
    Deadlock detection runs over the union of the per-shard wait-for
    graphs — a cycle through two shards is still a cycle.
    """

    def __init__(self, router):
        self.router = router
        self._wait_shard = {}    # owner -> shard index of its one wait

    def _manager(self, resource):
        index = resource[1] >> SHARD_NS_SHIFT
        return self.router.shards[index].lock_manager, index

    def start_wait(self, owner, resource, mode):
        manager, index = self._manager(resource)
        self._wait_shard[owner] = index
        manager.start_wait(owner, resource, mode)

    def stop_wait(self, owner):
        index = self._wait_shard.pop(owner, None)
        if index is not None:
            self.router.shards[index].lock_manager.stop_wait(owner)

    def waiting(self, owner):
        index = self._wait_shard.get(owner)
        if index is None:
            return None
        return self.router.shards[index].lock_manager.waiting(owner)

    def blockers(self, owner, resource, mode):
        manager, _index = self._manager(resource)
        return manager.blockers(owner, resource, mode)

    def release_all(self, owner):
        released = 0
        for shard in self.router.shards:
            if shard._lock_manager is not None:
                released += shard._lock_manager.release_all(owner)
        self._wait_shard.pop(owner, None)
        return released

    def wait_edges(self):
        """The union wait-for graph (each owner waits on at most one
        resource globally, so per-shard maps never collide)."""
        edges = {}
        for shard in self.router.shards:
            if shard._lock_manager is not None:
                edges.update(shard._lock_manager.wait_edges())
        return edges

    def find_deadlock(self, owner):
        return find_cycle(self.wait_edges(), owner)


class ShardedSession(Session):
    """One client's transaction scope across every shard: a
    :class:`repro.core.session.Session` whose engine is the router.

    The lifecycle — guards, isolation mode, the OCC fallback streak,
    the global TXN events and outcome counters — is the base class's.
    What is per-shard lives here: one lazily-created *inner* session
    per shard actually touched — quiet (this session emits the single
    global TXN event and outcome counter per transaction) and
    namespaced (its lock resources carry the shard index).  All inner
    sessions share this session's global sid, which is unambiguous
    because each lives in a different shard engine.
    """

    def __init__(self, router, sid, name, **kwargs):
        super().__init__(router, sid, name, **kwargs)
        self._inner = {}         # shard index -> inner Session

    @property
    def commit_durable(self):
        """Durable once every touched shard's epoch has closed."""
        return all(leg.commit_durable for leg in self._inner.values())

    def _inner_session(self, index):
        session = self._inner.get(index)
        if session is None:
            shard = self.engine.shards[index]
            session = Session(
                shard, self.sid, self.name,
                lock_manager=(
                    None if self.isolation == "read_only"
                    else shard.lock_manager
                ),
                isolation=self.isolation,
                quiet=True,
                resource_namespace=index << SHARD_NS_SHIFT,
            )
            # Registered so the shard's GC protects this session's
            # uncommitted pages exactly like a native session's.
            shard._sessions[self.sid] = session
            self._inner[index] = session
        return session

    def _new_transaction(self, mode):
        return ShardedTransaction(self.engine, self, mode)

    def close(self):
        super().close()
        for index in sorted(self._inner):
            self._inner[index].close()


class ShardedTransaction(Transaction):
    """One transaction spanning any subset of the shards: the
    :class:`repro.core.base.Transaction` lifecycle fanned out over
    per-shard *legs*.

    Operations route by key; the first touch of a shard opens an inner
    leg transaction there, in this transaction's mode — so an OCC
    fallback flips every leg to 2PL together (for read-only sessions
    this is also where that shard's snapshot pins — untouched shards
    pin nothing and retain nothing).  Commit picks the cheapest
    sufficient protocol: zero or one writer shard commits natively
    (FAST⁺ in-place still applies), two or more commit via 2PC.
    """

    #: Scheme contexts and pinned snapshots are per leg; the legs'
    #: own epilogues account for them.
    inner_ctx = None
    pinned_snapshot = None

    def __init__(self, router, session, mode):
        self._txns = {}          # shard index -> inner Transaction
        super().__init__(router, session, mode)

    def _open_ctx(self):
        """None: each leg has its own context."""
        return None

    @property
    def shards_touched(self):
        return sorted(self._txns)

    def _leg(self, key):
        self._check_open()
        index = self.engine.shard_of(key)
        txn = self._txns.get(index)
        if txn is None:
            txn = self.session._inner_session(index)._begin(self.mode)
            self._txns[index] = txn
        return txn

    # -- data operations ---------------------------------------------------

    def insert(self, key, value, *, root_slot=0, replace=False):
        self._leg(key).insert(key, value, root_slot=root_slot, replace=replace)

    def update(self, key, value, *, root_slot=0):
        return self._leg(key).update(key, value, root_slot=root_slot)

    def delete(self, key, *, root_slot=0):
        return self._leg(key).delete(key, root_slot=root_slot)

    def search(self, key, *, root_slot=0):
        return self._leg(key).search(key, root_slot=root_slot)

    # -- lifecycle ---------------------------------------------------------

    def _legs(self):
        return [txn for _index, txn in sorted(self._txns.items())]

    def _writers(self):
        return [
            (index, txn) for index, txn in sorted(self._txns.items())
            if txn.is_writer
        ]

    def _commit_work(self):
        router = self.engine
        writers = self._writers()
        if len(writers) == 1:
            # Single-shard commit: the native protocol applies
            # unchanged (including FAST⁺'s in-place path).
            index, txn = writers[0]
            router.shards[index]._commit(txn.inner_ctx)
        elif writers:
            self._commit_two_phase(writers)
        for index, _txn in writers:
            router._shard_obs[index].inc("commit")

    def _rollback_work(self):
        router = self.engine
        for index, txn in self._writers():
            router.shards[index]._rollback(txn.inner_ctx)
            router._shard_obs[index].inc("abort")

    def _end(self, committed):
        # Per-leg epilogues (lock releases, snapshot unpins) come
        # before the single global TXN event.
        for txn in self._legs():
            txn._end(committed)
        super()._end(committed)

    def _commit_two_phase(self, writers):
        """The cross-shard commit (module docstring, steps 1-4).

        With group commit on, the decision joins the epoch of the last
        participant: prepares stay individually fenced (a prepare must
        be durable before the decision), but the decision word is only
        flushed — the shared fence of that participant's epoch close
        completes it together with every member's frames, and the
        participants' commit marks ride their shards' group marks
        instead of being published per transaction.  The single
        decision word is recycled by :meth:`ShardRouter._settle_twopc`
        before the next decision is persisted."""
        router = self.engine
        grouped = router.group_commit
        if grouped:
            router._settle_twopc()
        # A full log refuses the commit before the first prepare record.
        for index, txn in writers:
            router.shards[index].check_log_room(txn.inner_ctx)
        gtid = router.next_gtid()
        prepared = []
        try:
            for index, txn in writers:
                seq = router.shards[index].prepare_commit(
                    txn.inner_ctx, gtid, index,
                )
                prepared.append((index, txn, seq))
        except Exception:
            # A participant failed to prepare: abort the ones already
            # prepared — their frames are durable but unpublished, so
            # clearing the records aborts cleanly.
            for index, txn, _seq in prepared:
                router.shards[index].abort_prepared(txn.inner_ctx)
            raise
        router.coordinator.decide_commit(gtid, fence=not grouped)
        router.obs.event(ev.TWOPC_DECISION, gtid, (len(writers) << 1) | 1)
        for index, txn, seq in prepared:
            router.shards[index].commit_prepared(txn.inner_ctx, gtid, seq, index)
        if grouped:
            # The decision now rides the participants' open epochs:
            # the next sfence anywhere in the arena (an epoch close,
            # the next transaction's prepare) completes its flush, and
            # the participants' marks arrive with their group marks.
            # Until those epochs close the decision word stays on
            # record so a crash re-publishes prepared-but-unmarked
            # shards — _settle_twopc completes it before the word is
            # reused, drain_group_commit at the end of a run.
            router._twopc_settled = False
        else:
            router.coordinator.clear()
