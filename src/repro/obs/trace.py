"""Typed event tracing: a bounded ring buffer over the whole stack.

Every layer of the simulation reports its interesting moments here —
stores, cache-line flushes, fences, RTM begin/commit/abort, log
appends, commit marks, checkpoints, recovery replays — each stamped
with the shared ``SimClock`` time.  The buffer is a fixed-capacity
ring: old events fall off, but per-kind totals are kept exactly for
the whole run (``counts()``), so counter-asserting tests can pin both
the sequence *and* the totals.

Events are plain tuples ``(seq, t_ns, kind, a, b)``:

``seq``
    A monotonically increasing sequence number (never resets while the
    recorder lives), so "events after instant X" is a stable query
    even across ring wrap-around — the crash-recovery tests use this
    to isolate the events recovery itself produced.
``t_ns``
    The simulated-clock timestamp; deterministic by construction.
``a, b``
    Kind-specific integers (address/length, page number, sequence...).

Two runs of the same seeded workload produce byte-identical event
sequences; ``tests/obs/test_determinism.py`` enforces this.
"""

from collections import deque


class _NullClock:
    """Stand-in for an unbound clock: events stamp ``t_ns = 0.0``."""

    __slots__ = ()
    now_ns = 0.0


_NULL_CLOCK = _NullClock()

# -- event kinds (the taxonomy; see DESIGN.md "Observability") ----------

STORE = "store"                      # a=addr, b=length
CLFLUSH = "clflush"                  # a=addr
CLWB = "clwb"                        # a=addr
FENCE = "fence"                      # store fence completed
RTM_BEGIN = "rtm_begin"              # a=attempt number
RTM_COMMIT = "rtm_commit"
RTM_ABORT = "rtm_abort"              # a=0 transient, 1 capacity, 2 explicit
LOG_APPEND = "log_append"            # a=frame addr/page_no, b=frame bytes
COMMIT_MARK = "commit_mark"          # a=transaction sequence number
LOG_TRUNCATE = "log_truncate"        # the log's commit word reset to 0
CHECKPOINT = "checkpoint"            # a=pages/entries written back
RECOVERY_REPLAY = "recovery_replay"  # a=page_no/slot replayed
CRASH = "crash"                      # power failure injected

# Lock-discipline events (emitted by the LockManager / Session layer
# only — the single-session fast path records none of these).  ``a`` is
# always the owning session id; for lock events ``b`` is the packed
# (resource kind, resource id, mode) word — see
# ``repro.core.locking.encode_lock`` / ``decode_lock``.
LOCK_ACQUIRE = "lock_acquire"        # a=sid, b=encoded (resource, mode)
LOCK_UPGRADE = "lock_upgrade"        # a=sid, b=encoded (resource, mode)
LOCK_RELEASE = "lock_release"        # a=sid, b=encoded (resource, mode)
LOCK_WAIT = "lock_wait"              # a=sid, b=encoded wanted (resource, mode)
LOCK_WAKE = "lock_wake"              # a=sid
LOCK_CHECK = "lock_check"            # a=sid, b=encoded (resource, mode): passed, nothing granted
TXN_BEGIN = "txn_begin"              # a=sid
TXN_COMMIT = "txn_commit"            # a=sid
TXN_ABORT = "txn_abort"              # a=sid

# MVCC snapshot-read events (emitted by the version manager only —
# runs with no read-only session open record none of these).
SNAPSHOT_BEGIN = "snapshot_begin"    # a=sid, b=snapshot timestamp
SNAPSHOT_READ = "snapshot_read"      # a=sid, b=version commit timestamp
SNAPSHOT_END = "snapshot_end"        # a=sid
MVCC_GC = "mvcc_gc"                  # a=versions reclaimed, b=watermark

# OCC (optimistic concurrency control) events, emitted by the session
# layer and the version manager only — locked and read-only sessions
# record none of these.  ``a`` is the owning session id except for
# VERSION_PUBLISH, whose ``a`` is the packed resource word (see
# ``repro.core.locking.encode_lock``) and ``b`` the commit timestamp.
OCC_BEGIN = "occ_begin"              # a=sid, b=shard-ns | pin timestamp
OCC_READ = "occ_read"                # a=sid, b=packed read-set resource
OCC_VALIDATE = "occ_validate"        # a=sid, b=pin timestamp
OCC_CONFLICT = "occ_conflict"        # a=sid, b=stale resources seen
OCC_FALLBACK = "occ_fallback"        # a=sid, b=failed validations
VERSION_PUBLISH = "version_publish"  # a=packed resource, b=commit ts

# Scheduler attribution (emitted only when a ``pick_strategy`` drives
# the cooperative scheduler — default deterministic runs record none
# of these).  Stamped at the start of every step so downstream
# consumers (the lockset race detector, the schedule-space explorer)
# can attribute the following events to the stepping session.
SCHED_PICK = "sched_pick"            # a=sid, b=client index

# Cross-shard two-phase-commit events (emitted by the shard router
# only — unsharded engines record none of these).  ``a`` is always the
# global transaction id (gtid).  For the decision event ``b`` packs
# (participant count << 1) | commit bit; for prepare/commit marks
# ``b`` is the shard index.
TWOPC_PREPARE = "twopc_prepare"      # a=gtid, b=shard index
TWOPC_DECISION = "twopc_decision"    # a=gtid, b=(participants<<1)|commit
TWOPC_COMMIT = "twopc_commit"        # a=gtid, b=shard index

# Tiered DRAM page-cache events (emitted by ``repro.storage.cache``
# only — cache-off runs record none of these).  ``a`` is always the
# page number.  For the invalidation event ``b`` carries the reason
# (see the INVAL_* constants below); the TC111 coherence rule checks
# HIT/FILL/INVAL against the page-header install stores.
CACHE_FILL = "cache_fill"            # a=page_no (copied from PM into DRAM)
CACHE_HIT = "cache_hit"              # a=page_no (read served from DRAM)
CACHE_INVAL = "cache_inval"          # a=page_no, b=reason (INVAL_*)

KINDS = (
    STORE, CLFLUSH, CLWB, FENCE,
    RTM_BEGIN, RTM_COMMIT, RTM_ABORT,
    LOG_APPEND, COMMIT_MARK, LOG_TRUNCATE,
    CHECKPOINT, RECOVERY_REPLAY, CRASH,
    LOCK_ACQUIRE, LOCK_UPGRADE, LOCK_RELEASE, LOCK_WAIT, LOCK_WAKE,
    LOCK_CHECK,
    TXN_BEGIN, TXN_COMMIT, TXN_ABORT,
    SNAPSHOT_BEGIN, SNAPSHOT_READ, SNAPSHOT_END, MVCC_GC,
    OCC_BEGIN, OCC_READ, OCC_VALIDATE, OCC_CONFLICT, OCC_FALLBACK,
    VERSION_PUBLISH,
    SCHED_PICK,
    TWOPC_PREPARE, TWOPC_DECISION, TWOPC_COMMIT,
    CACHE_FILL, CACHE_HIT, CACHE_INVAL,
)

ABORT_TRANSIENT = 0
ABORT_CAPACITY = 1
ABORT_EXPLICIT = 2

#: ``CACHE_INVAL`` reasons (the ``b`` field).
INVAL_INSTALL = 0   # a committed install rewrote the page's header
INVAL_EVICT = 1     # clock/second-chance capacity eviction
INVAL_FREE = 2      # the page returned to the store's free list


class TraceRecorder:
    """Bounded ring buffer of typed, clock-stamped events."""

    __slots__ = (
        "capacity", "enabled", "seq", "_events", "_kind_totals", "_clock",
    )

    def __init__(self, capacity=65536, *, enabled=True, clock=None):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.enabled = enabled
        self.seq = 0
        self._events = deque(maxlen=capacity)
        self._kind_totals = {}
        self._clock = clock if clock is not None else _NULL_CLOCK

    def bind_clock(self, clock):
        """Stamp subsequent events with ``clock.now_ns``."""
        self._clock = clock if clock is not None else _NULL_CLOCK

    # -- recording ---------------------------------------------------------

    def record(self, kind, a=0, b=0):
        """Append one event (cheap: one deque append + one dict bump)."""
        if not self.enabled:
            return
        seq = self.seq + 1
        self.seq = seq
        self._events.append((seq, self._clock.now_ns, kind, a, b))
        totals = self._kind_totals
        try:
            totals[kind] += 1
        except KeyError:
            totals[kind] = 1

    # -- reading -----------------------------------------------------------

    def events(self, kind=None, since_seq=0):
        """Buffered events, oldest first, optionally filtered."""
        return [
            event for event in self._events
            if event[0] > since_seq and (kind is None or event[2] == kind)
        ]

    def count(self, kind):
        """Exact total of ``kind`` events ever recorded (not just those
        still in the ring)."""
        return self._kind_totals.get(kind, 0)

    def counts(self):
        """Exact per-kind totals over the recorder's whole lifetime."""
        return dict(sorted(self._kind_totals.items()))

    @property
    def dropped(self):
        """Events that have fallen off the ring."""
        return self.seq - len(self._events)

    def snapshot(self):
        """Plain-data summary (JSON-ready; feeds the obs report CLI)."""
        return {
            "capacity": self.capacity,
            "recorded": self.seq,
            "dropped": self.dropped,
            "kind_totals": self.counts(),
        }

    def clear(self):
        """Drop buffered events and totals (``seq`` keeps increasing so
        ``since_seq`` queries stay stable)."""
        self._events.clear()
        self._kind_totals.clear()

    def __len__(self):
        return len(self._events)

    def __repr__(self):
        return "TraceRecorder(recorded=%d, buffered=%d, capacity=%d)" % (
            self.seq, len(self._events), self.capacity,
        )
