"""Dynamic invariant checking over the ``TraceRecorder`` event ring.

A :class:`TraceChecker` consumes the typed event stream the simulation
already emits (stores, flushes, fences, commit marks, RTM windows, and
— since this PR — lock and transaction events) and asserts the paper's
ordering theorem *as it executes*:

``TC101`` (flush-before-fence-before-mark)
    At every commit mark, every cache line of the log region dirtied
    since the last truncate must be flushed AND fenced — a dirty or
    in-flight log line at the mark means the mark could become durable
    before the frames it validates (paper Section 3.3's ordering).
    This accepts *group* commit marks unchanged: with
    ``SystemConfig.group_commit_size`` set, several transactions' frames
    accumulate (written + flushed, unfenced) and one shared fence +
    one mark covers them all — the invariant is exactly that every
    member line reached the fence before the mark, however many
    transactions the mark covers.
``TC102`` (atomic commit mark)
    The commit mark must be published by a single ≤8-byte store that
    does not cross an 8-byte-atomic word boundary (the hardware's
    failure-atomic unit, Section 3.1).  A group commit mark is the
    same 8-byte (tail, seq) word with the tail spanning the members'
    prefix — growing the mark beyond 8 bytes to describe the group
    would break failure atomicity, and is exactly what this rule
    rejects.
``TC103`` (no live overwrite)
    Before its commit mark, a transaction must never store into a live
    (committed-reachable) byte range of the FAST/FAST⁺ page space —
    records go to free space, headers are published only by the mark
    (Section 4.1).  Two sanctioned exemptions: stores inside an RTM
    window (the hardware-atomic in-place commit), and single-word
    (≤8 B) stores immediately flushed + fenced (the paper's atomic
    pointer swap, Section 4.3).
``TC104``/``TC105``/``TC106`` (strict 2PL)
    Per session: no lock acquired after the first release (TC104), no
    lock still held at transaction end (TC105), and the wait-for graph
    is acyclic at every granted acquire and commit (TC106) — a cycle
    must be resolved by victim abort before anyone else makes progress.
    A passed instant-duration check (``lock_check``, a descent routing
    through an internal page) is neither a grant nor a release, so
    none of the three counts it.
``TC107`` (lock-free snapshot reads)
    A read-only MVCC transaction (``snapshot_begin`` … ``snapshot_end``)
    must acquire **zero** locks — that is the whole point of the
    version chains — and every ``snapshot_read`` it performs must
    resolve a version with commit timestamp ≤ its pinned snapshot
    timestamp (reading a younger version would break snapshot
    isolation).  A sharded reader pins one snapshot per shard touched
    (several ``snapshot_begin`` events per sid); the checker keeps the
    newest pin.
``TC109`` (optimistic concurrency control)
    An OCC transaction (``occ_begin`` … commit) must acquire **zero**
    locks before its commit point (``occ_validate``) — the read phase
    is lock-free by construction, and a pre-validation lock means the
    optimistic path silently degraded into hybrid locking.  And a
    *validated* commit's read set must be genuinely clean: replaying
    the ``version_publish`` history, no resource the transaction read
    (``occ_read``) may carry a committed version in ``(pin_ts,
    commit_ts]`` unless the transaction raised ``occ_conflict`` and
    aborted.  Sharded transactions pin one shard-local timestamp per
    leg (the shard namespace rides the ``occ_begin`` payload's high
    bits), and each read resource validates against its own shard's
    pin.
``TC108`` (two-phase commit ordering)
    A shard's 2PC commit mark (``twopc_commit``) must be preceded by
    that shard's prepare record (``twopc_prepare``) AND the
    coordinator's *commit* decision (``twopc_decision``) for the same
    global transaction; a commit mark against an abort decision, or a
    commit decision recorded before every participant prepared, is a
    half-committed transaction waiting for a crash.
``TC110`` (lockset race detection, Eraser-shape)
    Every shared arena resource — a data page or a named root slot —
    written by two or more sessions must have a *consistent protecting
    lock*: the intersection of the writers' X-mode-held locksets at
    their write instants must stay nonempty.  An empty intersection
    means two sessions mutated the same bytes with no common lock
    serializing them — under some schedule those writes interleave.
    The rule needs per-store session attribution, which only the
    ``sched_pick`` event carries (emitted when a ``pick_strategy``
    drives the scheduler, i.e. under ``repro.analysis.explore``);
    without attribution the rule is dormant, so default-scheduled
    corpora are unaffected.  MVCC and OCC stay exempt structurally:
    snapshot readers never store, OCC read-phase writes buffer in DRAM
    (outside the page range), and OCC installs run inside
    ``commit_scope`` X locks.  Carve-outs mirror the engine's
    sanctioned lock-free stores: store-header allocator words
    (single-word-atomic by the paper's Section 4.4 contract, roots
    excepted), the in-page free-list head bytes, and format stores to
    a page no session holds any lock on (``allocate_page`` formats
    before it latches — a fresh page is uncontended by construction).
``TC111`` (DRAM page-cache coherence)
    No cached read may return bytes older than the latest committed
    install for its page.  The tiered DRAM page cache
    (``repro.storage.cache``) emits ``cache_fill`` / ``cache_hit`` /
    ``cache_inval`` events; an install is any STORE overlapping the
    page's first six header bytes — the page-type/flags/nrecords/
    content-start words that every committed header publish
    (checkpoint apply, RTM in-place commit, recovery replay, NVWAL
    copy-back) and every free-list link rewrites, and exactly the
    bytes TC103's live ranges protect (the free-list head word at
    offsets 6-8 is carved out on both sides: it is reconstructible
    and rewritten in place pre-commit).  A ``cache_hit`` on a page
    whose frame was filled before such an install, with no
    ``cache_inval`` or re-fill in between, is a stale read.  A frame
    filled before the checker attached is tracked from its first
    observed hit.
    Pre-commit record/cell traffic lands outside the window by
    construction, so legitimately cached pages never trip the rule.
    Cache-off runs emit no cache events and the rule is dormant.

Harness protocol: call :meth:`begin_txn` (with fresh live ranges)
before each transaction and :meth:`advance` after it; or just
:meth:`advance` periodically for lock-discipline-only checking (the
scheduler corpus).  Call :meth:`finish` at the end.  Findings carry
the trace sequence number of the offending event.
"""

from repro.core.locking import _COMPATIBLE, LOCK_X, decode_lock
from repro.analysis.findings import Finding
from repro.obs import trace as ev
from repro.storage.pagestore import _OFF_ROOTS, N_ROOT_SLOTS

_WORD = 8

#: Everything the checker can assert; pick a subset per corpus.
ALL_INVARIANTS = (
    "flush", "atomic", "live", "twopl", "snapshot", "twopc", "occ",
    "lockset", "cache",
)

#: TC111 install window: the first six header bytes of a page (type,
#: flags, nrecords, content-start) — rewritten by every committed
#: header install and by free-list link words, never by pre-commit
#: record traffic.  Bytes 6-8 (the in-page free-list head) are
#: excluded, mirroring TC103's live-range carve-out.
_CACHE_WINDOW = 6

#: Shard-namespace shift of packed resource idents and occ_begin pin
#: words (== repro.storage.sharding.SHARD_NS_SHIFT; 0 when unsharded).
_NS_SHIFT = 24
_NS_MASK = (1 << _NS_SHIFT) - 1


def _lines_of(addr, length):
    return range(addr >> 6, ((addr + max(length, 1) - 1) >> 6) + 1)


class _SessionState:
    __slots__ = ("held", "released", "open")

    def __init__(self):
        self.held = {}        # resource -> mode
        self.released = False
        self.open = False


class _OccState:
    """One OCC transaction's window (``occ_begin`` .. txn end)."""

    __slots__ = ("pins", "reads", "validated", "stale", "conflicted")

    def __init__(self):
        self.pins = {}        # shard namespace -> pinned timestamp
        self.reads = set()    # packed read-set resource words
        self.validated = False
        self.stale = ()       # stale resources recomputed at validate
        self.conflicted = False


class TraceChecker:
    """Streaming checker over a trace event sequence."""

    def __init__(self, trace=None, *, log_range=None, commit_word=None,
                 page_range=None, page_size=None, invariants=ALL_INVARIANTS,
                 shared_trace=False):
        self.trace = trace
        self.findings = []
        self.invariants = frozenset(invariants)
        #: [base, end) of the redo-log region (TC101 coverage scope).
        self.log_range = log_range
        #: Address of the 8-byte commit word (TC102).
        self.commit_word = commit_word
        #: The trace interleaves several engines (a sharded router's
        #: merged stream) and this checker is scoped to one of them: a
        #: COMMIT_MARK with no in-scope commit-word store belongs to
        #: another shard and is skipped, not a TC102 finding.  Safe
        #: because a shard's word store and its mark are adjacent in
        #: the stream (both happen inside one cooperative commit step).
        self.shared_trace = shared_trace
        #: [base, end) of the page arena incl. the store header
        #: (TC103 scope).
        self.page_range = page_range
        #: Page granularity of the arena (TC110 needs it to map a
        #: store address to the page resource a lock would protect;
        #: without it the lockset rule is dormant).
        self.page_size = page_size
        self._cursor = 0
        self._events_seen = 0
        self._txns_seen = 0
        # -- ordering state -------------------------------------------
        self._line_state = {}     # log-region line -> "dirty"|"inflight"
        self._word_store = None   # last (seq, addr, len) at commit word
        # -- live-range state -----------------------------------------
        self._live = []           # sorted (start, end) committed ranges
        self._pre_commit = False  # inside a txn, before its mark
        self._in_rtm = False
        self._pending_swap = None  # (seq, addr, len, flushed, fenced)
        # -- 2PL state ------------------------------------------------
        self._sessions = {}       # sid -> _SessionState
        self._waits = {}          # sid -> (resource, mode)
        # -- MVCC snapshot state --------------------------------------
        self._snapshot_ts = {}    # sid -> pinned snapshot timestamp
        # -- OCC state ------------------------------------------------
        self._occ = {}            # sid -> _OccState (occ_begin .. txn end)
        self._publish_ts = {}     # packed resource -> latest publish ts
        # -- 2PC state ------------------------------------------------
        self._twopc = {}          # gtid -> {prepared, decision, committed}
        # -- lockset (TC110) state ------------------------------------
        self._actor = None        # sid the current stores belong to
        self._lockset = {}        # resource -> {writers, candidates, reported}
        # -- page-cache coherence (TC111) state -----------------------
        self._cache_filled = {}   # page_no -> fill seq (frame is live)
        self._cache_stale = {}    # page_no -> install seq since the fill

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def for_engine(cls, engine, *, invariants=ALL_INVARIANTS,
                   shared_trace=False):
        """A checker scoped to ``engine``'s arena geometry."""
        config = engine.config
        log_range = None
        commit_word = None
        if getattr(engine, "log", None) is not None:
            log_range = (config.log_base, config.log_base + config.log_bytes)
            commit_word = config.log_base + 8
        page_range = (
            config.store_base,
            config.store_base + config.npages * config.page_size,
        )
        return cls(
            engine.obs.trace,
            log_range=log_range,
            commit_word=commit_word,
            page_range=page_range,
            page_size=config.page_size,
            invariants=invariants,
            shared_trace=shared_trace,
        )

    @staticmethod
    def live_ranges_of(engine):
        """Committed-reachable byte ranges of ``engine``'s page space:
        the named-root pointer words, and every reachable page's
        durable slot header plus its allocated cells.  Pure reads —
        computing this never perturbs the traced store stream.

        The free-list head word (header bytes 6-8) is carved out: the
        in-page free list is reconstructible by design (paper Section
        4.3) and is deliberately rewritten in place, unflushed, at any
        time."""
        store = engine.store
        ranges = []
        roots_base = store.base + _OFF_ROOTS
        ranges.append((roots_base, roots_base + 4 * N_ROOT_SLOTS))
        for page_no in sorted(engine.reachable_pages()):
            page = store.page(page_no)
            image = page.committed_header_image()
            ranges.append((page.base, page.base + 6))
            ranges.append((page.base + 8, page.base + len(image)))
            for offset in page.committed_offsets():
                size = page.cell_allocated_size(offset)
                ranges.append((page.base + offset, page.base + offset + size))
        ranges.sort()
        return ranges

    # ------------------------------------------------------------------
    # Harness protocol
    # ------------------------------------------------------------------

    def begin_txn(self, live_ranges=None):
        """Open a transaction window: drain pending events (the tail of
        the previous transaction is post-commit), then arm pre-commit
        checking against ``live_ranges``."""
        self.advance()
        self._flush_pending_swap(at_end=True)
        if live_ranges is not None:
            self._live = sorted(live_ranges)
        self._pre_commit = True
        self._txns_seen += 1

    def advance(self):
        """Process every event recorded since the last call."""
        if self.trace is None:
            return
        events = self.trace.events(since_seq=self._cursor)
        if events and events[0][0] > self._cursor + 1 and self._cursor:
            self.findings.append(Finding(
                "TC000",
                "trace ring dropped %d events; checking is incomplete "
                "(enlarge the recorder capacity or advance more often)"
                % (events[0][0] - self._cursor - 1),
                trace_seq=events[0][0],
            ))
        for event in events:
            self._process(event)
        if events:
            self._cursor = events[-1][0]

    def finish(self):
        """Drain remaining events and run end-of-stream checks."""
        self.advance()
        self._flush_pending_swap(at_end=True)
        return self.findings

    def close(self):
        """Seal the checker at the current stream position: drain what
        was recorded so far, then detach from the recorder so later
        events are never consumed.  The crash harness calls this at the
        simulated power cut — recovery's redo stores legitimately
        rewrite live bytes and must not be judged by pre-crash state."""
        self.advance()
        # An atomic swap still awaiting its flush at the power cut is
        # not a violation — the interrupted code was about to issue it,
        # and either direction of the swap is committed-equivalent.
        self._pending_swap = None
        self.trace = None
        return self.findings

    def feed(self, events):
        """Process raw ``(seq, t_ns, kind, a, b)`` tuples directly
        (fixture traces; no recorder needed)."""
        for event in events:
            self._process(event)
            self._cursor = event[0]
        return self

    @property
    def stats(self):
        return {
            "events": self._events_seen,
            "txns": self._txns_seen,
            "findings": len(self.findings),
        }

    # ------------------------------------------------------------------
    # Event dispatch
    # ------------------------------------------------------------------

    def _process(self, event):
        seq, _t, kind, a, b = event
        self._events_seen += 1
        if kind == ev.STORE:
            self._on_store(seq, a, b)
        elif kind in (ev.CLFLUSH, ev.CLWB):
            self._on_flush(a)
        elif kind == ev.FENCE:
            self._on_fence()
        elif kind == ev.COMMIT_MARK:
            self._on_commit_mark(seq)
        elif kind == ev.RTM_BEGIN:
            self._in_rtm = True
        elif kind == ev.RTM_ABORT:
            self._in_rtm = False
        elif kind == ev.RTM_COMMIT:
            self._in_rtm = False
            # FAST⁺ in-place publish: the header line itself is the
            # commit mark; everything after it is post-commit.
            self._pre_commit = False
        elif kind == ev.LOCK_ACQUIRE or kind == ev.LOCK_UPGRADE:
            self._on_lock_acquire(seq, a, b, upgrade=kind == ev.LOCK_UPGRADE)
        elif kind == ev.LOCK_RELEASE:
            self._on_lock_release(a, b)
        elif kind == ev.LOCK_WAIT:
            resource, mode = decode_lock(b)
            self._waits[a] = (resource, mode)
        elif kind == ev.LOCK_WAKE:
            self._waits.pop(a, None)
        elif kind == ev.TXN_BEGIN:
            state = self._sessions.setdefault(a, _SessionState())
            state.open = True
            state.released = False
            self._txns_seen += 1
        elif kind in (ev.TXN_COMMIT, ev.TXN_ABORT):
            self._on_txn_end(seq, a, committed=kind == ev.TXN_COMMIT)
        elif kind == ev.SNAPSHOT_BEGIN:
            # A sharded reader pins per shard (max: the newest pin).
            previous = self._snapshot_ts.get(a)
            self._snapshot_ts[a] = b if previous is None else max(previous, b)
        elif kind == ev.SNAPSHOT_READ:
            self._on_snapshot_read(seq, a, b)
        elif kind == ev.SNAPSHOT_END:
            self._snapshot_ts.pop(a, None)
        elif kind == ev.OCC_BEGIN:
            state = self._occ.setdefault(a, _OccState())
            state.pins[b >> _NS_SHIFT] = b & ((1 << _NS_SHIFT) - 1)
        elif kind == ev.OCC_READ:
            state = self._occ.get(a)
            if state is not None:
                state.reads.add(b)
        elif kind == ev.OCC_VALIDATE:
            self._on_occ_validate(seq, a)
        elif kind == ev.OCC_CONFLICT:
            state = self._occ.get(a)
            if state is not None:
                state.conflicted = True
        elif kind == ev.VERSION_PUBLISH:
            previous = self._publish_ts.get(a, 0)
            self._publish_ts[a] = max(previous, b)
        elif kind == ev.SCHED_PICK:
            self._actor = a
        elif kind == ev.TWOPC_PREPARE:
            self._twopc_state(a)["prepared"].add(b)
        elif kind == ev.TWOPC_DECISION:
            self._on_twopc_decision(seq, a, b)
        elif kind == ev.TWOPC_COMMIT:
            self._on_twopc_commit(seq, a, b)
        elif kind == ev.CACHE_FILL:
            if "cache" in self.invariants:
                self._cache_filled[a] = seq
                self._cache_stale.pop(a, None)
        elif kind == ev.CACHE_HIT:
            if "cache" in self.invariants:
                self._on_cache_hit(seq, a)
        elif kind == ev.CACHE_INVAL:
            if "cache" in self.invariants:
                self._cache_filled.pop(a, None)
                self._cache_stale.pop(a, None)

    # ------------------------------------------------------------------
    # TC101 / TC102 — flush coverage and mark atomicity
    # ------------------------------------------------------------------

    def _log_lines(self, addr, length):
        base, end = self.log_range
        if addr + length <= base or addr >= end:
            return ()
        return _lines_of(max(addr, base), min(addr + length, end) - max(addr, base))

    def _on_store(self, seq, addr, length):
        if self.log_range is not None:
            for line in self._log_lines(addr, length):
                self._line_state[line] = "dirty"
        if self.commit_word is not None:
            if addr <= self.commit_word < addr + length:
                self._word_store = (seq, addr, length)
        if "live" in self.invariants:
            self._check_live_store(seq, addr, length)
        if "lockset" in self.invariants:
            self._check_lockset(seq, addr, length)
        if self._cache_filled:
            self._check_cache_store(seq, addr, length)

    def _on_flush(self, addr):
        line = addr >> 6
        if self._line_state.get(line) == "dirty":
            self._line_state[line] = "inflight"
        swap = self._pending_swap
        if swap is not None and (swap[1] >> 6) == (addr >> 6):
            self._pending_swap = (swap[0], swap[1], swap[2], True, False)

    def _on_fence(self):
        self._line_state = {
            line: state for line, state in self._line_state.items()
            if state != "inflight"
        }
        swap = self._pending_swap
        if swap is not None and swap[3]:
            self._pending_swap = None  # flushed + fenced: sanctioned

    def _on_commit_mark(self, seq):
        if self.shared_trace and self._word_store is None:
            return  # another shard's mark: out of scope
        if "flush" in self.invariants and self.log_range is not None:
            bad = sorted(
                line for line, state in self._line_state.items()
                if state in ("dirty", "inflight")
            )
            if bad:
                self.findings.append(Finding(
                    "TC101",
                    "commit mark with %d log line(s) not flushed+fenced "
                    "(first: line %#x %s)"
                    % (len(bad), bad[0] << 6, self._line_state[bad[0]]),
                    trace_seq=seq,
                ))
        if "atomic" in self.invariants and self.commit_word is not None:
            store = self._word_store
            if store is None:
                self.findings.append(Finding(
                    "TC102",
                    "commit mark event with no store to the commit word",
                    trace_seq=seq,
                ))
            else:
                _sseq, addr, length = store
                crosses = (addr // _WORD) != ((addr + length - 1) // _WORD)
                if length > _WORD or crosses:
                    self.findings.append(Finding(
                        "TC102",
                        "commit mark published by a %d-byte store at %#x "
                        "(not a single ≤8-byte atomic store)"
                        % (length, addr),
                        trace_seq=seq,
                    ))
            self._word_store = None
        # The mark closes the transaction's pre-commit window.
        self._pre_commit = False

    # ------------------------------------------------------------------
    # TC103 — no store to live ranges before the commit mark
    # ------------------------------------------------------------------

    def _overlaps_live(self, addr, length):
        end = addr + length
        for start, stop in self._live:
            if start >= end:
                break
            if stop > addr:
                return (start, stop)
        return None

    def _check_live_store(self, seq, addr, length):
        if not self._pre_commit or self._in_rtm:
            return
        if self.page_range is not None:
            base, end = self.page_range
            if addr + length <= base or addr >= end:
                return
        hit = self._overlaps_live(addr, length)
        if hit is None:
            return
        # A previous small swap must complete (flush+fence) before the
        # next store; a second store while one is pending breaks the
        # "immediately persisted" exemption.
        self._flush_pending_swap(at_end=False)
        atomic = (
            length <= _WORD
            and (addr // _WORD) == ((addr + length - 1) // _WORD)
        )
        if atomic:
            self._pending_swap = (seq, addr, length, False, False)
            return
        self.findings.append(Finding(
            "TC103",
            "pre-commit store of %d bytes at %#x overwrites live "
            "range [%#x, %#x)" % (length, addr, hit[0], hit[1]),
            trace_seq=seq,
        ))

    def _flush_pending_swap(self, *, at_end):
        swap = self._pending_swap
        if swap is None:
            return
        self._pending_swap = None
        seq, addr, _length, flushed, _fenced = swap
        self.findings.append(Finding(
            "TC103",
            "atomic pointer-swap store at %#x was not %s before the "
            "next %s (live bytes may tear)"
            % (
                addr,
                "fenced" if flushed else "flushed",
                "window end" if at_end else "store",
            ),
            trace_seq=seq,
        ))

    # ------------------------------------------------------------------
    # TC104 / TC105 / TC106 — strict two-phase locking
    # ------------------------------------------------------------------

    def _on_lock_acquire(self, seq, sid, word, *, upgrade):
        if "occ" in self.invariants:
            occ = self._occ.get(sid)
            if occ is not None and not occ.validated:
                resource, mode = decode_lock(word)
                self.findings.append(Finding(
                    "TC109",
                    "OCC session %d %s %s on %r before validating "
                    "(the read phase must acquire zero locks)"
                    % (sid, "upgraded to" if upgrade else "acquired",
                       mode, (resource,)[0]),
                    trace_seq=seq,
                ))
        if "snapshot" in self.invariants and sid in self._snapshot_ts:
            resource, mode = decode_lock(word)
            self.findings.append(Finding(
                "TC107",
                "read-only snapshot session %d %s %s on %r (MVCC "
                "readers must acquire zero locks)"
                % (sid, "upgraded to" if upgrade else "acquired",
                   mode, (resource,)[0]),
                trace_seq=seq,
            ))
        if "twopl" not in self.invariants:
            return
        resource, mode = decode_lock(word)
        state = self._sessions.setdefault(sid, _SessionState())
        if state.released:
            self.findings.append(Finding(
                "TC104",
                "session %d acquired %s on %r after releasing locks "
                "(strict 2PL forbids a second growth phase)"
                % (sid, mode, (resource,)[0]),
                trace_seq=seq,
            ))
        state.held[resource] = mode
        self._waits.pop(sid, None)
        self._check_acyclic(seq)

    def _on_lock_release(self, sid, word):
        if "twopl" not in self.invariants:
            return
        resource, _mode = decode_lock(word)
        state = self._sessions.setdefault(sid, _SessionState())
        state.held.pop(resource, None)
        state.released = True

    def _on_txn_end(self, seq, sid, *, committed):
        state = self._sessions.setdefault(sid, _SessionState())
        if "twopl" in self.invariants and state.held:
            self.findings.append(Finding(
                "TC105",
                "session %d %s with %d lock(s) still held (first: %r)"
                % (
                    sid,
                    "committed" if committed else "aborted",
                    len(state.held),
                    sorted(state.held)[0],
                ),
                trace_seq=seq,
            ))
        if "twopl" in self.invariants and committed:
            self._check_acyclic(seq)
        state.held.clear()
        state.released = False
        state.open = False
        self._waits.pop(sid, None)
        self._on_occ_txn_end(seq, sid, committed=committed)

    # ------------------------------------------------------------------
    # TC107 — lock-free snapshot reads
    # ------------------------------------------------------------------

    def _on_snapshot_read(self, seq, sid, version_ts):
        if "snapshot" not in self.invariants:
            return
        snapshot_ts = self._snapshot_ts.get(sid)
        if snapshot_ts is not None and version_ts > snapshot_ts:
            self.findings.append(Finding(
                "TC107",
                "snapshot session %d read a version committed at ts %d "
                "> its snapshot ts %d (snapshot isolation violated)"
                % (sid, version_ts, snapshot_ts),
                trace_seq=seq,
            ))

    # ------------------------------------------------------------------
    # TC110 — lockset race detection (Eraser-shape)
    # ------------------------------------------------------------------

    def set_actor(self, sid):
        """Attribute subsequent stores to session ``sid`` (or None to
        stop attributing).  ``sched_pick`` events do this automatically
        for pick-strategy-driven schedules; harnesses that interleave
        sessions by hand may call this directly instead."""
        self._actor = sid

    def _lockset_resource(self, addr, length):
        """The lockable resource a store mutates, or None if the store
        is outside the arena or inside a sanctioned lock-free region."""
        base, end = self.page_range
        if addr < base or addr + length > end:
            return None
        page_no = (addr - base) // self.page_size
        offset = addr - base - page_no * self.page_size
        if page_no == 0:
            # Store header: only the named-root words are lock-managed
            # state.  Magic/geometry/free-head words are allocator
            # machinery published by single-word atomic stores (paper
            # Section 4.4) with no lock discipline to check.
            roots_end = _OFF_ROOTS + 4 * N_ROOT_SLOTS
            if offset < _OFF_ROOTS or offset >= roots_end:
                return None
            return ("root", (offset - _OFF_ROOTS) // 4)
        if offset >= 6 and offset + length <= 8:
            # In-page free-list head: reconstructible by design and
            # rewritten in place at any time (TC103 carves out the
            # same two bytes from the live ranges).
            return None
        return ("page", page_no)

    def _check_lockset(self, seq, addr, length):
        sid = self._actor
        if sid is None:
            return  # unattributed stores (preload, recovery, defaults)
        if self.page_range is None or self.page_size is None:
            return  # no arena geometry: the rule stays dormant
        resource = self._lockset_resource(addr, length)
        if resource is None:
            return
        # The writer's X-mode lockset at this instant.  Lock resources
        # carry the shard namespace in their ident; store addresses
        # are shard-local, so mask it off to correlate.
        state = self._sessions.get(sid)
        held = state.held if state is not None else {}
        held_x = {
            (res[0], res[1] & _NS_MASK)
            for res, mode in held.items() if mode == LOCK_X
        }
        if resource[0] == "page" and resource not in {
            (res[0], res[1] & _NS_MASK) for res in held
        }:
            # A store to a page the writer holds no lock on at all, in
            # any mode: allocation-format traffic iff nobody else
            # holds it either (``allocate_page`` formats the fresh
            # page before latching it — uncontended by construction).
            # If any session holds the page, this store is a genuine
            # unprotected write and stays in the analysis.
            if not any(
                resource in {(r[0], r[1] & _NS_MASK) for r in other.held}
                for other in self._sessions.values()
            ):
                return
        entry = self._lockset.get(resource)
        if entry is None:
            self._lockset[resource] = {
                "writers": {sid},
                "candidates": held_x,
                "reported": False,
            }
            return
        entry["writers"].add(sid)
        entry["candidates"] &= held_x
        if (len(entry["writers"]) >= 2 and not entry["candidates"]
                and not entry["reported"]):
            entry["reported"] = True
            self.findings.append(Finding(
                "TC110",
                "%s %d written by sessions %s with an empty lockset "
                "(no consistent protecting X lock across writers)"
                % (resource[0], resource[1],
                   ",".join(str(s) for s in sorted(entry["writers"]))),
                trace_seq=seq,
            ))

    # ------------------------------------------------------------------
    # TC111 — DRAM page-cache coherence
    # ------------------------------------------------------------------

    def _check_cache_store(self, seq, addr, length):
        """Mark filled pages whose install window this store rewrites.

        Only entered while at least one frame is live (``_cache_filled``
        is empty in cache-off runs and whenever ``"cache"`` is not
        armed, so the common store path pays one falsy check).
        """
        if self.page_range is None or not self.page_size:
            return
        base, end = self.page_range
        if addr + length <= base or addr >= end:
            return
        first = (max(addr, base) - base) // self.page_size
        last = (min(addr + length, end) - 1 - base) // self.page_size
        for page_no in range(first, last + 1):
            if page_no not in self._cache_filled:
                continue
            page_base = base + page_no * self.page_size
            if addr < page_base + _CACHE_WINDOW and addr + length > page_base:
                self._cache_stale[page_no] = seq

    def _on_cache_hit(self, seq, page_no):
        """A hit on a stale-marked frame is the TC111 violation.  A hit
        with no recorded fill means the frame was filled before the
        checker attached: the hit itself is taken on trust (what the
        frame missed cannot be known), but it proves a frame is live,
        so the frame is tracked from this seq on — a later install
        with no invalidation, then a hit, is the finding."""
        if page_no not in self._cache_filled:
            self._cache_filled[page_no] = seq
            return
        install_seq = self._cache_stale.get(page_no)
        if install_seq is None:
            return
        self.findings.append(Finding(
            "TC111",
            "cached read of page %d served bytes older than the "
            "committed install at trace seq %d (no invalidation "
            "between install and hit)" % (page_no, install_seq),
            trace_seq=seq,
        ))

    # ------------------------------------------------------------------
    # TC109 — optimistic concurrency control
    # ------------------------------------------------------------------

    def _on_occ_validate(self, seq, sid):
        """Recompute the stale set independently: the read set against
        the ``version_publish`` history at this instant.  Validation is
        the transaction's commit point (the cooperative scheduler runs
        validate-then-install atomically), so "committed version in
        ``(pin_ts, commit_ts]``" is exactly "published ts > pin as of
        this event" — recomputing here also keeps the transaction's own
        installs (published before its TXN_COMMIT) out of the check."""
        state = self._occ.get(sid)
        if state is None:
            return
        state.validated = True
        if "occ" not in self.invariants:
            return
        stale = []
        for resource in sorted(state.reads):
            ident = decode_lock(resource)[0][1]
            pin = state.pins.get(ident >> _NS_SHIFT)
            if pin is None:
                continue
            if self._publish_ts.get(resource, 0) > pin:
                stale.append(resource)
        state.stale = tuple(stale)

    def _on_occ_txn_end(self, seq, sid, *, committed):
        state = self._occ.pop(sid, None)
        if state is None or "occ" not in self.invariants:
            return
        if not committed:
            return
        if not state.validated:
            self.findings.append(Finding(
                "TC109",
                "OCC session %d committed without validating its read "
                "set" % sid,
                trace_seq=seq,
            ))
        elif state.stale and not state.conflicted:
            self.findings.append(Finding(
                "TC109",
                "OCC session %d committed with %d stale read-set "
                "resource(s) (first: %#x has a committed version newer "
                "than the pin)" % (sid, len(state.stale), state.stale[0]),
                trace_seq=seq,
            ))

    # ------------------------------------------------------------------
    # TC108 — two-phase commit ordering
    # ------------------------------------------------------------------

    def _twopc_state(self, gtid):
        state = self._twopc.get(gtid)
        if state is None:
            state = self._twopc[gtid] = {
                "prepared": set(),     # shard indexes with a prepare record
                "decision": None,      # (participants, commit?) once decided
                "committed": set(),    # shard indexes with a commit mark
            }
        return state

    def _on_twopc_decision(self, seq, gtid, word):
        state = self._twopc_state(gtid)
        participants, commit = word >> 1, bool(word & 1)
        state["decision"] = (participants, commit)
        if "twopc" not in self.invariants:
            return
        if commit and len(state["prepared"]) < participants:
            self.findings.append(Finding(
                "TC108",
                "commit decision for gtid %d with %d/%d participants "
                "prepared" % (gtid, len(state["prepared"]), participants),
                trace_seq=seq,
            ))

    def _on_twopc_commit(self, seq, gtid, shard):
        state = self._twopc_state(gtid)
        state["committed"].add(shard)
        if "twopc" not in self.invariants:
            return
        if shard not in state["prepared"]:
            self.findings.append(Finding(
                "TC108",
                "shard %d commit mark for gtid %d with no prepare record"
                % (shard, gtid),
                trace_seq=seq,
            ))
        decision = state["decision"]
        if decision is None:
            self.findings.append(Finding(
                "TC108",
                "shard %d commit mark for gtid %d before the coordinator "
                "decision" % (shard, gtid),
                trace_seq=seq,
            ))
        elif not decision[1]:
            self.findings.append(Finding(
                "TC108",
                "shard %d commit mark for gtid %d against an abort "
                "decision" % (shard, gtid),
                trace_seq=seq,
            ))

    def _blockers(self, sid, resource, mode):
        compatible = _COMPATIBLE[mode]
        blockers = []
        for other, state in self._sessions.items():
            if other == sid:
                continue
            other_mode = state.held.get(resource)
            if other_mode is not None and other_mode not in compatible:
                blockers.append(other)
        return blockers

    def _check_acyclic(self, seq):
        """The wait-for graph must be acyclic at every granted acquire
        and at every commit: a deadlock cycle may exist only in the
        instant between parking and victim selection, never across a
        subsequent grant."""
        edges = {
            sid: self._blockers(sid, resource, mode)
            for sid, (resource, mode) in self._waits.items()
        }
        for start in sorted(edges):
            path, on_path = [start], {start}
            if self._dfs_cycle(start, start, edges, path, on_path):
                self.findings.append(Finding(
                    "TC106",
                    "wait-for cycle persists across a lock grant: %s"
                    % " -> ".join(str(s) for s in path + [start]),
                    trace_seq=seq,
                ))
                return

    def _dfs_cycle(self, start, node, edges, path, on_path):
        for blocker in edges.get(node, ()):
            if blocker == start:
                return True
            if blocker in on_path or blocker not in edges:
                continue
            path.append(blocker)
            on_path.add(blocker)
            if self._dfs_cycle(start, blocker, edges, path, on_path):
                return True
            on_path.discard(path.pop())
        return False
