"""Analyzer self-test: every rule must fire on its known-bad input.

A lint or trace checker that silently stops matching is worse than none
— CI would keep passing on green nothing.  ``python -m repro.analysis
--self-test`` runs every static rule against an embedded known-bad
module and every dynamic invariant against an embedded known-bad event
trace, and fails unless each produces exactly its expected rule.  The
richer fixture files (with exact-output assertions) live in
``tests/analysis/fixtures``; these embedded copies keep the CLI
self-contained.
"""

from repro.analysis.explore import explore
from repro.analysis.lint import lint_source
from repro.analysis.mutants import MUTANTS
from repro.analysis.tracecheck import TraceChecker
from repro.core.locking import LOCK_S, LOCK_X, encode_lock
from repro.obs import trace as ev

# ----------------------------------------------------------------------
# Static rules: (module path that scopes the rule, known-bad source)
# ----------------------------------------------------------------------

STATIC_FIXTURES = {
    "PM001": ("core/bad.py", (
        "def f(pm):\n"
        "    pm.write_u64(0, 1)\n"
        "    pm.flush_range(0, 8)\n"
    )),
    "PM002": ("core/bad.py", (
        "def commit(self):\n"
        "    self.pm.write_u64(self.head, 1)  "
        "# repro: allow[PM001] fixture isolates PM002\n"
        "    self.log.commit(7)\n"
    )),
    "PM003": ("core/bad.py", (
        "import time\n"
        "def now():\n"
        "    return time.time()\n"
    )),
    "PM004": ("core/bad.py", (
        "def f(obs):\n"
        "    obs.inc('engine.txn.bogus')\n"
    )),
    "PM005": ("core/bad.py", (
        "def f(g):\n"
        "    try:\n"
        "        g()\n"
        "    except LockConflict:\n"
        "        pass\n"
    )),
    "PM006": ("core/bad.py", (
        "def f(session, resource):\n"
        "    session.lock_manager.acquire(session.sid, resource, 'X')\n"
    )),
}

# ----------------------------------------------------------------------
# Dynamic invariants: known-bad event traces
# ----------------------------------------------------------------------

_LOG = (0x10000, 0x14000)
_WORD = 0x10008
_PAGES = (0, 0x10000)
_LIVE = [(0x100, 0x140)]

_RES_A = encode_lock(("page", 1), LOCK_X)
_RES_B = encode_lock(("page", 2), LOCK_X)
_RES_C = encode_lock(("page", 3), LOCK_X)


def _ordering_checker():
    return TraceChecker(
        None, log_range=_LOG, commit_word=_WORD, page_range=_PAGES,
    )


def _tc101():
    # A log frame stored but never flushed when the mark lands.
    checker = _ordering_checker()
    checker.feed([
        (1, 0.0, ev.STORE, 0x10040, 16),
        (2, 0.0, ev.STORE, _WORD, 8),
        (3, 0.0, ev.CLFLUSH, 0x10000, 0),
        (4, 0.0, ev.FENCE, 0, 0),
        (5, 0.0, ev.COMMIT_MARK, 1, 0),
    ])
    return checker.finish()


def _tc102():
    # The commit mark published by a 16-byte (non-atomic) store.
    checker = _ordering_checker()
    checker.feed([
        (1, 0.0, ev.STORE, _WORD, 16),
        (2, 0.0, ev.CLFLUSH, 0x10000, 0),
        (3, 0.0, ev.FENCE, 0, 0),
        (4, 0.0, ev.COMMIT_MARK, 1, 0),
    ])
    return checker.finish()


def _tc101_group():
    # Group commit: two members share one epoch, but the second
    # member's frames miss the shared fence (its flush would arrive
    # only after the group mark) — dirty log lines at the mark.
    checker = _ordering_checker()
    checker.feed([
        (1, 0.0, ev.STORE, 0x10040, 16),   # member 1 frames
        (2, 0.0, ev.STORE, 0x10080, 16),   # member 2 frames
        (3, 0.0, ev.CLFLUSH, 0x10040, 0),  # only member 1 flushed
        (4, 0.0, ev.FENCE, 0, 0),          # the epoch's shared fence
        (5, 0.0, ev.STORE, _WORD, 8),      # group mark word
        (6, 0.0, ev.CLFLUSH, 0x10000, 0),
        (7, 0.0, ev.FENCE, 0, 0),
        (8, 0.0, ev.COMMIT_MARK, 2, 0),    # member 2 still dirty here
    ])
    return checker.finish()


def _tc102_group():
    # Group commit: a 16-byte group mark — the whole point of the
    # shared mark is that it still fits one ≤8-byte atomic store.
    checker = _ordering_checker()
    checker.feed([
        (1, 0.0, ev.STORE, 0x10040, 16),   # member 1 frames
        (2, 0.0, ev.CLFLUSH, 0x10040, 0),
        (3, 0.0, ev.STORE, 0x10080, 16),   # member 2 frames
        (4, 0.0, ev.CLFLUSH, 0x10080, 0),
        (5, 0.0, ev.FENCE, 0, 0),          # shared fence, both flushed
        (6, 0.0, ev.STORE, _WORD, 16),     # 16-byte mark: not atomic
        (7, 0.0, ev.CLFLUSH, 0x10000, 0),
        (8, 0.0, ev.FENCE, 0, 0),
        (9, 0.0, ev.COMMIT_MARK, 2, 0),
    ])
    return checker.finish()


def _group_good():
    # A well-formed epoch close: every member's frames flushed before
    # the ONE shared fence, then a single ≤8-byte group mark.  Must
    # produce zero findings — the checkers accept group marks.
    checker = _ordering_checker()
    checker.feed([
        (1, 0.0, ev.STORE, 0x10040, 16),   # member 1 frames
        (2, 0.0, ev.CLFLUSH, 0x10040, 0),
        (3, 0.0, ev.STORE, 0x10080, 16),   # member 2 frames
        (4, 0.0, ev.CLFLUSH, 0x10080, 0),
        (5, 0.0, ev.FENCE, 0, 0),          # one fence for the group
        (6, 0.0, ev.STORE, _WORD, 8),      # one 8-byte group mark
        (7, 0.0, ev.CLFLUSH, 0x10000, 0),
        (8, 0.0, ev.FENCE, 0, 0),
        (9, 0.0, ev.COMMIT_MARK, 2, 0),
    ])
    return checker.finish()


def _tc103():
    # A 32-byte pre-commit store straight onto live bytes.
    checker = _ordering_checker()
    checker.begin_txn(_LIVE)
    checker.feed([(1, 0.0, ev.STORE, 0x100, 32)])
    return checker.finish()


def _tc103_swap():
    # An atomic pointer swap that is never flushed before the window
    # ends — the exemption requires immediate flush + fence.
    checker = _ordering_checker()
    checker.begin_txn(_LIVE)
    checker.feed([(1, 0.0, ev.STORE, 0x100, 8)])
    return checker.finish()


def _tc104():
    # Acquire after release: a second growth phase.
    checker = _ordering_checker()
    checker.feed([
        (1, 0.0, ev.TXN_BEGIN, 1, 0),
        (2, 0.0, ev.LOCK_ACQUIRE, 1, _RES_A),
        (3, 0.0, ev.LOCK_RELEASE, 1, _RES_A),
        (4, 0.0, ev.LOCK_ACQUIRE, 1, _RES_B),
    ])
    return checker.finish()


def _tc105():
    # Commit with a lock still held.
    checker = _ordering_checker()
    checker.feed([
        (1, 0.0, ev.TXN_BEGIN, 1, 0),
        (2, 0.0, ev.LOCK_ACQUIRE, 1, _RES_A),
        (3, 0.0, ev.TXN_COMMIT, 1, 0),
    ])
    return checker.finish()


def _tc106():
    # A wait-for cycle (1 waits on 2, 2 waits on 1) still present when
    # a later acquire is granted — deadlock detection failed to abort.
    checker = _ordering_checker()
    checker.feed([
        (1, 0.0, ev.LOCK_ACQUIRE, 1, _RES_A),
        (2, 0.0, ev.LOCK_ACQUIRE, 2, _RES_B),
        (3, 0.0, ev.LOCK_WAIT, 1, _RES_B),
        (4, 0.0, ev.LOCK_WAIT, 2, _RES_A),
        (5, 0.0, ev.LOCK_ACQUIRE, 3, _RES_C),
    ])
    return checker.finish()


def _tc107():
    # A "read-only" snapshot session that acquires a lock anyway.
    checker = _ordering_checker()
    checker.feed([
        (1, 0.0, ev.SNAPSHOT_BEGIN, 1, 100),
        (2, 0.0, ev.LOCK_ACQUIRE, 1, _RES_A),
    ])
    return checker.finish()


def _tc107_read():
    # A snapshot read resolving a version younger than its pinned ts.
    checker = _ordering_checker()
    checker.feed([
        (1, 0.0, ev.SNAPSHOT_BEGIN, 1, 100),
        (2, 0.0, ev.SNAPSHOT_READ, 1, 200),
    ])
    return checker.finish()


def _tc108():
    # A shard commit mark with no prepare record behind it.
    checker = _ordering_checker()
    checker.feed([
        (1, 0.0, ev.TWOPC_PREPARE, 7, 0),
        (2, 0.0, ev.TWOPC_DECISION, 7, (2 << 1) | 1),
        (3, 0.0, ev.TWOPC_COMMIT, 7, 0),
        (4, 0.0, ev.TWOPC_COMMIT, 7, 1),  # shard 1 never prepared
    ])
    return checker.finish()


def _tc108_decision():
    # A shard commit mark before any coordinator decision persisted.
    checker = _ordering_checker()
    checker.feed([
        (1, 0.0, ev.TWOPC_PREPARE, 7, 0),
        (2, 0.0, ev.TWOPC_COMMIT, 7, 0),
    ])
    return checker.finish()


def _tc108_abort():
    # A shard commit mark against an abort decision.
    checker = _ordering_checker()
    checker.feed([
        (1, 0.0, ev.TWOPC_PREPARE, 7, 0),
        (2, 0.0, ev.TWOPC_DECISION, 7, (1 << 1) | 0),
        (3, 0.0, ev.TWOPC_COMMIT, 7, 0),
    ])
    return checker.finish()


def _tc109():
    # An OCC session taking a lock during its read phase (before the
    # commit-point validation) — the optimistic path silently
    # degraded into hybrid locking.
    checker = _ordering_checker()
    checker.feed([
        (1, 0.0, ev.TXN_BEGIN, 1, 0),
        (2, 0.0, ev.OCC_BEGIN, 1, 100),
        (3, 0.0, ev.OCC_READ, 1, _RES_A),
        (4, 0.0, ev.LOCK_ACQUIRE, 1, _RES_A),
        (5, 0.0, ev.OCC_VALIDATE, 1, 100),
        (6, 0.0, ev.LOCK_RELEASE, 1, _RES_A),
        (7, 0.0, ev.TXN_COMMIT, 1, 0),
    ])
    return checker.finish()


def _tc109_stale():
    # A validated commit whose read set has a committed version in
    # (pin_ts, commit_ts] — validation let a stale read through.
    checker = _ordering_checker()
    checker.feed([
        (1, 0.0, ev.TXN_BEGIN, 1, 0),
        (2, 0.0, ev.OCC_BEGIN, 1, 100),
        (3, 0.0, ev.OCC_READ, 1, _RES_A),
        (4, 0.0, ev.VERSION_PUBLISH, _RES_A, 150),
        (5, 0.0, ev.OCC_VALIDATE, 1, 100),
        (6, 0.0, ev.TXN_COMMIT, 1, 0),
    ])
    return checker.finish()


_PAGE_SIZE = 0x200
_S_PAGE1 = encode_lock(("page", 1), LOCK_S)
_X_PAGE1 = encode_lock(("page", 1), LOCK_X)


def _lockset_checker():
    return TraceChecker(
        None, log_range=_LOG, commit_word=_WORD, page_range=_PAGES,
        page_size=_PAGE_SIZE,
    )


def _tc110():
    # Two sessions write one page holding only (compatible) S latches:
    # no consistent protecting X lock — the Eraser lockset empties.
    # ``sched_pick`` events attribute the stores (as the explorer's
    # pick-strategy-driven scheduler emits them).
    checker = _lockset_checker()
    checker.feed([
        (1, 0.0, ev.TXN_BEGIN, 1, 0),
        (2, 0.0, ev.TXN_BEGIN, 2, 0),
        (3, 0.0, ev.LOCK_ACQUIRE, 1, _S_PAGE1),
        (4, 0.0, ev.SCHED_PICK, 1, 0),
        (5, 0.0, ev.STORE, 0x240, 16),
        (6, 0.0, ev.LOCK_ACQUIRE, 2, _S_PAGE1),
        (7, 0.0, ev.SCHED_PICK, 2, 1),
        (8, 0.0, ev.STORE, 0x250, 16),
    ])
    return checker.finish()


def _lockset_good():
    # The same two writers properly serialized under the page's X lock
    # (writer 2 acquires only after writer 1 released): the candidate
    # set stays non-empty.  Must produce zero findings.
    checker = _lockset_checker()
    checker.feed([
        (1, 0.0, ev.LOCK_ACQUIRE, 1, _X_PAGE1),
        (2, 0.0, ev.SCHED_PICK, 1, 0),
        (3, 0.0, ev.STORE, 0x240, 16),
        (4, 0.0, ev.LOCK_RELEASE, 1, _X_PAGE1),
        (5, 0.0, ev.LOCK_ACQUIRE, 2, _X_PAGE1),
        (6, 0.0, ev.SCHED_PICK, 2, 1),
        (7, 0.0, ev.STORE, 0x250, 16),
        (8, 0.0, ev.LOCK_RELEASE, 2, _X_PAGE1),
    ])
    return checker.finish()


def _tc111():
    # A cached page whose header window is overwritten by a committed
    # install (store into the page's first 6 bytes), then served from
    # the cache with no CACHE_INVAL in between — a stale read.  Page 1
    # starts at 0x200 under the 0x200-byte fixture geometry.
    checker = _lockset_checker()
    checker.feed([
        (1, 0.0, ev.CACHE_FILL, 1, 0),
        (2, 0.0, ev.STORE, 0x200, 8),      # header install on page 1
        (3, 0.0, ev.CACHE_HIT, 1, 0),      # stale bytes served
    ])
    return checker.finish()


def _tc111_reinstall():
    # The first install is invalidated correctly; the page is refilled
    # and a SECOND install (an nrecords bump) misses its invalidation.
    checker = _lockset_checker()
    checker.feed([
        (1, 0.0, ev.CACHE_FILL, 1, 0),
        (2, 0.0, ev.STORE, 0x200, 8),
        (3, 0.0, ev.CACHE_INVAL, 1, ev.INVAL_INSTALL),
        (4, 0.0, ev.CACHE_FILL, 1, 0),
        (5, 0.0, ev.STORE, 0x202, 2),      # nrecords, no inval after
        (6, 0.0, ev.CACHE_HIT, 1, 0),
    ])
    return checker.finish()


def _tc111_fill_before_attach():
    # The frame was filled before the checker attached (preload, a
    # warm-up outside the traced window): the first hit has no fill on
    # record, but it shows a frame is live, so the install after it
    # must be followed by an invalidation before the next hit.
    checker = _lockset_checker()
    checker.feed([
        (1, 0.0, ev.CACHE_HIT, 1, 0),      # no fill seen: tracked from here
        (2, 0.0, ev.STORE, 0x200, 8),      # header install on page 1
        (3, 0.0, ev.CACHE_HIT, 1, 0),      # stale bytes served
    ])
    return checker.finish()


def _cache_good():
    # The full coherent lifecycle: fill, pre-commit cell traffic into
    # the cached page (legal — record bytes land in free space the
    # durable header does not yet reach), hit, a committed install
    # followed by its invalidation in the same step, refill, fresh
    # hit, and free-list head traffic (bytes 6-8, carved out of the
    # header window).  Must produce zero findings.
    checker = _lockset_checker()
    checker.feed([
        (1, 0.0, ev.CACHE_FILL, 1, 0),
        (2, 0.0, ev.STORE, 0x3c0, 16),     # cell store: not an install
        (3, 0.0, ev.CACHE_HIT, 1, 0),
        (4, 0.0, ev.STORE, 0x200, 8),      # header install...
        (5, 0.0, ev.CACHE_INVAL, 1, ev.INVAL_INSTALL),  # ...invalidated
        (6, 0.0, ev.CACHE_FILL, 1, 0),
        (7, 0.0, ev.CACHE_HIT, 1, 0),
        (8, 0.0, ev.STORE, 0x206, 2),      # free-list head: carved out
        (9, 0.0, ev.CACHE_HIT, 1, 0),
        # A frame filled before the checker attached (page 2, first
        # seen at a hit) living through the same coherent lifecycle.
        (10, 0.0, ev.CACHE_HIT, 2, 0),
        (11, 0.0, ev.STORE, 0x400, 8),
        (12, 0.0, ev.CACHE_INVAL, 2, ev.INVAL_INSTALL),
        (13, 0.0, ev.CACHE_FILL, 2, 0),
        (14, 0.0, ev.CACHE_HIT, 2, 0),
    ])
    return checker.finish()


def _occ_good():
    # A clean optimistic commit: lock-free read phase, an *older*
    # concurrent publish (ts ≤ pin is not stale), install locks only
    # after validation, all released before commit.  Zero findings.
    checker = _ordering_checker()
    checker.feed([
        (1, 0.0, ev.TXN_BEGIN, 1, 0),
        (2, 0.0, ev.OCC_BEGIN, 1, 100),
        (3, 0.0, ev.OCC_READ, 1, _RES_A),
        (4, 0.0, ev.VERSION_PUBLISH, _RES_A, 90),
        (5, 0.0, ev.OCC_VALIDATE, 1, 100),
        (6, 0.0, ev.LOCK_ACQUIRE, 1, _RES_A),
        (7, 0.0, ev.LOCK_RELEASE, 1, _RES_A),
        (8, 0.0, ev.TXN_COMMIT, 1, 0),
    ])
    return checker.finish()


DYNAMIC_FIXTURES = {
    "TC101": _tc101,
    "TC101-group": _tc101_group,
    "TC102": _tc102,
    "TC102-group": _tc102_group,
    "TC103": _tc103,
    "TC103-swap": _tc103_swap,
    "TC104": _tc104,
    "TC105": _tc105,
    "TC106": _tc106,
    "TC107": _tc107,
    "TC107-read": _tc107_read,
    "TC108": _tc108,
    "TC108-decision": _tc108_decision,
    "TC108-abort": _tc108_abort,
    "TC109": _tc109,
    "TC109-stale": _tc109_stale,
    "TC110": _tc110,
    "TC111": _tc111,
    "TC111-reinstall": _tc111_reinstall,
    "TC111-fill-before-attach": _tc111_fill_before_attach,
}

#: Known-good traces that must produce ZERO findings — guards against
#: a checker growing a false positive (e.g. rejecting group marks).
GOOD_FIXTURES = {
    "group-mark": _group_good,
    "occ-commit": _occ_good,
    "lockset-serialized": _lockset_good,
    "cache-coherent": _cache_good,
}

#: Exploration budget for the seeded-bug mutants.  Both mutants are
#: caught within single-digit schedule counts; the budget is head-room,
#: not a tuning knob.
EXPLORE_BUDGET = 64


def run_mutants(budget=EXPLORE_BUDGET):
    """Run the schedule-space explorer over every seeded-bug mutant
    (:mod:`repro.analysis.mutants`); returns failure strings.

    Unlike the exact-rule fixtures above, the expectation here is
    *containment*: a deliberately broken engine may trip collateral
    invariants beyond the seeded one (a race also breaks the
    serializability oracle, say), so the seeded rule must be AMONG the
    findings, and there must be findings at all."""
    failures = []
    for name, (mutant, rule, builder) in sorted(MUTANTS.items()):
        spec = builder()
        with mutant():
            result = explore(
                workloads=spec["workloads"], preload=spec["preload"],
                config=spec.get("config"), budget=budget,
            )
        fired = {line.split(": ")[1] for line in result["findings"]}
        if rule not in fired:
            failures.append(
                "%s: the explorer missed the seeded bug within budget %d "
                "(expected %s among findings, got %s)"
                % (name, budget, rule, sorted(fired) or "nothing")
            )
    return failures


def run():
    """Run every fixture; returns a list of failure strings (empty =
    every rule still fires and no known-good trace is flagged)."""
    failures = []
    for rule, (module, source) in sorted(STATIC_FIXTURES.items()):
        findings = lint_source(source, file=module, module=module)
        fired = {f.rule for f in findings}
        if fired != {rule}:
            failures.append(
                "%s: expected exactly {%s} from its fixture, got %s"
                % (rule, rule, sorted(fired) or "nothing")
            )
    for name, fixture in sorted(DYNAMIC_FIXTURES.items()):
        rule = name.split("-")[0]
        findings = fixture()
        fired = {f.rule for f in findings}
        if fired != {rule}:
            failures.append(
                "%s: expected exactly {%s} from its fixture, got %s"
                % (name, rule, sorted(fired) or "nothing")
            )
    for name, fixture in sorted(GOOD_FIXTURES.items()):
        findings = fixture()
        if findings:
            failures.append(
                "%s: known-good trace produced findings: %s"
                % (name, sorted({f.rule for f in findings}))
            )
    failures.extend(run_mutants())
    return failures
