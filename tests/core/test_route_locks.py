"""A point descent checks internal pages instead of locking them.

``BTree._descend`` reads through ``ctx.route``.  Under 2PL
(``TwoPhaseLocking.route``) an internal page gets an instant-duration S
check — an X holder, an uncommitted structure change there, still parks
the descent — and nothing is granted; only the leaf keeps an S latch to
commit.  Range scans keep S on every page they pass.  The scheme
context keeps views only of pages its transaction holds a lock on, so
a page it only routed through is read fresh by the next descent
(DESIGN.md §10).
"""

import pytest

from repro.core import open_engine
from repro.core.config import FASTPLUS_LEAF_CAPACITY
from repro.core.locking import LOCK_S, decode_lock, page_resource, root_resource
from repro.core.scheduler import WAITING, Scheduler
from repro.obs import trace as ev
from repro.storage.slotted_page import PAGE_INTERNAL, SlottedPage
from repro.testing.crashsim import check_committed_prefix

from tests.core.conftest import small_config
from tests.core.test_split_lock_ahead import VALUE, _engine, _leaf_of

_SCHED = ("sched.wait", "sched.wake", "sched.abort", "sched.abort.deadlock")


def _internal_pages(engine):
    view = engine.read_view()
    return {
        page_no for page_no in engine.tree().reachable_pages(view)
        if view.page(page_no).page_type == PAGE_INTERNAL
    }


def _locked_pages(engine, session):
    held = engine.lock_manager.locks_of(session.sid)
    return {ident for kind, ident in held if kind == "page"}


def _run(engine, scheduler, on_park=lambda: None, pick=None):
    """Run ``scheduler``; returns its report, each park's wanted
    (resource, mode) and the scheduler counters' deltas."""
    waits = []

    def on_step(client):
        if client.state is WAITING:
            waits.append(engine.lock_manager.waiting(client.session.sid))
            on_park()

    scheduler.on_step = on_step
    scheduler.pick_strategy = pick
    before = engine.registry.counters()
    report = scheduler.run()
    after = engine.registry.counters()
    return report, waits, {n: after.get(n, 0) - before.get(n, 0) for n in _SCHED}


def _split_leaf_engine():
    """FAST⁺ over 4 KiB pages: an internal root above two leaves, the
    left one (keys ``j…`` and k000–k013) one record short of full."""
    keys = [b"k%03d" % i for i in range(29)]
    keys += [b"j%03d" % i for i in range(FASTPLUS_LEAF_CAPACITY - 15)]
    engine = _engine(keys)
    leaf, nrecords, depth = _leaf_of(engine, b"j999")
    assert depth == 2 and nrecords == FASTPLUS_LEAF_CAPACITY - 1
    return engine, keys, leaf


# ----------------------------------------------------------------------
# (a) what a transaction holds after point operations and after a scan
# ----------------------------------------------------------------------


@pytest.mark.parametrize("scheme", ["fast", "fastplus", "nvwal"])
def test_point_operations_hold_leaves_and_the_root_slot_only(scheme):
    keys = [b"k%04d" % i for i in range(0, 800, 2)]
    engine = open_engine(small_config(scheme=scheme))
    for key in keys:
        engine.insert(key, VALUE)
    assert engine.tree().height(engine.read_view()) == 3
    internal = _internal_pages(engine)
    session = engine.session("s")
    txn = session.transaction()
    assert txn.search(keys[10]) == VALUE
    txn.insert(b"k0101", VALUE)
    assert txn.delete(keys[300])
    assert not txn.inner_ctx.new_pages                 # no split ran
    assert engine.lock_manager.locks_of(session.sid)[root_resource(0)] == "IX"
    leaves = {_leaf_of(engine, key)[0] for key in (keys[10], b"k0101", keys[300])}
    assert _locked_pages(engine, session) == leaves
    assert not leaves & internal
    txn.commit()

    # A range scan's cursor outlives its step: it keeps S on every
    # internal page above the two leaves it has walked.
    path = engine.tree()._descend(engine.read_view(), keys[0])
    txn = session.transaction()
    cursor = txn.scan()
    key, _ = next(cursor)
    while _leaf_of(engine, key)[0] == path[-1].page_no:
        key, _ = next(cursor)
    held = engine.lock_manager.locks_of(session.sid)
    assert len(_locked_pages(engine, session) - internal) == 2
    for entry in path[:-1]:
        assert held[page_resource(entry.page_no)] == LOCK_S
    txn.commit()
    session.close()


# ----------------------------------------------------------------------
# (b) an uncommitted split's X on the internal page still parks a descent
# ----------------------------------------------------------------------


def test_descent_parks_on_an_internal_page_a_split_holds(monkeypatch):
    """The splitter fills the left leaf and splits it (X on the root
    internal page, whose pending header gains a separator) and keeps
    its transaction open; the reader's search routes through the root.
    Its check meets the X: one wait, one wake, no abort, and no read of
    the root while the splitter's pending header exists."""
    engine, keys, _ = _split_leaf_engine()
    root = engine.store.root(0)
    root_base = engine.store.page_base(root)
    stepping = []
    pending_reads = []
    original = SlottedPage.record

    def record(self, slot):
        if (stepping and stepping[-1] == "reader" and self.base == root_base
                and self.has_pending):
            pending_reads.append(slot)
        return original(self, slot)

    monkeypatch.setattr(SlottedPage, "record", record)

    def pick(scheduler, ready):
        stepping.append(ready[0].name)
        return ready[0]

    scheduler = Scheduler(engine)
    scheduler.add_client([("txn", [
        ("insert", b"j990", b"fill"),
        ("insert", b"j991", b"split"),
        ("think", 30_000.0, None),
    ])], name="splitter")
    # The reader's think ends inside the splitter's split step, so its
    # search is the next step after the split and before the commit.
    scheduler.add_client([("txn", [
        ("think", 5_000.0, None),
        ("search", b"j990", None),
    ])], name="reader")
    seq = engine.trace.seq
    report, waits, deltas = _run(engine, scheduler, pick=pick)

    assert waits == [(page_resource(root), LOCK_S)]
    assert deltas == {"sched.wait": 1, "sched.wake": 1, "sched.abort": 0,
                      "sched.abort.deadlock": 0}
    assert report["commit_order"] == [("splitter", 0), ("reader", 0)]
    assert pending_reads == []
    reader_sid = scheduler.clients[1].session.sid
    checks = [event for event in engine.trace.events(ev.LOCK_CHECK, since_seq=seq)
              if event[3] == reader_sid]
    assert checks                        # passed the root under a check
    acquired = {decode_lock(event[4])[0]
                for event in engine.trace.events(ev.LOCK_ACQUIRE, since_seq=seq)
                if event[3] == reader_sid}
    assert page_resource(root) not in acquired
    check_committed_prefix(
        engine, scheduler, preloaded={key: VALUE for key in keys}
    )


# ----------------------------------------------------------------------
# (c) the deadlock the held route lock used to close
# ----------------------------------------------------------------------


def test_split_under_a_parked_router_commits_without_deadlock():
    """P fills leaf L1 (X on it) and, one op later, splits it — which
    X-locks the parent.  Q routed through that parent and parked on
    L1 in between.  Held to commit, Q's route lock would close P → Q →
    P; checked and released, P's claim is granted and Q waits it out."""
    engine, keys, leaf = _split_leaf_engine()
    scheduler = Scheduler(engine)
    scheduler.add_client([("txn", [
        ("insert", b"j990", b"fill"),
        ("think", 20_000.0, None),
        ("insert", b"j991", b"split"),
    ])], name="P")
    scheduler.add_client([("txn", [
        ("think", 5_000.0, None),
        ("insert", b"j992", b"q"),
    ])], name="Q")
    report, waits, deltas = _run(engine, scheduler)

    assert waits == [(page_resource(leaf), LOCK_S)]
    assert deltas["sched.abort.deadlock"] == 0 and deltas["sched.abort"] == 0
    assert report["commit_order"] == [("P", 0), ("Q", 0)]
    check_committed_prefix(
        engine, scheduler, preloaded={key: VALUE for key in keys}
    )


# ----------------------------------------------------------------------
# (d) a page only routed through is re-read by the next descent
# ----------------------------------------------------------------------


@pytest.mark.parametrize("overrides", [
    {"dram_cache_pages": 16}, {"group_commit_size": 4},
], ids=["frame-backed", "epoch-overlay"])
def test_next_descent_routes_by_a_separator_committed_since(overrides):
    """Session 1 routes through the root in op 1; session 2 then
    restructures a leaf under it (a split, or a copy-on-write that
    moves the leaf to a new page) and commits.  A view of the root kept
    from op 1 would route by the old separators and child pointers (a
    frame's copy, or a header fetched before the epoch overlay
    existed); op 2 must route by the new ones and find both a key that
    moved and the keys session 2 added."""
    engine = open_engine(small_config(scheme="fast", **overrides))
    keys = [b"k%03d" % i for i in range(0, 200, 4)]
    for key in keys:
        engine.insert(key, VALUE)
    engine.drain_group_commit()
    for key in keys:
        engine.search(key)                             # warm any frames
    root = engine.store.root(0)
    if engine.page_cache is not None:
        assert root in engine.page_cache._frames
    assert engine.tree().height(engine.read_view()) == 2
    first_leaf = _leaf_of(engine, keys[0])[0]
    target = _leaf_of(engine, keys[-1])[0]
    assert target != first_leaf
    moved = [key for key in keys if _leaf_of(engine, key)[0] == target][0]

    s1, s2 = engine.session("s1"), engine.session("s2")
    txn1 = s1.transaction()
    assert txn1.search(keys[0]) == VALUE               # op 1: routes the root
    assert _locked_pages(engine, s1) == {first_leaf}
    before = engine.read_view().page(root).nrecords
    added = []
    with s2.transaction() as txn2:                     # split the target leaf
        while not txn2.inner_ctx.new_pages and len(added) < 64:
            added.append(keys[-1] + b"-%02d" % len(added))
            txn2.insert(added[-1], VALUE)
    assert engine.read_view().page(root).nrecords > before
    if engine.group is not None:
        assert engine.group.overlaid(root)             # not installed yet
    assert _leaf_of(engine, moved)[0] != target        # it moved left
    for key in [moved] + added:                        # op 2 on: new root
        assert txn1.search(key) == VALUE
    txn1.commit()
    s1.close()
    s2.close()
    assert engine.verify() == len(keys) + len(added)
