"""A leaf split claims what it writes above the leaf before storing.

``BTree._make_room`` X-locks the full leaf's parent page (or the root
slot, when the leaf is the root) before the split's first store.  Under
strict 2PL a conflict there finds the operation unmutated, so the
scheduler parks the transaction until the holder finishes instead of
aborting it and throwing the flushed sibling away (DESIGN.md §10).
"""

import pytest

from repro.bench.multiclient import run_multi_client
from repro.core import open_engine
from repro.core.config import FASTPLUS_LEAF_CAPACITY
from repro.core.locking import page_resource, root_resource
from repro.core.scheduler import WAITING, Scheduler
from repro.testing.crashsim import check_committed_prefix

from tests.core.conftest import small_config

VALUE = b"v" * 16


def _engine(keys):
    """A FAST⁺ engine preloaded with ``keys``.  Its pages are large
    enough that a leaf fills at ``FASTPLUS_LEAF_CAPACITY`` records, so
    "full" is exact."""
    engine = open_engine(small_config(scheme="fastplus", page_size=4096))
    for key in keys:
        engine.insert(key, VALUE)
    return engine


def _leaf_of(engine, key):
    """(page_no, nrecords) of the leaf ``key`` routes to, and the path
    length of the descent."""
    view = engine.read_view()
    path = engine.tree()._descend(view, key)
    return path[-1].page_no, path[-1].page.nrecords, len(path)


_SCHED = ("sched.wait", "sched.wake", "sched.abort", "sched.abort.mutated")


def _run(engine, scheduler, on_park=lambda: None):
    """Run ``scheduler``; returns its report, what each client that
    parked waited for (``on_park`` runs right after each park), and
    the scheduler counters' deltas over the run."""
    waits = []

    def on_step(client):
        if client.state is WAITING:
            waits.append(engine.lock_manager.waiting(client.session.sid))
            on_park()

    scheduler.on_step = on_step
    before = engine.registry.counters()
    report = scheduler.run()
    after = engine.registry.counters()
    deltas = {n: after.get(n, 0) - before.get(n, 0) for n in _SCHED}
    return report, waits, deltas


#: One park, one wake, and nothing thrown away.
_PARKED_ONCE = {
    "sched.wait": 1, "sched.wake": 1, "sched.abort": 0,
    "sched.abort.mutated": 0,
}


def test_split_waits_for_a_holder_of_the_parent():
    """The holder's open range scan has stepped into the root internal
    page (a cursor keeps S on every page it passes); the other client's
    insert meets a full leaf under that root.  It parks on the parent
    — one wait, one wake, no abort — and commits once the holder is
    gone.  (A point operation holds no internal page it only routes
    through, so a scan is what holds a parent here.)"""
    # 29 ascending keys split the root leaf once: k000-k013 move to a
    # left sibling, k014-k028 stay.  Fill the left leaf to capacity.
    keys = [b"k%03d" % i for i in range(29)]
    keys += [b"j%03d" % i for i in range(FASTPLUS_LEAF_CAPACITY - 14)]
    engine = _engine(keys)
    full_leaf, nrecords, depth = _leaf_of(engine, b"j999")
    assert depth == 2 and nrecords == FASTPLUS_LEAF_CAPACITY
    root = engine.store.root(0)

    holder = engine.session("holder")
    held = holder.transaction()
    cursor = held.scan(lo=b"k020")
    assert next(cursor)[0] == b"k020"
    assert engine.lock_manager.holds(holder.sid, page_resource(root)) == "S"
    assert engine.lock_manager.holds(holder.sid, page_resource(full_leaf)) is None
    scheduler = Scheduler(engine)
    scheduler.add_client([("insert", b"j999", b"split")], name="splitter")
    # A think-only client: its empty commit wakes the splitter once the
    # holder is gone.
    scheduler.add_client([("txn", [("think", 10_000.0, None)] * 2)])
    report, waits, deltas = _run(engine, scheduler, on_park=held.commit)
    holder.close()

    assert waits == [(page_resource(root), "X")]
    assert deltas == _PARKED_ONCE
    assert ("splitter", 0) in report["commit_order"]
    assert _leaf_of(engine, b"j999")[1] < FASTPLUS_LEAF_CAPACITY
    check_committed_prefix(
        engine, scheduler, preloaded={key: VALUE for key in keys}
    )


def test_root_split_waits_for_a_holder_of_the_root_slot():
    """A single-leaf root: the holder's open scan cursor holds only the
    root slot's intent lock, and the insert that must grow the tree
    parks on the root slot instead of aborting after building the new
    sibling and root."""
    keys = [b"k%03d" % i for i in range(FASTPLUS_LEAF_CAPACITY)]
    engine = _engine(keys)
    root, nrecords, depth = _leaf_of(engine, b"k999")
    assert depth == 1 and nrecords == FASTPLUS_LEAF_CAPACITY

    holder = engine.session("holder")
    held = holder.transaction()
    held.scan()  # an unread cursor: IS on the root slot, no page lock
    scheduler = Scheduler(engine)
    scheduler.add_client([("insert", b"k999", b"split")], name="splitter")
    # A think-only client: its empty commit wakes the splitter once the
    # holder is gone.
    scheduler.add_client([("txn", [("think", 10_000.0, None)] * 2)])
    report, waits, deltas = _run(engine, scheduler, on_park=held.commit)
    holder.close()

    assert waits == [(root_resource(0), "X")]
    assert deltas == _PARKED_ONCE
    assert ("splitter", 0) in report["commit_order"]
    assert engine.tree().height(engine.read_view()) == 2
    check_committed_prefix(
        engine, scheduler, preloaded={key: VALUE for key in keys}
    )


@pytest.mark.parametrize("items", [25, 50])
@pytest.mark.parametrize("seed", [7, 8, 9])
def test_fastplus_8_client_cells_never_abort_a_mutated_op(items, seed):
    """FAST⁺'s in-place leaf commits never take the ``_replace``
    fallback, so with the parent claimed ahead every conflict a split
    meets is waited out: no 8-client cell aborts a mutated operation."""
    result = run_multi_client(
        "fastplus", clients=8, items=items, seed=seed,
        extra_counters=("sched.abort.mutated",),
    )
    assert result["counters"]["sched.abort.mutated"] == 0
    assert result["commits"] == 8 * items
