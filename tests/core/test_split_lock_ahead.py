"""Every B-tree operation claims its whole footprint before storing.

A leaf that cannot take its cell makes ``BTree._make_room`` claim what
the rest will write above it — the ancestors up to the first safe one,
or the root slot — and a replace or delete with an overflow chain, a
spilled insert and a leaf-emptying delete claim theirs before the
first store.  Under strict 2PL a conflict therefore always finds the
operation unmutated, so the scheduler parks the transaction until the
holder finishes (one wait, one wake, no abort), and a claim after a
store raises instead (DESIGN.md §10).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.multiclient import run_multi_client
from repro.core import open_engine
from repro.core.config import FASTPLUS_LEAF_CAPACITY
from repro.core.locking import page_resource, root_resource
from repro.core.scheduler import WAITING, Scheduler
from repro.testing.crashsim import check_committed_prefix
from repro.testing.invariants import PageInvariantChecker

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


_SCHED = ("sched.wait", "sched.wake", "sched.abort")


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
_PARKED_ONCE = {"sched.wait": 1, "sched.wake": 1, "sched.abort": 0}


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
    """Every operation claims before it stores, so a locked run that
    finishes never aborted a mutated one (a claim after a store would
    have raised ``ClaimAfterStore`` out of the run): every item
    commits."""
    result = run_multi_client("fastplus", clients=8, items=items, seed=seed)
    assert result["commits"] == 8 * items


# ----------------------------------------------------------------------
# The paths that used to store before their last claim, on 512-byte pages
# ----------------------------------------------------------------------


def _key(i):
    return b"key-%036d" % i


SMALL_VALUE = bytes(16)


def _small_engine(n):
    """A FAST engine on 512-byte pages preloaded with ``n`` ascending
    keys: about seven records a leaf and ten cells an internal page."""
    engine = open_engine(small_config(scheme="fast", page_size=512))
    for i in range(n):
        engine.insert(_key(i), SMALL_VALUE)
    return engine


def _path(engine, key):
    return [entry.page_no
            for entry in engine.tree()._descend(engine.read_view(), key)]


def _hold_scan(engine, lo):
    """An open range scan stepped onto ``lo``: S on every page from the
    root down to ``lo``'s leaf, held until its transaction commits."""
    holder = engine.session("holder")
    held = holder.transaction()
    cursor = held.scan(lo=lo)
    assert next(cursor)[0] == lo
    return holder, held


def _parks_once(engine, items, resource, preloaded, lo):
    """Run ``items`` as one client against a scan holder stepped onto
    ``lo``: it parks on ``resource`` — one wait, one wake, no abort —
    and commits once the holder is gone."""
    holder, held = _hold_scan(engine, lo)
    scheduler = Scheduler(engine)
    scheduler.add_client(items, name="writer")
    scheduler.add_client([("txn", [("think", 10_000.0, None)] * 2)])
    report, waits, deltas = _run(engine, scheduler, on_park=held.commit)
    holder.close()
    assert waits == [(resource, "X")]
    assert deltas == _PARKED_ONCE
    assert ("writer", 0) in report["commit_order"]
    check_committed_prefix(engine, scheduler, preloaded=preloaded)


def test_cascading_split_waits_for_a_holder_of_the_grandparent():
    """With 43 keys the rightmost leaf and its parent are both full, so
    the next append splits both and links the parent's new sibling
    into the root.  The root is claimed with the leaf and the parent,
    before the first store, and a scan holding S on it parks the
    insert instead of aborting it after two splits."""
    engine = _small_engine(43)
    root, parent, leaf = _path(engine, _key(43))
    assert parent not in _path(engine, _key(0))
    view = engine.read_view()
    root_cells = view.page(root).nrecords
    _parks_once(engine, [("insert", _key(43), SMALL_VALUE)],
                page_resource(root), {_key(i): SMALL_VALUE for i in range(43)},
                lo=_key(0))
    assert engine.read_view().page(root).nrecords == root_cells + 1


def test_replace_that_outgrows_its_leaf_waits_for_a_holder_of_the_parent():
    """A 200-byte value no longer fits the full rightmost leaf: the
    replace claims the parent before it makes room, then updates the
    record in place on the rebuilt leaf — no delete, no re-descent."""
    engine = _small_engine(20)
    root, leaf = _path(engine, _key(19))
    assert leaf != _path(engine, _key(0))[-1]
    big = b"g" * 200
    preloaded = {_key(i): SMALL_VALUE for i in range(20)}
    _parks_once(engine, [("insert", _key(19), big)], page_resource(root),
                preloaded, lo=_key(0))
    assert engine.search(_key(19)) == big


def test_delete_that_empties_a_leaf_waits_for_a_holder_of_the_parent():
    """The second leaf is trimmed to one record; deleting it unlinks the
    leaf from its parent, so the parent is claimed before the delete
    stores, and the scan holding S on it parks the delete."""
    engine = _small_engine(40)
    keys = [_key(i) for i in range(40)]
    leaves = {}
    for key in keys:
        leaves.setdefault(_path(engine, key)[-1], []).append(key)
    victims = list(leaves.values())[1]
    parent = _path(engine, victims[0])[-2]
    assert parent in _path(engine, _key(0))
    assert engine.read_view().page(parent).nrecords > 2
    for key in victims[1:]:
        engine.delete(key)
    preloaded = {key: SMALL_VALUE for key in keys if key not in victims[1:]}
    _parks_once(engine, [("delete", victims[0], None)], page_resource(parent),
                preloaded, lo=_key(0))
    assert engine.search(victims[0]) is None


def test_spilled_insert_waits_for_a_holder_of_its_leaf():
    """A 1 000-byte value spills to an overflow chain.  The insert
    claims its leaf before it allocates the chain, so a scan holding S
    on that leaf parks it with nothing allocated."""
    engine = _small_engine(20)
    target = _key(30)
    leaf = _path(engine, target)[-1]
    _parks_once(engine, [("insert", target, b"s" * 1000)],
                page_resource(leaf), {_key(i): SMALL_VALUE for i in range(20)},
                lo=_key(19))
    assert engine.search(target) == b"s" * 1000


#: Two 200-byte records still share a 512-byte leaf; 700 bytes spill.
_VALUES = st.sampled_from([16, 100, 200, 700])


@st.composite
def _client_items(draw):
    """1-3 transactions of 1-3 operations over 24 keys: inserts and
    growing replaces (values up to past the 384-byte overflow
    threshold) and deletes."""
    items = []
    for _ in range(draw(st.integers(1, 3))):
        ops = []
        for _ in range(draw(st.integers(1, 3))):
            key = _key(draw(st.integers(0, 23)))
            if draw(st.integers(0, 3)) == 0:
                ops.append(("delete", key, None))
            else:
                ops.append(("insert", key, b"v" * draw(_VALUES)))
        items.append(("txn", ops))
    return items


@settings(max_examples=40, deadline=None)
@given(
    scheme=st.sampled_from(["fast", "fastplus", "nvwal"]),
    clients=st.lists(_client_items(), min_size=3, max_size=3),
    lo=st.integers(0, 23),
    release=st.integers(1, 12),
)
def test_locked_clients_claim_their_whole_footprint(scheme, clients, lo,
                                                    release):
    """Three locked clients and one open scan on 512-byte pages: every
    split, copy-on-write, replace, unlink and spill claims before it
    stores (a late claim raises ``ClaimAfterStore`` out of the run),
    the page checker finds no overlap after any step (FAST / FAST⁺),
    and the result is the committed prefix."""
    engine = open_engine(small_config(scheme=scheme, page_size=512))
    preloaded = {_key(i): b"p" * 40 for i in range(0, 24, 2)}
    for key, value in preloaded.items():
        engine.insert(key, value)
    holder, held = _hold_scan(engine, _key(lo - lo % 2))
    checker = None if scheme == "nvwal" else PageInvariantChecker(engine)
    steps = []

    def on_step(client):
        steps.append(client)
        if checker is not None:
            checker(client)
        if not held._done and (client.state is WAITING
                               or len(steps) >= release):
            held.commit()

    scheduler = Scheduler(engine, on_step=on_step)
    for items in clients:
        scheduler.add_client(items)
    report = scheduler.run()
    holder.close()
    assert report["commits"] == sum(len(items) for items in clients)
    check_committed_prefix(engine, scheduler, preloaded=preloaded)
