"""Unit and property tests for the B+-tree."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.btree import DuplicateKeyError
from repro.core.naive import NaiveContext
from tests.btree.helpers import naive_tree


def make_tree(npages=256, page_size=512, leaf_capacity=None):
    engine, ctx, tree = naive_tree(npages, page_size, leaf_capacity)
    return engine.pm, engine.store, ctx, tree


def key_of(i):
    return b"%08d" % i


# ----------------------------------------------------------------------
# Basics
# ----------------------------------------------------------------------


def test_empty_tree_search_returns_none():
    _, _, ctx, tree = make_tree()
    assert tree.search(ctx, b"missing") is None
    assert tree.count(ctx) == 0


def test_insert_and_search_single():
    _, _, ctx, tree = make_tree()
    tree.insert(ctx, b"key", b"value")
    assert tree.search(ctx, b"key") == b"value"


def test_search_miss_between_keys():
    _, _, ctx, tree = make_tree()
    tree.insert(ctx, b"a", b"1")
    tree.insert(ctx, b"c", b"2")
    assert tree.search(ctx, b"b") is None


def test_duplicate_insert_raises():
    _, _, ctx, tree = make_tree()
    tree.insert(ctx, b"k", b"v1")
    with pytest.raises(DuplicateKeyError):
        tree.insert(ctx, b"k", b"v2")
    assert tree.search(ctx, b"k") == b"v1"


def test_insert_replace_overwrites():
    _, _, ctx, tree = make_tree()
    tree.insert(ctx, b"k", b"v1")
    tree.insert(ctx, b"k", b"v2", replace=True)
    assert tree.search(ctx, b"k") == b"v2"
    assert tree.count(ctx) == 1


def test_update_existing():
    _, _, ctx, tree = make_tree()
    tree.insert(ctx, b"k", b"old")
    assert tree.update(ctx, b"k", b"new")
    assert tree.search(ctx, b"k") == b"new"


def test_update_missing_returns_false():
    _, _, ctx, tree = make_tree()
    assert not tree.update(ctx, b"nope", b"v")


def test_delete_existing_and_missing():
    _, _, ctx, tree = make_tree()
    tree.insert(ctx, b"k", b"v")
    assert tree.delete(ctx, b"k")
    assert tree.search(ctx, b"k") is None
    assert not tree.delete(ctx, b"k")


def test_variable_length_records():
    _, _, ctx, tree = make_tree(page_size=1024)
    for i in range(30):
        tree.insert(ctx, key_of(i), bytes([i]) * (i * 7 % 90 + 1))
    for i in range(30):
        assert tree.search(ctx, key_of(i)) == bytes([i]) * (i * 7 % 90 + 1)


# ----------------------------------------------------------------------
# Splits and structure
# ----------------------------------------------------------------------


def test_sequential_inserts_split_and_stay_sorted():
    _, _, ctx, tree = make_tree()
    n = 300
    for i in range(n):
        tree.insert(ctx, key_of(i), b"v%d" % i)
    assert tree.verify(ctx) == n
    assert tree.height(ctx) > 1
    assert [k for k, _ in tree.scan(ctx)] == [key_of(i) for i in range(n)]


def test_reverse_order_inserts():
    _, _, ctx, tree = make_tree()
    n = 300
    for i in reversed(range(n)):
        tree.insert(ctx, key_of(i), b"x")
    assert tree.verify(ctx) == n


def test_random_order_inserts():
    import random

    rng = random.Random(7)
    keys = [key_of(i) for i in range(400)]
    rng.shuffle(keys)
    _, _, ctx, tree = make_tree()
    for k in keys:
        tree.insert(ctx, k, b"v")
    assert tree.verify(ctx) == 400
    for k in keys:
        assert tree.search(ctx, k) == b"v"


def test_leaf_capacity_limits_leaf_size():
    """With the FAST⁺ cap of 28 records, leaves split by count even
    with plenty of byte space."""
    _, store, ctx, tree = make_tree(page_size=4096, leaf_capacity=28)
    for i in range(29):
        tree.insert(ctx, key_of(i), b"v")
    assert tree.height(ctx) == 2
    for page_no in tree.reachable_pages(ctx):
        page = store.page(page_no)
        if page.page_type == 1:  # leaf
            assert page.nrecords <= 28
    assert tree.verify(ctx) == 29


def test_three_level_tree():
    _, _, ctx, tree = make_tree(npages=1024, page_size=256)
    n = 1200
    for i in range(n):
        tree.insert(ctx, key_of(i), b"v")
    assert tree.height(ctx) >= 3
    assert tree.verify(ctx) == n


def test_reachable_pages_covers_tree():
    pm, store, ctx, tree = make_tree()
    for i in range(200):
        tree.insert(ctx, key_of(i), b"v" * 10)
    pages = tree.reachable_pages(ctx)
    assert len(pages) > 1
    # Garbage collection with exactly this set keeps the tree intact.
    store.garbage_collect(pages)
    assert tree.verify(NaiveContext(ctx.engine)) == 200


def test_split_preserves_values_not_just_keys():
    _, _, ctx, tree = make_tree()
    values = {key_of(i): bytes([i % 251]) * 20 for i in range(150)}
    for k, v in values.items():
        tree.insert(ctx, k, v)
    for k, v in values.items():
        assert tree.search(ctx, k) == v


# ----------------------------------------------------------------------
# Scans
# ----------------------------------------------------------------------


def test_scan_full_range():
    _, _, ctx, tree = make_tree()
    for i in range(100):
        tree.insert(ctx, key_of(i), b"v")
    assert len(list(tree.scan(ctx))) == 100


def test_scan_bounded_range():
    _, _, ctx, tree = make_tree()
    for i in range(100):
        tree.insert(ctx, key_of(i), b"v")
    got = [k for k, _ in tree.scan(ctx, lo=key_of(10), hi=key_of(19))]
    assert got == [key_of(i) for i in range(10, 20)]


def test_scan_open_ended_bounds():
    _, _, ctx, tree = make_tree()
    for i in range(50):
        tree.insert(ctx, key_of(i), b"v")
    assert len(list(tree.scan(ctx, lo=key_of(40)))) == 10
    assert len(list(tree.scan(ctx, hi=key_of(9)))) == 10


def test_scan_empty_range():
    _, _, ctx, tree = make_tree()
    for i in range(20):
        tree.insert(ctx, key_of(i), b"v")
    assert list(tree.scan(ctx, lo=b"zzz")) == []


# ----------------------------------------------------------------------
# Deletes and fragmentation
# ----------------------------------------------------------------------


def test_delete_half_then_verify():
    _, _, ctx, tree = make_tree()
    for i in range(200):
        tree.insert(ctx, key_of(i), b"v" * 8)
    for i in range(0, 200, 2):
        assert tree.delete(ctx, key_of(i))
    assert tree.verify(ctx) == 100
    for i in range(200):
        expected = None if i % 2 == 0 else b"v" * 8
        assert tree.search(ctx, key_of(i)) == expected


def test_delete_everything():
    _, _, ctx, tree = make_tree()
    for i in range(150):
        tree.insert(ctx, key_of(i), b"v")
    for i in range(150):
        assert tree.delete(ctx, key_of(i))
    assert tree.count(ctx) == 0


def test_reinsert_after_delete_uses_freed_space():
    _, _, ctx, tree = make_tree(npages=64)
    for round_no in range(6):
        for i in range(80):
            tree.insert(ctx, key_of(i), bytes([round_no]) * 12)
        for i in range(80):
            tree.delete(ctx, key_of(i))
    assert tree.count(ctx) == 0


def test_update_grows_value_through_defrag_or_split():
    _, _, ctx, tree = make_tree(page_size=512)
    for i in range(40):
        tree.insert(ctx, key_of(i), b"s" * 8)
    for i in range(40):
        tree.insert(ctx, key_of(i), b"L" * 80, replace=True)
    assert tree.verify(ctx) == 40
    for i in range(40):
        assert tree.search(ctx, key_of(i)) == b"L" * 80


# ----------------------------------------------------------------------
# Property tests
# ----------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["insert", "delete", "replace"]),
            st.integers(0, 60),
            st.binary(min_size=0, max_size=30),
        ),
        max_size=120,
    )
)
def test_btree_matches_dict_model(ops):
    _, _, ctx, tree = make_tree(npages=512, page_size=256)
    model = {}
    for op, key_no, value in ops:
        key = key_of(key_no)
        if op == "insert":
            tree.insert(ctx, key, value, replace=True)
            model[key] = value
        elif op == "replace" and key in model:
            tree.insert(ctx, key, value, replace=True)
            model[key] = value
        elif op == "delete":
            assert tree.delete(ctx, key) == (key in model)
            model.pop(key, None)
    assert tree.verify(ctx) == len(model)
    for key, value in model.items():
        assert tree.search(ctx, key) == value
    assert dict(tree.scan(ctx)) == model


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 1 << 30))
def test_btree_random_bulk_with_verify(seed):
    import random

    rng = random.Random(seed)
    _, _, ctx, tree = make_tree(npages=1024, page_size=256)
    model = {}
    for _ in range(250):
        key = key_of(rng.randrange(500))
        value = bytes(rng.randrange(256) for _ in range(rng.randrange(20)))
        tree.insert(ctx, key, value, replace=True)
        model[key] = value
    assert tree.verify(ctx) == len(model)
    assert dict(tree.scan(ctx)) == model


@pytest.mark.parametrize("walk", ["scan", "verify"])
def test_walks_load_each_type_byte_once(monkeypatch, walk):
    """``scan()`` and ``verify()`` type a page with ``_typed``'s one
    load and branch on its answer, not on a second ``page_type``."""
    from repro.bench.harness import build_config
    from repro.core import open_engine
    from repro.storage import SlottedPage

    engine = open_engine(build_config("fast", ops=2000), scheme="fast")
    for i in range(2000):
        engine.insert(key_of(i * 7919 % 2000), b"v" * 48)
    pages = len(engine.reachable_pages())
    loads = []
    page_type = SlottedPage.page_type
    monkeypatch.setattr(SlottedPage, "page_type", property(
        lambda page: loads.append(page.base) or page_type.fget(page)
    ))
    if walk == "scan":
        assert len(list(engine.scan())) == 2000
    else:
        assert engine.verify() == 2000
    assert pages > 1
    assert len(loads) == len(set(loads)) == pages
