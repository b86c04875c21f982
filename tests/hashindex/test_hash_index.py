"""Tests for the hash index over failure-atomic slotted pages."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.btree.cells import parse_leaf
from repro.core import engine_class, open_engine
from repro.hashindex import HashIndex
from repro.pm.crash import DropAll
from repro.testing import HashRun, crash_at, crash_sweep, failing
from tests.core.conftest import small_config

ROOT_SLOT = 2


def make(scheme="fastplus", nbuckets=16, **overrides):
    engine = open_engine(small_config(scheme=scheme, **overrides))
    index = HashIndex(root_slot=ROOT_SLOT, nbuckets=nbuckets)
    with engine.transaction() as txn:
        index.create(txn.ctx)
    return engine, index


def put(engine, index, key, value, replace=False):
    with engine.transaction() as txn:
        index.insert(txn.ctx, key, value, replace=replace)


def view(engine):
    return engine.read_view()


# ----------------------------------------------------------------------
# Basics
# ----------------------------------------------------------------------


def test_empty_index():
    engine, index = make()
    assert index.search(view(engine), b"missing") is None
    assert index.count(view(engine)) == 0
    assert index.verify(view(engine)) == 0


def test_insert_and_search():
    engine, index = make()
    put(engine, index, b"key", b"value")
    assert index.search(view(engine), b"key") == b"value"


def test_duplicate_rejected_unless_replace():
    engine, index = make()
    put(engine, index, b"k", b"1")
    with pytest.raises(KeyError):
        put(engine, index, b"k", b"2")
    put(engine, index, b"k", b"2", replace=True)
    assert index.search(view(engine), b"k") == b"2"


def test_delete():
    engine, index = make()
    put(engine, index, b"k", b"v")
    with engine.transaction() as txn:
        assert index.delete(txn.ctx, b"k")
    assert index.search(view(engine), b"k") is None
    with engine.transaction() as txn:
        assert not index.delete(txn.ctx, b"k")


def test_many_keys_and_verify():
    engine, index = make(nbuckets=8)
    for i in range(300):
        put(engine, index, b"key-%04d" % i, b"val-%d" % i)
    assert index.verify(view(engine)) == 300
    for i in range(0, 300, 17):
        assert index.search(view(engine), b"key-%04d" % i) == b"val-%d" % i


def test_overflow_chains_form():
    engine, index = make(nbuckets=1, page_size=512)
    for i in range(60):
        put(engine, index, b"k%03d" % i, b"x" * 20)
    assert index.verify(view(engine)) == 60
    # A single 512-byte bucket cannot hold 60 records: chains exist.
    assert len(index.reachable_pages(view(engine))) > 3


def test_items_returns_everything():
    engine, index = make()
    expected = {b"a%d" % i: b"b%d" % i for i in range(50)}
    for key, value in expected.items():
        put(engine, index, key, value)
    assert dict(index.items(view(engine))) == expected


def test_variable_length_values():
    engine, index = make()
    for i in range(40):
        put(engine, index, b"k%d" % i, bytes([i]) * (i * 5 % 120 + 1))
    for i in range(40):
        assert index.search(view(engine), b"k%d" % i) == bytes([i]) * (i * 5 % 120 + 1)


def test_transaction_rollback_discards_index_writes():
    engine, index = make(scheme="fast")
    put(engine, index, b"keep", b"1")
    txn = engine.transaction()
    index.insert(txn.ctx, b"drop", b"2")
    txn.rollback()
    assert index.search(view(engine), b"drop") is None
    assert index.search(view(engine), b"keep") == b"1"


def test_multiple_inserts_one_transaction():
    engine, index = make(scheme="fastplus")
    with engine.transaction() as txn:
        for i in range(25):
            index.insert(txn.ctx, b"m%02d" % i, b"v")
    assert index.count(view(engine)) == 25


@pytest.mark.parametrize("scheme", ["fast", "fastplus", "nvwal"])
def test_works_under_every_scheme(scheme):
    engine, index = make(scheme=scheme)
    for i in range(120):
        put(engine, index, b"s%03d" % i, b"v%d" % i)
    assert index.verify(view(engine)) == 120


# ----------------------------------------------------------------------
# Crash recovery
# ----------------------------------------------------------------------


@pytest.mark.parametrize("scheme", ["fast", "fastplus", "nvwal"])
def test_survives_clean_crash(scheme):
    """80 committed inserts, then a power failure: all 80 recover."""
    items = [("insert", b"c%03d" % i, b"v%d" % i) for i in range(80)]
    result = crash_at(HashRun(scheme, items), None,
                      config=small_config(scheme=scheme))
    assert not result.crashed and result.ok, result.violations
    assert len(result.recovered) == 80
    assert result.recovered[b"c042"] == b"v42"


def test_crash_mid_transaction_is_atomic():
    """A crash inside an uncommitted insert loses it and keeps the
    committed one, at every point of its transaction."""
    items = [("insert", b"committed", b"1"), ("insert", b"doomed", b"2")]
    results = crash_sweep(HashRun("fast", items), policies=[DropAll()],
                          config=small_config(scheme="fast"))
    assert failing(results) == [], failing(results)[:3]
    doomed_lost = [point for point, result in results if result.inflight
                   and result.recovered == {b"committed": b"1"}]
    assert doomed_lost


# ----------------------------------------------------------------------
# Full pages
# ----------------------------------------------------------------------


@pytest.mark.parametrize("fragmented", [False, True])
@pytest.mark.parametrize("scheme", ["fast", "fastplus", "nvwal"])
def test_replace_outgrowing_a_full_page(scheme, fragmented):
    """A replace whose value no longer fits the key's page rewrites the
    page copy-on-write if that makes room, else moves the record along
    the chain as a fresh insert would."""
    engine, index = make(scheme=scheme, nbuckets=1)
    model = {b"k%03d" % i: b"w" * 30 for i in range(12)}
    for key, value in model.items():
        put(engine, index, key, value)
    if fragmented:
        for key in (b"k005", b"k007"):
            with engine.transaction() as txn:
                index.delete(txn.ctx, key)
            del model[key]
    model[b"k000"] = b"w" * (40 if fragmented else 31)
    put(engine, index, b"k000", model[b"k000"], replace=True)
    assert dict(index.items(view(engine))) == model
    assert index.verify(view(engine)) == len(model)


@pytest.mark.parametrize("scheme", ["fast", "fastplus", "nvwal"])
def test_bucket_grows_past_a_last_page_with_no_room_for_a_chain_cell(scheme):
    """Linking an overflow page behind a last page too full for a new
    chain cell links it in as the bucket's head instead."""
    engine, index = make(scheme=scheme, nbuckets=4)
    rng = random.Random(7)
    model, live = {}, []
    for i in range(120):
        with engine.transaction() as txn:
            if live and rng.random() < 0.3:
                key = live.pop(rng.randrange(len(live)))
                index.delete(txn.ctx, key)
                del model[key]
            else:
                live.append(b"k%03d" % i)
                model[live[-1]] = b"v" * rng.randrange(1, 40)
                index.insert(txn.ctx, live[-1], model[live[-1]])
    assert dict(index.items(view(engine))) == model
    assert index.verify(view(engine)) == len(model)


# ----------------------------------------------------------------------
# Copy-on-write of a fragmented bucket page
# ----------------------------------------------------------------------


def _chain(index, view):
    head_no = index._bucket_head(index._directory(view), 0)
    return list(index._chain_page_nos(view, head_no))


@pytest.mark.parametrize("target", ["head", "chain"])
@pytest.mark.parametrize("scheme", ["fast", "fastplus", "nvwal"])
def test_fragmented_bucket_page_is_rewritten(scheme, target, monkeypatch):
    """A record that no hole of a bucket page fits, but that fits once
    the page is compacted, rewrites the page instead of growing the
    chain.  FAST and FAST⁺ copy it to a fresh page, repoint its
    referrer (the directory for a head page, the predecessor's chain
    cell otherwise) and free the old page; NVWAL compacts the DRAM
    frame in place, so the chain keeps its page numbers."""
    entered = []
    for name in ("_copy_on_write", "_predecessor"):
        method = getattr(HashIndex, name)

        def spy(self, *args, _name=name, _method=method):
            entered.append(_name)
            return _method(self, *args)

        monkeypatch.setattr(HashIndex, name, spy)
    config = small_config(scheme=scheme, page_size=512)
    engine = open_engine(config)
    index = HashIndex(root_slot=ROOT_SLOT, nbuckets=1)
    with engine.transaction() as txn:
        index.create(txn.ctx)
    model = {}
    while len(_chain(index, view(engine))) < 3:
        key = b"k%03d" % len(model)
        put(engine, index, key, b"x" * 20)
        model[key] = b"x" * 20
    chain = _chain(index, view(engine))
    old_no = chain[0] if target == "head" else chain[1]
    page = view(engine).page(old_no)
    # Every other record goes: holes too small for the new record,
    # room enough once the page is compacted.
    doomed = [parse_leaf(page.record(slot))[0]
              for slot in range(1, page.nrecords, 2)]
    for key in doomed:
        with engine.transaction() as txn:
            assert index.delete(txn.ctx, key)
        del model[key]
    put(engine, index, b"big", b"y" * 80)
    model[b"big"] = b"y" * 80
    assert "_copy_on_write" in entered
    relinked = scheme != "nvwal"
    assert ("_predecessor" in entered) == (relinked and target == "chain")
    expected = _chain(index, view(engine))
    position = chain.index(old_no)
    assert expected[:position] + expected[position + 1:] == (
        chain[:position] + chain[position + 1:]
    )
    assert (expected[position] != old_no) == relinked

    def check(engine):
        assert _chain(index, view(engine)) == expected
        assert dict(index.items(view(engine))) == model
        assert index.verify(view(engine)) == len(model)
        assert (old_no in engine.store.free_pages()) == relinked

    check(engine)
    engine.pm.crash(DropAll())
    check(engine_class(scheme).attach(config, engine.pm))


# ----------------------------------------------------------------------
# Property test
# ----------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["insert", "delete"]),
            st.integers(0, 40),
            st.binary(min_size=0, max_size=30),
        ),
        max_size=60,
    )
)
def test_hash_index_matches_dict(ops):
    engine, index = make(nbuckets=4, page_size=512)
    model = {}
    for op, key_no, value in ops:
        key = b"p%02d" % key_no
        with engine.transaction() as txn:
            if op == "insert":
                index.insert(txn.ctx, key, value, replace=True)
                model[key] = value
            else:
                assert index.delete(txn.ctx, key) == (key in model)
                model.pop(key, None)
    assert dict(index.items(view(engine))) == model
    assert index.verify(view(engine)) == len(model)
