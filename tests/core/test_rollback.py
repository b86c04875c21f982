"""A rollback gives back everything the transaction took.

Every way a transaction is undone — a plain rollback, a locked
session's rollback, ``rollback_to`` then commit — is one restore to a
savepoint.  Two things a transaction does take space the undo must
return: a copy-on-write (``compact``) allocates a page and swaps it in
place of a committed one, and an insert into a committed leaf pops a
chunk of its in-page free list before deletes empty and free the
leaf.  Afterwards every page is reachable or free, every reachable
page's free list accounts for exactly its dead bytes, and the tree
holds the committed records.
"""

import pytest

from repro.core import open_engine
from tests.core.conftest import small_config

SCHEMES = ["fast", "fastplus", "nvwal"]
ENDINGS = ["rollback", "session", "rollback_to"]


def _key(i):
    return b"k%03d" % i


def _fragmented_engine(scheme):
    """60 records on 512-byte pages, every third deleted: each leaf
    holds committed dead cells on its free list."""
    engine = open_engine(small_config(scheme=scheme))
    model = {}
    for i in range(60):
        engine.insert(_key(i), b"v" * 20)
        model[_key(i)] = b"v" * 20
    for i in range(0, 60, 3):
        engine.delete(_key(i))
        del model[_key(i)]
    return engine, model


def _compact(engine, txn, model):
    """Copy-on-write every fragmented page."""
    if txn.mode == "locked":
        txn.ctx.begin_op()
    assert engine.tree(0).compact(txn.ctx, min_waste=16) > 0


def _free_leaf(engine, txn, model):
    """Re-insert a deleted key (its cell pops a committed chunk of the
    first leaf), then delete from the smallest key up until a leaf is
    freed."""
    txn.insert(_key(0), b"w" * 20)
    for key in sorted({**model, _key(0): None}):
        txn.delete(key)
        if txn.ctx.freed:
            return
    raise AssertionError("no leaf was freed")


def _check(engine, model):
    reachable = engine.reachable_pages()
    assert (len(reachable) + engine.store.free_page_count()
            == engine.config.npages - 1)
    for page_no in reachable:
        assert engine._fetch_page(page_no).free_list_consistent(), page_no
    assert engine.verify() == len(model)
    assert dict(engine.scan()) == model


@pytest.mark.parametrize("action", [_compact, _free_leaf],
                         ids=["copy_on_write", "free_leaf"])
@pytest.mark.parametrize("ending", ENDINGS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_undo_returns_pages_and_free_space(scheme, ending, action):
    engine, model = _fragmented_engine(scheme)
    if ending == "session":
        txn = engine.session("s").transaction()
    else:
        txn = engine.transaction()
    token = txn.savepoint() if ending == "rollback_to" else None
    action(engine, txn, model)
    if ending == "rollback_to":
        txn.rollback_to(token)
        txn.commit()
    else:
        txn.rollback()
    _check(engine, model)
