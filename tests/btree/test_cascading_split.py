"""Cascading internal splits keep the descent path right: after
``_insert_cell`` splits a full internal page, the child's
path entry is rebased — its slot moves by the split's ``half``, or the
path re-points at the new sibling when the child's cell moved there —
and a copy-on-write whose pointer swap falls back to delete-and-reinsert
leaves its entry on its own cell, so a copy-on-write later in the same
cascade swaps the right cell.  512-byte pages make every level fill
within a few hundred keys."""

import random

import pytest

from repro.btree import BTree
from repro.btree.cells import parse_internal
from repro.core import SystemConfig, open_engine

SCHEMES = ["fast", "fastplus", "nvwal"]


def _engine(scheme):
    return open_engine(SystemConfig(scheme=scheme, page_size=512))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_ascending_inserts_through_cascading_splits(scheme):
    """The reproducer: at the parent commit FAST and FAST⁺ raised
    ``IndexError`` in ``_swap_child`` at ``i = 254``."""
    engine = _engine(scheme)
    for i in range(0, 2000, 2):
        engine.insert(b"key-%036d" % i, bytes(16))
    assert engine.verify() == 1000


def _check_path(path, upto):
    """Every entry in ``path[1:upto + 1]`` is the child its parent
    entry's cell at ``parent_slot`` points at."""
    for parent, entry in zip(path[:upto], path[1:upto + 1]):
        child_no = parse_internal(parent.page.record(entry.parent_slot))[1]
        assert child_no == entry.page_no, (parent.page_no, entry.parent_slot)


@pytest.fixture
def checked_paths(monkeypatch):
    """Check the descent path down to the page a split or copy-on-write
    just rewrote, each time one returns (entries below it are rebased
    by the caller)."""
    split, copy_on_write = BTree._split, BTree._copy_on_write

    def checked_split(self, ctx, path, depth):
        entry = path[depth]
        result = split(self, ctx, path, depth)
        _check_path(path, path.index(entry))
        return result

    def checked_copy_on_write(self, ctx, path, depth):
        length = len(path)
        copy_on_write(self, ctx, path, depth)
        _check_path(path, depth + len(path) - length)

    monkeypatch.setattr(BTree, "_split", checked_split)
    monkeypatch.setattr(BTree, "_copy_on_write", checked_copy_on_write)


def _order(name, n, rng):
    keys = list(range(n))
    if name == "descending":
        keys.reverse()
    elif name == "random":
        rng.shuffle(keys)
    return keys


@pytest.mark.parametrize("order", ["ascending", "descending", "random"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_inserts_and_deletes_match_a_dict_model(scheme, order, checked_paths):
    """~30 % of the steps delete a random live key; the tree is checked
    against the model at least every 50 operations, and the descent
    path after every split and copy-on-write."""
    engine = _engine(scheme)
    rng = random.Random(1)
    model = {}
    ops = 0
    for i in _order(order, 450, rng):
        key = b"key-%036d" % i
        engine.insert(key, bytes(16))
        model[key] = bytes(16)
        ops += 1
        if rng.random() < 0.3:
            victim = rng.choice(sorted(model))
            assert engine.delete(victim)
            del model[victim]
            ops += 1
        if ops % 50 < 2:
            assert engine.verify() == len(model), ops
            assert list(engine.scan()) == sorted(model.items()), ops
    assert engine.verify() == len(model)
    assert list(engine.scan()) == sorted(model.items())
