"""A tree for the B-tree unit tests: the naive engine's context applies
every change in place at once, so assertions need no commit."""

from repro.btree import BTree
from repro.core import open_engine
from repro.core.naive import NaiveContext
from tests.core.conftest import small_config


def naive_tree(npages=256, page_size=512, leaf_capacity=None):
    """``(engine, ctx, tree)``: a fresh tree in root slot 0 of a naive
    engine, and a context that mutates (and reads) it."""
    engine = open_engine(
        small_config(scheme="naive", npages=npages, page_size=page_size)
    )
    ctx = NaiveContext(engine)
    tree = BTree(leaf_capacity=leaf_capacity)
    tree.create(ctx)
    return engine, ctx, tree
