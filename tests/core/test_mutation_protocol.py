"""Conformance of every scheme context to the one mutation protocol.

``MutationContext`` owns the body of each protocol method; FAST, FAST⁺,
NVWAL and naive supply only hooks, and a strict-2PL transaction's
context only the claim hook (``TwoPhaseLocking``).  A new protocol
method is added to the base and to ``PROTOCOL`` below, nowhere else.
"""

import pytest

from repro.btree.cells import leaf_cell, parse_internal
from repro.core import engine_class, open_engine
from repro.core.base import MutationContext
from repro.core.locking import (
    LOCK_X, ClaimAfterStore, decode_lock, page_resource, root_resource,
)
from repro.obs import trace as ev
from repro.storage.slotted_page import FLAG_HAS_OVERFLOW, PAGE_LEAF
from tests.core.conftest import small_config

#: The mutation protocol (``repro.btree.btree``'s context protocol).
PROTOCOL = (
    "insert_record", "update_record", "delete_record", "set_page_flags",
    "allocate_page", "free_page", "set_root", "overwrite_child_pointer",
    "defragment", "lock_ahead", "flush_records",
)

#: Where a scheme may differ: the hooks around a store.
HOOKS = (
    "_write", "_write_pointer", "_promote", "_write_record", "_stored",
    "_dead", "_allocate", "_free", "_set_root", "_repoint", "_defragment",
)

SCHEMES = ("fast", "fastplus", "nvwal", "naive")


#: (scheme, mode) for every scheme, plain and — where the scheme
#: serves locked sessions — locked.
CELLS = [(scheme, "plain") for scheme in SCHEMES] + [
    (scheme, "locked") for scheme in SCHEMES
    if "locked" in engine_class(scheme).isolation_modes
]


@pytest.mark.parametrize("scheme,mode", CELLS)
def test_every_protocol_method_is_the_base_body(scheme, mode):
    engine = open_engine(small_config(scheme=scheme))
    if mode == "plain":
        ctx = engine._new_context()
    else:
        ctx = engine.session("s").transaction().ctx
    assert isinstance(ctx, engine.context_class)
    for name in PROTOCOL:
        assert getattr(type(ctx), name) is getattr(MutationContext, name), (
            "%s %s overrides %s" % (scheme, mode, name))
    assert (ctx._claim is None) == (mode == "plain")


def test_protocol_list_is_the_base_public_surface():
    """Adding a protocol method to the base without listing it here
    (so without the claim check below) fails."""
    public = {
        name for name, value in vars(MutationContext).items()
        if callable(value) and not name.startswith("_")
    }
    assert public == set(PROTOCOL) | {
        "root_page_no", "page", "route", "keep", "uncommitted_pages",
        "snapshot_state", "restore_state",
    }


def _x_claims(engine, sid):
    """Resources the trace shows ``sid`` claiming X on so far."""
    claims = set()
    for event in engine.trace.events():
        if event[2] in (ev.LOCK_ACQUIRE, ev.LOCK_UPGRADE) and event[3] == sid:
            resource, mode = decode_lock(event[4])
            if mode == LOCK_X:
                claims.add(resource)
    return claims


def _spy_first_store(ctx, engine, sid):
    """Record the X claims traced when a mutator reaches its first
    scheme hook (every store comes after one)."""
    seen = []
    for name in HOOKS:
        hook = getattr(ctx, name)

        def wrapped(*args, _hook=hook):
            if not seen:
                seen.append(_x_claims(engine, sid))
            return _hook(*args)

        setattr(ctx, name, wrapped)
    return seen


@pytest.mark.parametrize("scheme", ["fast", "fastplus", "nvwal"])
def test_locked_mutators_claim_x_before_their_first_store(scheme):
    engine = open_engine(small_config(scheme=scheme))
    for i in range(150):
        engine.insert(b"k%04d" % i, b"v" * 20)
    session = engine.session("s")
    txn = session.transaction()
    ctx, sid = txn.ctx, session.sid
    root_no = ctx.root_page_no(0)
    root = ctx.page(root_no)
    leaves = [parse_internal(root.record(i))[1] for i in range(root.nrecords)]
    assert len(leaves) >= 8
    page = ctx.page
    cell = leaf_cell(b"k0000", b"w" * 20)
    steps = [
        ("insert_record", lambda: ctx.insert_record(page(leaves[0]), 0, cell),
         page_resource(leaves[0])),
        ("update_record", lambda: ctx.update_record(page(leaves[1]), 0, cell),
         page_resource(leaves[1])),
        ("delete_record", lambda: ctx.delete_record(page(leaves[2]), 0),
         page_resource(leaves[2])),
        ("set_page_flags",
         lambda: ctx.set_page_flags(page(leaves[3]), FLAG_HAS_OVERFLOW),
         page_resource(leaves[3])),
        ("defragment", lambda: ctx.defragment(leaves[4]),
         page_resource(leaves[4])),
        ("overwrite_child_pointer",
         lambda: ctx.overwrite_child_pointer(root, 5, leaves[5]),
         page_resource(root_no)),
        ("free_page", lambda: ctx.free_page(leaves[6]),
         page_resource(leaves[6])),
        ("set_root", lambda: ctx.set_root(0, root_no), root_resource(0)),
    ]
    for name, call, resource in steps:
        assert resource not in _x_claims(engine, sid), name
        ctx.begin_op()
        seen = _spy_first_store(ctx, engine, sid)
        result = call()
        for hook in HOOKS:
            delattr(ctx, hook)
        assert seen and resource in seen[0], name
        # The store is done: a lock the op does not hold is refused
        # (uncontended), one it holds still answers.
        with pytest.raises(ClaimAfterStore):
            ctx.lock_ahead(root_slot=7)
        if resource[0] == "page":
            ctx.page(resource[1])
        else:
            ctx.lock_ahead(root_slot=resource[1])
        if name == "defragment":
            assert page_resource(result[0]) in _x_claims(engine, sid)
    ctx.begin_op()
    new_no, _ = ctx.allocate_page(PAGE_LEAF)
    assert page_resource(new_no) in _x_claims(engine, sid)
    # Pages the transaction allocates are exempt; others are not.
    other_no, _ = ctx.allocate_page(PAGE_LEAF)
    assert page_resource(other_no) in _x_claims(engine, sid)
    with pytest.raises(ClaimAfterStore):
        ctx.page(leaves[7])
    # ``lock_ahead`` claims and stores nothing: later claims still go.
    ctx.begin_op()
    ctx.lock_ahead(root_slot=1)
    ctx.lock_ahead(page(leaves[7]))
    ctx.lock_ahead(root_slot=2)
    assert {root_resource(1), root_resource(2),
            page_resource(leaves[7])} <= _x_claims(engine, sid)
    txn.rollback()
    assert engine.verify() == 150
