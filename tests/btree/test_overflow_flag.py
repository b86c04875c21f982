"""The leaf header's FLAG_HAS_OVERFLOW bit and the reachability walk it
gates: a leaf's records are read only when the bit is set, so the bit
must be set in every committed state in which the leaf holds an
overflow cell — on every commit path, through splits, copy-on-write
defragmentation, compaction and crashes."""

import dataclasses
import random

import pytest

from repro.btree import BTree, overflow
from repro.btree.cells import is_overflow_cell, parse_internal, parse_leaf_any
from repro.core import SystemConfig, engine_class, open_engine
from repro.pm import RandomPersist
from repro.storage.defrag import defragment_into
from repro.storage.slotted_page import FLAG_HAS_OVERFLOW, PAGE_INTERNAL, PAGE_LEAF
from repro.testing import CrashablePM, CrashPoint, power_fail
from tests.btree.helpers import naive_tree

PAGE_SIZE = 512
SCHEMES = ["fast", "fastplus", "nvwal"]


def config_for(scheme, npages=512, **overrides):
    return SystemConfig(
        scheme=scheme, npages=npages, page_size=PAGE_SIZE, log_bytes=16384,
        heap_bytes=1 << 20, dram_bytes=64 * PAGE_SIZE,
        atomic_granularity=64 if scheme == "fastplus" else 8,
        **overrides,
    )


def oracle_reachable(tree, view):
    """The walk ``reachable_pages`` did before the flag: every record
    of every leaf is read to find overflow cells."""
    pages = set()
    stack = [view.root_page_no(tree.root_slot)]
    while stack:
        page_no = stack.pop()
        if not page_no or page_no in pages:
            continue
        pages.add(page_no)
        page = view.page(page_no)
        for payload in page.records():
            if page.page_type == PAGE_INTERNAL:
                stack.append(parse_internal(payload)[1])
            elif is_overflow_cell(payload):
                _, _, (_, head) = parse_leaf_any(payload)
                stack.extend(overflow.chain_page_nos(view, head))
    return pages


def value(rng, large):
    """A value on one side or the other of the spill threshold."""
    limit = overflow.max_local_payload(PAGE_SIZE)
    size = rng.randint(limit + 1, limit + 400) if large else rng.randint(4, 40)
    return bytes([rng.randrange(256)]) * size


def mixed_transactions(seed=3):
    """Lists of ``(op, key, value)``, one list per transaction: inserts
    that split leaves, replacements that flip values across the spill
    threshold (fragmenting leaves into copy-on-write), deletes, and
    multi-op transactions."""
    rng = random.Random(seed)
    keys = [b"k%03d" % i for i in rng.sample(range(1000), 60)]
    txns = [[("insert", key, value(rng, i % 3 == 0))] for i, key in enumerate(keys)]
    for key in rng.sample(keys, 30):
        txns.append([("insert", key, value(rng, rng.random() < 0.5))])
    for batch in range(5):
        txns.append([
            ("insert", rng.choice(keys), value(rng, rng.random() < 0.5))
            for _ in range(3)
        ])
    for key in rng.sample(keys, 25):
        txns.append([("delete", key, None)])
    return txns


def run_ops(txn, ops):
    for kind, key, val in ops:
        if kind == "insert":
            txn.insert(key, val, replace=True)
        else:
            txn.delete(key)


def apply_ops(model, ops):
    for kind, key, val in ops:
        if kind == "insert":
            model[key] = val
        else:
            model.pop(key, None)


# ----------------------------------------------------------------------
# The bit itself
# ----------------------------------------------------------------------


def make_tree(npages=256):
    engine, ctx, tree = naive_tree(npages, PAGE_SIZE)
    return engine.store, ctx, tree


def leaf_of(tree, view, key):
    return tree._descend(view, key)[-1].page


def test_inline_leaf_stays_clear_overflow_leaf_is_flagged_and_sticky():
    _, ctx, tree = make_tree()
    tree.insert(ctx, b"a", b"small")
    assert not leaf_of(tree, ctx, b"a").flags & FLAG_HAS_OVERFLOW
    tree.insert(ctx, b"b", b"B" * 1500)
    assert leaf_of(tree, ctx, b"b").flags & FLAG_HAS_OVERFLOW
    tree.delete(ctx, b"b")
    # Sticky: a set bit only says the leaf *may* hold overflow cells.
    assert leaf_of(tree, ctx, b"a").flags & FLAG_HAS_OVERFLOW
    assert tree.reachable_pages(ctx) == oracle_reachable(tree, ctx)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_update_to_an_overflow_value_flags_a_clear_leaf(scheme):
    engine = open_engine(config_for(scheme))
    for key in (b"a", b"b", b"c"):
        engine.insert(key, b"small")
    with engine.transaction() as txn:
        assert txn.update(b"b", b"B" * 1000)
    view = engine.read_view()
    assert leaf_of(engine.tree(), view, b"b").flags & FLAG_HAS_OVERFLOW
    assert engine.tree().reachable_pages(view) == oracle_reachable(
        engine.tree(), view
    )
    assert engine.verify() == 3


@pytest.mark.parametrize("large_key", [b"k000", b"k039"])
def test_split_flags_a_sibling_only_if_it_receives_an_overflow_cell(large_key):
    """Splits move the smaller keys to a fresh left sibling; the
    original page keeps the larger ones (and its sticky bit)."""
    _, ctx, tree = make_tree(npages=512)
    tree.insert(ctx, large_key, b"L" * 1000)
    for i in range(40):
        if b"k%03d" % i != large_key:
            tree.insert(ctx, b"k%03d" % i, b"v" * 20)
    assert tree.height(ctx) >= 2
    leftmost = leaf_of(tree, ctx, b"k000")
    assert leftmost is not leaf_of(tree, ctx, b"k039")
    assert bool(leftmost.flags & FLAG_HAS_OVERFLOW) == (large_key == b"k000")
    assert tree.reachable_pages(ctx) == oracle_reachable(tree, ctx)
    assert tree.verify(ctx) == 40


def test_copy_on_write_carries_the_flag_in_the_header_that_commits():
    store, ctx, tree = make_tree()
    tree.insert(ctx, b"big", b"q" * 1000)
    page = leaf_of(tree, ctx, b"big")
    page.pending_insert(1, b"\x01\x00zpending")
    fresh = defragment_into(store, page)
    # Both the published (committed-subset) header and the pending one
    # that later commits keep the byte.
    assert fresh.committed_header_image()[1] & FLAG_HAS_OVERFLOW
    assert fresh.pending_header_image()[1] & FLAG_HAS_OVERFLOW


def test_nvwal_in_place_defragment_keeps_the_flag():
    engine = open_engine(config_for("nvwal"))
    engine.insert(b"big", b"q" * 1000)
    with engine.transaction() as txn:
        ctx = txn.ctx
        leaf_no = engine.tree()._descend(ctx, b"big")[-1].page_no
        _, fresh = ctx.defragment(leaf_no)
        assert fresh.flags & FLAG_HAS_OVERFLOW
    assert engine.read_view().page(leaf_no).flags & FLAG_HAS_OVERFLOW
    assert engine.verify() == 1


def test_verify_rejects_an_overflow_cell_in_a_clear_leaf():
    _, ctx, tree = make_tree()
    tree.insert(ctx, b"big", b"q" * 1000)
    page = leaf_of(tree, ctx, b"big")
    image = bytearray(page.header_image())
    image[1] &= ~FLAG_HAS_OVERFLOW
    page.apply_header(bytes(image))
    with pytest.raises(AssertionError, match="FLAG_HAS_OVERFLOW is clear"):
        tree.verify(ctx)


# ----------------------------------------------------------------------
# (a) Reachability equals the full-record oracle after every commit
# ----------------------------------------------------------------------


@pytest.mark.parametrize("scheme, extra", [
    *[(scheme, {}) for scheme in SCHEMES],
    ("fast", {"dram_cache_pages": 16}),
    ("fastplus", {"group_commit_size": 4}),
])
def test_reachable_pages_equal_oracle_after_every_commit(scheme, extra,
                                                         monkeypatch):
    rewrites = []
    copy_on_write = BTree._copy_on_write

    def counting(self, ctx, path, depth):
        rewrites.append(path[depth].page_no)
        return copy_on_write(self, ctx, path, depth)

    monkeypatch.setattr(BTree, "_copy_on_write", counting)
    engine = open_engine(config_for(scheme, **extra))
    tree = engine.tree()
    model = {}

    def check():
        view = engine.read_view()
        assert tree.reachable_pages(view) == oracle_reachable(tree, view)
        assert engine.verify() == len(model)

    for ops in mixed_transactions():
        with engine.transaction() as txn:
            run_ops(txn, ops)
        apply_ops(model, ops)
        check()
    engine.compact(min_waste=1)
    check()
    engine.drain_group_commit()
    check()
    assert dict(engine.scan()) == model
    assert tree.height(engine.read_view()) >= 2
    assert rewrites, "the workload never defragmented copy-on-write"
    view = engine.read_view()
    leaves = [
        view.page(no) for no in tree.reachable_pages(view)
        if view.page(no).page_type == PAGE_LEAF
    ]
    assert any(leaf.flags & FLAG_HAS_OVERFLOW for leaf in leaves)


# ----------------------------------------------------------------------
# (b) Crash sweep: eager GC never frees a committed chain page
# ----------------------------------------------------------------------

CRASH_TXNS = [
    [("insert", b"a", b"1" * 20)],
    [("insert", b"b", b"2" * 500)],
    [("insert", b"c", b"3" * 30)],
    [("insert", b"a", b"4" * 600)],
    [("insert", b"b", b"5" * 10), ("insert", b"d", b"6" * 450)],
    [("delete", b"c", None)],
    [("insert", b"e", b"7" * 700)],
    [("delete", b"a", None)],
]


def crash_and_attach(scheme, config, budget):
    pm = CrashablePM.for_config(config)
    engine = engine_class(scheme).create(config, pm=pm)
    committed, inflight = {}, None
    pm.arm(() if budget is None else {budget}, power_fail)
    try:
        for ops in CRASH_TXNS:
            inflight = ops
            with engine.transaction() as txn:
                run_ops(txn, ops)
            apply_ops(committed, ops)
            inflight = None
    except CrashPoint:
        pass
    finally:
        pm.armed = False
    pm.crash(RandomPersist(rng=random.Random(budget)))
    candidates = [committed]
    if inflight is not None:
        candidates.append(dict(committed))
        apply_ops(candidates[-1], inflight)
    return engine_class(scheme).attach(config, pm), candidates


@pytest.mark.parametrize("scheme", SCHEMES)
def test_crash_sweep_eager_gc_keeps_committed_chains(scheme):
    # NVWAL checkpoints after every commit, so committed chain pages
    # leave the WAL (whose pages GC keeps anyway) and only the walk
    # keeps them.
    config = config_for(scheme, npages=128, nvwal_checkpoint_bytes=1)
    assert config.eager_recovery_gc
    clean, _ = crash_and_attach(scheme, config, None)
    total = clean.pm.events
    for budget in range(1, total + 1, max(1, total // 60)):
        engine, candidates = crash_and_attach(scheme, config, budget)
        engine.verify()
        assert dict(engine.scan()) in candidates, budget
        view = engine.read_view()
        tree = engine.tree()
        reachable = oracle_reachable(tree, view)
        assert tree.reachable_pages(view) == reachable, budget
        assert not reachable & set(engine.store.free_pages()), budget


# ----------------------------------------------------------------------
# (c) Cost shape: with the store's overflow latch clear, eager GC reads
# the internal pages and one leaf
# ----------------------------------------------------------------------


@pytest.mark.parametrize("scheme", ["fast", "fastplus"])
def test_eager_gc_attach_reads_one_line_per_leaf(scheme):
    config = config_for(scheme)
    engine = open_engine(config)
    rng = random.Random(11)
    for key in rng.sample(range(100000), 600):
        engine.insert(b"%06d" % key, b"v" * 20)
    view = engine.read_view()
    types = [view.page(no).page_type for no in engine.reachable_pages()]
    leaves = types.count(PAGE_LEAF)
    internal_lines = types.count(PAGE_INTERNAL) * (PAGE_SIZE // 64)
    assert leaves > 20

    def attach_misses(eager):
        pm = engine.pm
        pm.crash()
        registry = pm.obs.registry
        before = registry.value("pm.load_miss")
        engine_class(scheme).attach(
            dataclasses.replace(config, eager_recovery_gc=eager), pm
        )
        return registry.value("pm.load_miss") - before

    assert not engine.store.overflow_latched
    lazy = attach_misses(False)
    eager = attach_misses(True)
    # The internal pages' lines, the leaf header line the leftmost
    # descent reads, and one line of margin: no line per leaf.
    assert eager - lazy <= internal_lines + 1 + 1, (eager, lazy, leaves)
