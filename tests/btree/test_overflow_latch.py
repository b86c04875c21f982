"""The page store's one-way overflow latch and the reachability walk it
gates: while the latch is clear no value has ever spilled, so the walk
lists the leaves without reading them; once a chain is written the
latch is durable before the commit that publishes it, and the walk
reads leaves exactly as it did before the latch."""

import csv
import dataclasses
import pathlib
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.btree import overflow
from repro.btree.cells import is_overflow_cell, parse_internal, parse_leaf_any
from repro.core import engine_class, open_engine
from repro.core.base import MutationContext, ReadView
from repro.storage.pagestore import OVERFLOW_LATCH, PageStore
from repro.storage.slotted_page import (
    FLAG_HAS_OVERFLOW,
    PAGE_INTERNAL,
    PAGE_META,
)
from repro.testing.crashsim import ShardedRun, SingleRun, crash_sweep, failing
from tests.btree.test_overflow_flag import SCHEMES, config_for, oracle_reachable


def flagged_walk(tree, view):
    """The walk ``reachable_pages`` did before the latch: every leaf's
    header is read, and the records of flagged leaves."""
    pages = set()
    stack = [view.root_page_no(tree.root_slot)]
    while stack:
        page_no = stack.pop()
        if not page_no or page_no in pages:
            continue
        pages.add(page_no)
        page = tree._typed_page(view, page_no)
        if page.page_type == PAGE_INTERNAL:
            for payload in page.records():
                stack.append(parse_internal(payload)[1])
        elif page.flags & FLAG_HAS_OVERFLOW:
            for payload in page.records():
                if is_overflow_cell(payload):
                    _, _, (_, head) = parse_leaf_any(payload)
                    stack.extend(overflow.chain_page_nos(view, head))
    return pages


def engine_walk_before_latch(engine):
    """``Engine.reachable_pages`` as it was before the latch, for a
    B-tree-only engine: the same reads, ending in :func:`flagged_walk`."""
    view = ReadView(engine, fill=False)
    pages = set()
    for slot in engine.active_root_slots():
        assert view.page(view.root_page_no(slot)).page_type != PAGE_META
        pages |= flagged_walk(engine.tree(slot), view)
    return pages


def load_misses(engine, walk):
    registry = engine.pm.obs.registry
    before = registry.value("pm.load_miss")
    pages = walk(engine)
    return pages, registry.value("pm.load_miss") - before


def reattach(scheme, config, pm):
    """Crash (every store survives) and attach without GC: a cold cache
    and the same committed state each time."""
    pm.crash()
    return engine_class(scheme).attach(
        dataclasses.replace(config, eager_recovery_gc=False), pm
    )


# ----------------------------------------------------------------------
# The latch word
# ----------------------------------------------------------------------


def test_format_writes_the_plain_page_size_and_attach_reads_the_latch():
    engine = open_engine(config_for("fast"))
    store, pm = engine.store, engine.pm
    assert not store.overflow_latched
    assert pm.read_u32(store.base + 4) == store.page_size
    engine.insert(b"small", b"s" * 20)
    assert not store.overflow_latched
    pm.crash()
    again = PageStore.attach(pm, store.base)
    assert (again.page_size, again.overflow_latched) == (store.page_size, False)


def test_first_chain_persists_the_latch_once_and_nothing_clears_it():
    config = config_for("fast")
    engine = open_engine(config)
    store, pm = engine.store, engine.pm
    engine.insert(b"big", b"B" * 1000)
    assert store.overflow_latched
    word = int.from_bytes(pm.durable_bytes(store.base + 4, 4), "little")
    assert word == store.page_size | OVERFLOW_LATCH
    stores = pm.obs.registry.value("pm.store")
    store.latch_overflow()
    assert pm.obs.registry.value("pm.store") == stores  # already set: no store
    engine.delete(b"big")
    pm.crash()
    recovered = engine_class("fast").attach(config, pm)
    assert recovered.store.overflow_latched
    assert recovered.store.page_size == config.page_size
    assert recovered.search(b"big") is None


# ----------------------------------------------------------------------
# The latch-clear walk returns the oracle's set; a set latch costs what
# the walk cost before it
# ----------------------------------------------------------------------


def value_of(size, page_size, key):
    length = {
        "small": 8,
        "medium": page_size // 6,
        "large": overflow.max_local_payload(page_size) + 1 + page_size // 2,
    }[size]
    return bytes([key]) * length


@st.composite
def walk_cases(draw):
    spill = draw(st.booleans())
    sizes = ["small", "medium"] + (["large"] if spill else [])
    ops = draw(st.lists(
        st.tuples(
            st.sampled_from(["insert", "replace", "delete"]),
            st.integers(0, 47),
            st.sampled_from(sizes),
        ),
        min_size=20, max_size=80,
    ))
    return (
        draw(st.sampled_from(SCHEMES)),
        draw(st.sampled_from([512, 4096])),
        ops,
        draw(st.permutations(range(48))),
    )


def apply_op(engine, model, kind, key_no, size):
    key = b"k%02d" % key_no
    page_size = engine.config.page_size
    if kind == "delete":
        engine.delete(key)
        model.pop(key, None)
    elif kind == "replace" or key not in model:
        value = value_of(size, page_size, key_no)
        engine.insert(key, value, replace=True)
        model[key] = value


def check_walk(engine, model):
    view = engine.read_view()
    tree = engine.tree()
    oracle = oracle_reachable(tree, view)
    if not engine.store.overflow_latched:
        assert tree.reachable_pages(view, overflow_chains=False) == oracle
    assert engine.reachable_pages() == oracle
    assert engine.verify() == len(model)


@settings(max_examples=30, deadline=None)
@given(walk_cases())
def test_walk_matches_the_oracle_and_costs_no_more(case):
    scheme, page_size, ops, drain_order = case
    config = dataclasses.replace(
        config_for(scheme, npages=256), page_size=page_size,
        dram_bytes=64 * page_size,
    )
    engine = open_engine(config)
    model = {}
    for op in ops:
        apply_op(engine, model, *op)
        check_walk(engine, model)
    spilled = any(
        len(value) > overflow.max_local_payload(page_size)
        for value in model.values()
    )
    assert not spilled or engine.store.overflow_latched
    latched = engine.store.overflow_latched
    pages, misses = load_misses(
        reattach(scheme, config, engine.pm), lambda e: e.reachable_pages()
    )
    before = reattach(scheme, config, engine.pm)
    old_pages, old_misses = load_misses(before, engine_walk_before_latch)
    assert pages == old_pages
    if latched:
        assert misses == old_misses
    else:
        assert misses <= old_misses
    # Drain through the recovered engine: empty-leaf unlinks and, at the
    # end, a collapsed root.
    engine = before
    for key_no in drain_order:
        apply_op(engine, model, "delete", key_no, None)
        check_walk(engine, model)
    assert engine.tree().height(engine.read_view()) == 1


def test_three_level_walk_matches_through_empty_leaf_unlinks():
    """Only a root over leaves collapses; deeper trees keep their
    height, and every leaf left stays at the one leaf depth."""
    engine = open_engine(config_for("fast", npages=1024))
    tree = engine.tree()
    rng = random.Random(5)
    keys = [b"%05d" % key for key in rng.sample(range(100000), 700)]
    model = {}
    for key in keys:
        engine.insert(key, b"v" * 16)
        model[key] = b"v" * 16
    assert tree.height(engine.read_view()) == 3
    peak = len(engine.reachable_pages())
    rng.shuffle(keys)
    for i, key in enumerate(keys):
        engine.delete(key)
        del model[key]
        if i % 25 == 0 or len(model) < 40:
            check_walk(engine, model)
    assert not engine.store.overflow_latched
    assert len(engine.reachable_pages()) < peak // 4


# ----------------------------------------------------------------------
# Crash sweep across the first overflow insert
# ----------------------------------------------------------------------

PRELOAD = {b"p%02d" % i: b"v" * 40 for i in range(24)}
ITEMS = [
    ("insert", b"m1", b"s" * 20),
    ("insert", b"big", b"B" * 600),  # the run's first spilled value
    ("insert", b"m2", b"t" * 20),
]


class _GCKeepsChains:
    """After recovery with eager GC, no page that the leaf-reading
    walk reaches is on the free list."""

    def recovered_violations(self, engine):
        violations = super().recovered_violations(engine)
        for shard in getattr(engine, "shards", [engine]):
            reached = oracle_reachable(shard.tree(), shard.read_view())
            freed = reached & set(shard.store.free_pages())
            if freed:
                violations.append("GC freed reachable pages %s"
                                  % sorted(freed))
        return violations


class _Single(_GCKeepsChains, SingleRun):
    pass


class _Sharded(_GCKeepsChains, ShardedRun):
    pass


def shapes():
    """FAST, FAST⁺ and NVWAL runs, and a 2-shard FAST router."""
    return [
        *[_Single(scheme, ITEMS, preload=PRELOAD) for scheme in SCHEMES],
        _Sharded("fast", [ITEMS], shards=2, preload=PRELOAD),
    ]


def sweep(shape):
    # NVWAL checkpoints after every commit, so a committed chain leaves
    # the WAL (whose pages GC keeps anyway) for the page space.
    config = config_for(shape.scheme, npages=128, nvwal_checkpoint_bytes=1)
    assert config.eager_recovery_gc
    results = crash_sweep(shape, config=config, stride=1, seeds=(0,))
    committed = {b"big" in result.committed for _, result in results}
    assert committed == {False, True}, "the sweep missed the spill"
    return failing(results)


def test_crash_sweep_over_the_first_spill_keeps_every_chain():
    for shape in shapes():
        bad = sweep(shape)
        assert not bad, (shape.scheme, bad[0][0], bad[0][1].violations)


def test_crash_sweep_catches_a_latch_persisted_after_the_commit(monkeypatch):
    """The mis-ordered latch: ``write_chain`` only asks for it, and the
    next transaction to start persists it — after the spilling commit."""
    latch = PageStore.latch_overflow
    asked = set()
    monkeypatch.setattr(PageStore, "latch_overflow",
                        lambda store: asked.add(store))
    begin = MutationContext.__init__

    def late_latch(self, engine, *args, **kwargs):
        begin(self, engine, *args, **kwargs)
        if engine.store in asked:
            asked.discard(engine.store)
            latch(engine.store)

    monkeypatch.setattr(MutationContext, "__init__", late_latch)
    for shape in shapes():
        bad = sweep(shape)
        assert any(
            "GC freed reachable pages" in violation
            for _, result in bad for violation in result.violations
        ), shape


def test_committed_eager_recovery_meets_its_floor():
    """``results/extension_recovery.csv`` (CI diffs it): FAST eager-GC
    recovery under 0.25 x 48.29 us at 200 records and 0.6 x 69.15 us at
    1 200, its cost before the latch and the free-page run link."""
    with open(pathlib.Path(__file__).parents[2] / "results"
              / "extension_recovery.csv") as f:
        eager = {row["records"]: float(row["recovery us"])
                 for row in csv.DictReader(f)
                 if (row["scheme"], row["GC"]) == ("fast", "eager")}
    assert eager["200"] < 0.25 * 48.29 and eager["1200"] < 0.6 * 69.15
