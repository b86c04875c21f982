"""Unit tests for the page store (arena manager)."""

import random

import pytest

from repro.core import SystemConfig, engine_class, open_engine
from repro.pm import DropAll, PersistAll, PersistentMemory, RandomPersist
from repro.storage import OutOfPagesError, PAGE_INTERNAL, PAGE_LEAF, PageStore
from repro.storage.pagestore import _OFF_FREE_HEAD, RUN
from repro.testing import CrashablePM, CrashPoint, power_fail


def make_store(npages=8, page_size=512):
    pm = PersistentMemory(npages * page_size)
    return pm, PageStore.format(pm, 0, npages, page_size)


def test_format_and_attach():
    pm, store = make_store()
    again = PageStore.attach(pm, 0)
    assert again.npages == store.npages
    assert again.page_size == store.page_size


def test_attach_rejects_unformatted_memory():
    pm = PersistentMemory(4096)
    with pytest.raises(ValueError):
        PageStore.attach(pm, 0)


def test_geometry_validation():
    pm = PersistentMemory(4096)
    with pytest.raises(ValueError):
        PageStore(pm, 0, 4, 100)
    with pytest.raises(ValueError):
        PageStore(pm, 0, 1, 512)


def test_allocate_returns_initialized_page():
    _, store = make_store()
    page = store.allocate_page(PAGE_LEAF)
    assert page.page_type == PAGE_LEAF
    assert page.nrecords == 0


def test_allocate_all_then_exhausted():
    _, store = make_store(npages=4)
    for _ in range(3):
        store.allocate_page(PAGE_LEAF)
    with pytest.raises(OutOfPagesError):
        store.allocate_page(PAGE_LEAF)


def test_free_then_reallocate():
    _, store = make_store(npages=4)
    pages = [store.allocate_page(PAGE_LEAF) for _ in range(3)]
    freed_no = store.page_no_of(pages[1])
    store.free_page(freed_no)
    assert store.free_page_count() == 1
    again = store.allocate_page(PAGE_INTERNAL)
    assert store.page_no_of(again) == freed_no


def test_page_numbers_and_addresses():
    _, store = make_store(page_size=512)
    page = store.allocate_page(PAGE_LEAF)
    no = store.page_no_of(page)
    assert store.page_base(no) == page.base
    assert store.page(no).base == page.base


def test_page_base_bounds():
    _, store = make_store(npages=4)
    with pytest.raises(IndexError):
        store.page_base(0)  # header page is not addressable as data
    with pytest.raises(IndexError):
        store.page_base(4)


def test_roots_are_persistent_and_atomic():
    pm, store = make_store()
    store.set_root(0, 3)
    pm.crash(DropAll())
    assert PageStore.attach(pm, 0).root(0) == 3


def test_root_slot_bounds():
    _, store = make_store()
    with pytest.raises(IndexError):
        store.root(99)
    with pytest.raises(IndexError):
        store.set_root(-1, 1)


def test_free_list_survives_crash():
    pm, store = make_store(npages=6)
    a = store.allocate_page(PAGE_LEAF)
    store.free_page(store.page_no_of(a))
    before = store.free_page_count()
    pm.crash(DropAll())
    after = PageStore.attach(pm, 0).free_page_count()
    assert after == before


def test_garbage_collect_reclaims_orphans():
    pm, store = make_store(npages=6)
    kept = store.allocate_page(PAGE_LEAF)
    orphan = store.allocate_page(PAGE_LEAF)
    del orphan  # crash made it unreachable
    pm.crash()
    store = PageStore.attach(pm, 0)
    reachable = {store.page_no_of(kept)}
    store.garbage_collect(reachable)
    assert store.free_page_count() == store.npages - 2  # header + kept


def test_garbage_collect_keeps_reachable_pages():
    pm, store = make_store(npages=6)
    page = store.allocate_page(PAGE_LEAF)
    page.pending_insert(0, b"precious")
    page.apply_header(page.pending_header_image(), persist=True)
    store.garbage_collect({store.page_no_of(page)})
    assert store.page(store.page_no_of(page)).records() == [b"precious"]


def test_allocation_after_gc_does_not_hand_out_reachable():
    _, store = make_store(npages=5)
    keep = {store.page_no_of(store.allocate_page(PAGE_LEAF))}
    store.garbage_collect(keep)
    handed = set()
    while True:
        try:
            handed.add(store.page_no_of(store.allocate_page(PAGE_LEAF)))
        except OutOfPagesError:
            break
    assert handed.isdisjoint(keep)


def drain(store):
    """Page numbers ``reserve_page_no`` hands out until the store is
    exhausted (at most ``npages``, so a looping list cannot hang)."""
    handed = []
    while len(handed) <= store.npages:
        try:
            handed.append(store.reserve_page_no())
        except OutOfPagesError:
            break
        except IndexError as exc:
            raise AssertionError("a free-list link leaves the arena: %s" % exc)
    return handed


# ----------------------------------------------------------------------
# Format publishes the whole arena as one run link
# ----------------------------------------------------------------------


def format_counts(npages, page_size=64):
    pm = PersistentMemory(npages * page_size)
    PageStore.format(pm, 0, npages, page_size)
    value = pm.obs.registry.value
    return value("pm.store"), value("pm.flush"), value("pm.fence")


def test_format_costs_the_same_whatever_the_arena_size():
    small = format_counts(8)
    assert small == format_counts(512) == format_counts(65536)
    assert small[2] == 1


def test_fresh_store_hands_out_its_pages_in_order_without_reading_them():
    pm, store = make_store(npages=8)
    assert store.free_head == RUN | 1
    assert store.free_pages() == list(range(1, 8))
    loads = pm.obs.registry.value("pm.load")
    handed = [store.page_no_of(store.allocate_page(PAGE_LEAF))
              for _ in range(7)]
    assert handed == list(range(1, 8))
    # One head read per pop; no page's link word.
    assert pm.obs.registry.value("pm.load") - loads == 7
    with pytest.raises(OutOfPagesError):
        store.allocate_page(PAGE_LEAF)


@pytest.mark.parametrize("crash", [False, True])
def test_attach_after_format_sees_the_same_free_list(crash):
    pm, store = make_store(npages=16)
    if crash:
        pm.crash(DropAll())
    again = PageStore.attach(pm, 0)
    assert again.free_pages() == store.free_pages() == list(range(1, 16))
    assert again.free_page_count() == 15
    assert drain(again) == list(range(1, 16))


def test_geometry_leaves_the_run_bit_clear():
    with pytest.raises(ValueError):
        PageStore(PersistentMemory(4096), 0, RUN, 512)


# ----------------------------------------------------------------------
# Run links: every free page above the high-water mark is one link
# ----------------------------------------------------------------------


def full_relink_gc(store, reachable, protected=frozenset()):
    """The garbage collector before run links: every free page of the
    arena relinked in descending order, each link persisted, then the
    head published."""
    freed = head = 0
    for page_no in range(store.npages - 1, 0, -1):
        if page_no in reachable or page_no in protected:
            continue
        store._link_free(page_no, head)
        head = page_no
        freed += 1
    store.pm.write_u32(store.base + _OFF_FREE_HEAD, head)
    store.pm.persist(store.base + _OFF_FREE_HEAD, 4)
    return freed


def random_history(store, rng, steps):
    """Seeded allocations and frees; returns the pages still held."""
    held = []
    for _ in range(steps):
        if held and rng.random() < 0.4:
            store.free_page(held.pop(rng.randrange(len(held))))
        else:
            try:
                held.append(store.reserve_page_no())
            except OutOfPagesError:
                pass
    return held


@pytest.mark.parametrize("seed", range(40))
def test_gc_hands_out_what_a_full_relink_would(seed):
    rng = random.Random(seed)
    npages = rng.randint(2, 48)
    steps = rng.randint(0, 3 * npages)
    stores = [make_store(npages)[1] for _ in range(2)]
    held = [random_history(store, random.Random(seed), steps)
            for store in stores]
    assert held[0] == held[1]
    pages = range(1, npages)
    reachable = set(rng.sample(held[0], rng.randint(0, len(held[0]))))
    protected = set(rng.sample(pages, rng.randint(0, min(3, npages - 1))))
    if rng.random() < 0.2:
        reachable.add(npages - 1)       # no run at all
    new, old = stores
    assert new.garbage_collect(reachable, protected=protected) == \
        full_relink_gc(old, reachable, protected)
    assert new.free_page_count() == old.free_page_count()
    assert new.free_pages() == old.free_pages()
    # The same frees and allocations afterwards hand out the same pages.
    after = [random_history(store, random.Random(seed + 1000), steps)
             for store in stores]
    assert after[0] == after[1]
    assert drain(new) == drain(old)


def test_gc_publishes_a_run_head_when_no_page_is_free_below_it():
    _, store = make_store(npages=8)
    assert store.garbage_collect({1, 2}) == 5
    assert store.free_head == RUN | 3
    assert store.free_pages() == [3, 4, 5, 6, 7]
    assert store.garbage_collect(set()) == 7
    assert store.free_head == RUN | 1


def test_run_exhausts_exactly_at_npages():
    pm, store = make_store(npages=6)
    store.garbage_collect({1})
    counts = []
    for expected in (2, 3, 4, 5):
        counts.append(store.free_page_count())
        assert store.allocate_page(PAGE_LEAF).base == store.page_base(expected)
    assert store.free_head == 0
    assert counts == [4, 3, 2, 1] and store.free_page_count() == 0
    with pytest.raises(OutOfPagesError):
        store.reserve_page_no()
    pm.crash(DropAll())
    assert PageStore.attach(pm, 0).free_pages() == []


def test_free_page_onto_a_tagged_head():
    pm, store = make_store(npages=8)
    store.garbage_collect({1, 3})
    assert store.free_pages() == [2, 4, 5, 6, 7]
    store.free_page(3)
    store.reserve_page_no()                 # 3 again
    assert store.free_head == 2
    assert store.reserve_page_no() == 2
    assert store.free_head == RUN | 4
    store.free_page(1)
    assert store.free_pages() == [1, 4, 5, 6, 7]
    pm.crash(DropAll())
    assert drain(PageStore.attach(pm, 0)) == [1, 4, 5, 6, 7]


def small_config(scheme, **overrides):
    return SystemConfig(
        scheme=scheme, npages=64, page_size=512, log_bytes=16384,
        heap_bytes=1 << 20, dram_bytes=64 * 512, **overrides,
    )


def test_nvwal_reserves_from_the_run():
    config = small_config("nvwal")
    engine = open_engine(config)
    model = {b"k%03d" % i: b"v" * 40 for i in range(30)}
    for key, val in model.items():
        engine.insert(key, val)
    engine.pm.crash(DropAll())
    engine = engine_class("nvwal").attach(config, engine.pm)
    store = engine.store
    assert store.free_head & RUN
    run = store.free_pages()
    assert run == list(range(run[0], config.npages))
    more = {b"m%03d" % i: b"w" * 40 for i in range(30)}
    for key, val in more.items():
        engine.insert(key, val)
    model.update(more)
    used = len(run) - store.free_page_count()
    assert used >= 2
    assert set(run[:used]) <= engine.reachable_pages()
    engine.checkpoint()
    engine.pm.crash(DropAll())
    engine = engine_class("nvwal").attach(config, engine.pm)
    assert dict(engine.scan()) == model
    assert engine.verify() == len(model)


def test_live_gc_keeps_an_uncommitted_page_above_the_tree_out_of_the_run():
    engine = open_engine(small_config("fast"))
    for i in range(20):
        engine.insert(b"seed%03d" % i, b"x" * 40)
    session = engine.session()
    txn = session.transaction()
    for i in range(8):                      # right-edge splits: fresh pages
        txn.insert(b"zbulk%03d" % i, b"y" * 48)
    owned = txn.ctx.uncommitted_pages()
    reachable = engine.reachable_pages()
    assert max(owned - reachable) > max(reachable)
    engine.garbage_collect()
    free = set(engine.store.free_pages())
    assert not free & (owned | reachable)
    txn.commit()
    session.close()
    assert engine.verify() == 28
    handed = drain(engine.store)
    assert not set(handed) & engine.reachable_pages()
    assert len(handed) == len(set(handed))
    assert set(handed) | engine.reachable_pages() == set(range(1, 64))


# ----------------------------------------------------------------------
# Crash at every event of the GC itself
# ----------------------------------------------------------------------


def gc_crash_arena(budget, policy):
    """An arena whose free list holds ``free_page``d pages below and
    above the GC's high-water mark, crashed after ``budget`` events of
    ``store.garbage_collect`` (None: it completes).  Returns the engine
    attached with lazy recovery (the durable list is trusted), the
    reachable and protected sets the GC was given, and the GC's event
    count."""
    config = small_config("fast", eager_recovery_gc=False)
    pm = CrashablePM.for_config(config)
    engine = engine_class("fast").create(config, pm=pm)
    store = engine.store
    for i in range(4):
        engine.insert(b"a%03d" % i, b"x" * 40)
    low = [store.page_no_of(store.allocate_page(PAGE_LEAF)) for _ in range(5)]
    for i in range(40):                     # the tree grows above them
        engine.insert(b"b%03d" % i, b"x" * 40)
    reachable = engine.reachable_pages()
    spare = sorted(p for p in drain(store) if p > max(reachable))
    protected, high = {spare[0]}, spare[1:4]
    assert max(low) < max(reachable) < min(high)
    for page_no in (low[0], high[0], low[2], high[1], low[4], high[2]):
        store.free_page(page_no)            # everything else stays leaked
    pm.arm(() if budget is None else {budget}, power_fail)
    try:
        store.garbage_collect(reachable, protected=protected)
    except CrashPoint:
        pass
    finally:
        pm.armed = False
    events = pm.events
    pm.crash(policy)
    return engine_class("fast").attach(config, pm), reachable, protected, events


def test_crash_inside_gc_never_hands_a_page_out_twice():
    *_, total = gc_crash_arena(None, PersistAll())
    assert total > 20
    for budget in [*range(1, total + 1), None]:
        for policy in (DropAll(), PersistAll(),
                       RandomPersist(rng=random.Random(budget or 0))):
            engine, reachable, protected, _ = gc_crash_arena(budget, policy)
            assert engine.reachable_pages() == reachable
            handed = drain(engine.store)
            where = (budget, type(policy).__name__)
            assert len(handed) == len(set(handed)), where
            assert not set(handed) & (reachable | protected), where
    # Completed, the list is exactly the pages the GC was told are free.
    assert set(handed) == (set(range(1, engine.store.npages))
                           - reachable - protected)
