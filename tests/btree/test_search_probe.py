"""The B-tree's binary searches probe records with the memory's fused
``read_record`` and decode keys inline; they must answer and charge
exactly as the separate loads with ``leaf_key`` / ``parse_internal``
did, on committed pages and on pages with a pending header."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.btree.cells import (
    internal_cell,
    leaf_cell,
    leaf_key,
    overflow_leaf_cell,
    parse_internal,
)
from repro.pm import PersistentMemory
from repro.storage import PAGE_INTERNAL, PAGE_LEAF, SlottedPage
from tests.btree.helpers import naive_tree

PAGE = 4096

_KEYS = st.binary(min_size=0, max_size=12)


def _four_loads(page, slot):
    pm, base = page.pm, page.base
    if not 0 <= slot < pm.read_u16(base + 2):
        raise IndexError("slot %d out of range" % slot)
    offset = pm.read_u16(base + 8 + 2 * slot)
    length = pm.read_u16(base + offset)
    return pm.read(base + offset + 4, length)


def _record(page, slot):
    return page.record(slot) if page.has_pending else _four_loads(page, slot)


def _reference_leaf_search(page, key):
    lo, hi = 0, page.nrecords
    while lo < hi:
        mid = (lo + hi) // 2
        mid_key = leaf_key(_record(page, mid))
        if mid_key < key:
            lo = mid + 1
        elif mid_key > key:
            hi = mid
        else:
            return True, mid
    return False, lo


def _reference_child_slot(page, key):
    lo, hi = 0, page.nrecords - 1
    while lo < hi:
        mid = (lo + hi) // 2
        sep, _ = parse_internal(_record(page, mid))
        if sep is not None and sep < key:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _twins(page_type, payloads, pending):
    pages = []
    for _ in range(2):
        pm = PersistentMemory(2 * PAGE, cache_lines=4)
        page = SlottedPage.initialize(pm, PAGE, PAGE, page_type)
        for slot, payload in enumerate(payloads):
            page.pending_insert(slot, payload)
        if not pending and page.has_pending:
            page.apply_header(page.pending_header_image(), persist=True)
        pages.append(page)
    return pages


def _same_state(a, b):
    assert a.pm.clock.now_ns.hex() == b.pm.clock.now_ns.hex()
    assert list(a.pm._rlines) == list(b.pm._rlines)
    assert a.pm.obs.registry.counters() == b.pm.obs.registry.counters()


_LEAF_CELLS = st.lists(
    st.one_of(
        st.tuples(_KEYS, st.binary(max_size=40)).map(lambda kv: leaf_cell(*kv)),
        st.tuples(_KEYS, st.binary(max_size=8)).map(
            lambda kv: overflow_leaf_cell(kv[0], kv[1], 5000, 7)),
        st.binary(max_size=1),  # too short to hold a key length
    ),
    max_size=20,
)


@settings(max_examples=80, deadline=None)
@given(cells=_LEAF_CELLS, keys=st.lists(_KEYS, min_size=1, max_size=6),
       pending=st.booleans())
def test_leaf_search_matches_separate_loads(cells, keys, pending):
    cells.sort(key=leaf_key)
    _, _, tree = naive_tree(16, 512, None)
    fused, reference = _twins(PAGE_LEAF, cells, pending)
    for key in keys:
        assert (tree._leaf_search(fused, key)
                == _reference_leaf_search(reference, key))
        _same_state(fused, reference)


_INTERNAL_CELLS = st.lists(
    st.one_of(
        st.tuples(_KEYS, st.integers(1, 1000)).map(
            lambda kc: internal_cell(*kc)),
        # A rightmost-sentinel length away from the last slot.
        st.integers(1, 1000).map(lambda child: internal_cell(None, child)),
        st.binary(max_size=5),  # too short to hold a key length
    ),
    max_size=20,
)


@settings(max_examples=80, deadline=None)
@given(cells=_INTERNAL_CELLS, keys=st.lists(_KEYS, min_size=1, max_size=6),
       pending=st.booleans())
def test_child_slot_matches_separate_loads(cells, keys, pending):
    cells.sort(key=lambda payload: payload[6:])
    cells.append(internal_cell(None, 3))  # the rightmost catch-all
    _, _, tree = naive_tree(16, 512, None)
    fused, reference = _twins(PAGE_INTERNAL, cells, pending)
    for key in keys:
        assert (tree._child_slot(fused, key)
                == _reference_child_slot(reference, key))
        _same_state(fused, reference)
