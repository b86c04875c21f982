"""A line that records dirty is flushed once before the next fence, not
once per record (DESIGN.md §7 item 9).

A split copies half a page's cells side by side into a fresh sibling,
and a copy-on-write copies them all: flushing each cell as it is
written flushed every line two cells share twice, with no fence in
between.  These runs read the trace ring of traced single-record
insert and replace transactions — splits and copy-on-write included —
and find no line flushed twice within one fence window.
"""

import pytest

from repro.bench.harness import build_config
from repro.bench.workloads import random_keys, sized_payload
from repro.core import open_engine
from repro.obs import trace as ev

OPS = 200


def _flushed_again(events):
    """``(seq, line)`` of every flush of a line already flushed since
    the last fence."""
    seen, again = set(), []
    for seq, _, kind, addr, _ in events:
        if kind == ev.FENCE:
            seen.clear()
        elif kind in (ev.CLFLUSH, ev.CLWB):
            line = addr >> 6
            if line in seen:
                again.append((seq, line))
            seen.add(line)
    return again


# 1 KiB pages for 64-byte records: FAST⁺'s 28-record leaves then fill
# up by bytes, so replaced records force copy-on-write there too.
@pytest.mark.parametrize("record_size,page_size", [(64, 1024), (1024, 4096)])
@pytest.mark.parametrize("scheme", ["fast", "fastplus", "nvwal"])
def test_no_line_is_flushed_twice_between_fences(scheme, record_size,
                                                 page_size):
    engine = open_engine(
        build_config(scheme, ops=OPS, record_size=record_size,
                     page_size=page_size),
        scheme=scheme,
    )
    keys = random_keys(OPS, seed=7)
    old, new = sized_payload(record_size), sized_payload(record_size, seed=12)
    start = engine.trace.seq
    for key in keys:
        engine.insert(key, old)
    # Replacing every other key leaves dead cells: pages that fill up
    # again are rewritten copy-on-write (FAST, FAST⁺).
    for key in keys[::2]:
        engine.insert(key, new, replace=True)
    assert engine.trace.dropped <= start, "the ring dropped events"
    assert not _flushed_again(engine.trace.events(since_seq=start))

    assert engine.tree().height(engine.read_view()) > 1  # it split
    if scheme != "nvwal":  # NVWAL compacts its DRAM frame in place
        assert engine.registry.histogram("phase.defrag").count > 0
    assert engine.verify() == OPS
