"""Overflow-page chains for large values (SQLite-style spilling).

A value too large for its leaf page keeps a local prefix in the leaf
cell and spills the tail to a chain of overflow pages.  An overflow
page reuses the slotted page's 8-byte fixed header (so its type byte
says ``PAGE_OVERFLOW`` and garbage collection recognises it) followed
by::

    +8   u32  next overflow page (0 = end of chain)
    +12  u16  data length in this page
    +14  u16  reserved
    +16  data ...

Crash safety follows the paper's free-space argument: overflow pages
are freshly allocated, written and flushed *before* the transaction's
commit mark, and are unreachable until the leaf cell referencing them
commits — a crash leaves only collectable orphans.  Chains are
immutable once written; deleting or replacing the record frees them
after commit.
"""

from repro.storage.slotted_page import PAGE_OVERFLOW

_OFF_NEXT = 8
_OFF_LEN = 12
_OFF_DATA = 16


def page_capacity(page_size):
    """Value bytes one overflow page holds."""
    return page_size - _OFF_DATA


def max_local_payload(page_size):
    """Largest leaf-cell payload stored fully inline.

    Like SQLite's table B-trees, spilling starts only when the cell
    would (nearly) monopolise the page — smaller records stay inline
    even if that means few records per leaf, because a tiny spilled
    tail would waste an almost-empty overflow page.
    """
    return max(64, page_size - 128)


def local_payload_after_spill(page_size):
    """Inline payload kept when a record does spill (~a quarter page,
    so the leaf still holds several cells and chain pages run full)."""
    return max(64, page_size // 4)


def write_chain(ctx, tail):
    """Spill ``tail`` into a fresh overflow chain; returns the head
    page number.  Pages are written and flushed immediately (they must
    be durable before the commit mark that publishes the leaf cell)."""
    assert tail, "never spill an empty tail"
    ctx.store.latch_overflow()
    head_no = 0
    previous = None
    offset = 0
    while offset < len(tail):
        page_no, page = ctx.allocate_page(PAGE_OVERFLOW)
        chunk = tail[offset : offset + page_capacity(page.page_size)]
        pm = page.pm
        pm.write_u32(page.base + _OFF_NEXT, 0)
        pm.write_u16(page.base + _OFF_LEN, len(chunk))
        pm.write(page.base + _OFF_DATA, chunk)
        pm.flush_range(page.base + _OFF_NEXT, _OFF_DATA - _OFF_NEXT + len(chunk))
        if previous is None:
            head_no = page_no
        else:
            previous.pm.write_u32(previous.base + _OFF_NEXT, page_no)
            previous.pm.flush_range(previous.base + _OFF_NEXT, 4)
        previous = page
        offset += len(chunk)
    return head_no


def read_chain(view, head_no):
    """Reassemble a chain's value tail."""
    out = bytearray()
    page_no = head_no
    while page_no:
        page = view.page(page_no)
        pm = page.pm
        length = pm.read_u16(page.base + _OFF_LEN)
        out += pm.read(page.base + _OFF_DATA, length)
        page_no = pm.read_u32(page.base + _OFF_NEXT)
    return bytes(out)


def chain_page_nos(view, head_no):
    """Page numbers of a chain, head first."""
    pages = []
    page_no = head_no
    while page_no:
        pages.append(page_no)
        page = view.page(page_no)
        page_no = page.pm.read_u32(page.base + _OFF_NEXT)
    return pages

