"""Copy-on-write defragmentation (paper Section 4.3).

Failure-atomic slotted paging may never shift committed records within
a page (that would overwrite data a crash might still need), so pages
fragment — and cells made dead by the *current* transaction cannot be
reused in place either.  When compaction would make a record fit, the
page is rewritten copy-on-write: a fresh page is allocated and every
record of the transaction's pending view is copied contiguously.

The fresh page is dual-natured, which is what makes the paper's
*in-place* parent-pointer swap crash-safe:

* its **durable** header lists only the records that were committed in
  the source page — so at any crash instant the fresh page is an exact
  committed-equivalent of the old one, and the parent's child pointer
  may point at either;
* its **pending** overlay carries the transaction's full view
  (including uncommitted inserts), which commits atomically with the
  rest of the transaction through the normal slot-header machinery.
"""

from repro.storage.slotted_page import encode_header


def defragment_into(store, page, *, header_capacity=None):
    """Copy ``page``'s pending-view records contiguously into a fresh
    page and return it.

    The fresh page's durable header is published with the committed
    subset of records; the full view stays pending.  The source page is
    not modified.
    """
    capacity = header_capacity if header_capacity is not None else page.header_capacity
    fresh = store.allocate_page(page.page_type, header_capacity=capacity)
    # A fresh page's flags are 0: the pending header (the one that
    # commits) takes the source's, as the published image below does.
    # This also begins it, so a page emptied by its transaction copies
    # nothing and still commits an empty header.
    fresh.pending_set_flags(page.flags)
    committed = set(page.committed_offsets())
    committed_copies = []
    for slot, src_offset in enumerate(page.slots()):
        dst_offset = fresh.pending_insert(slot, page.read_cell(src_offset))
        if src_offset in committed:
            committed_copies.append(dst_offset)
    # The copies sit side by side from ``content_start`` to the page's
    # end: one flush covers them, each line once, before the header
    # that names the committed ones is published.
    content_start = fresh.content_start
    fresh.pm.flush_range(fresh.base + content_start,
                         fresh.page_size - content_start)
    image = encode_header(
        page.page_type,
        page.flags,
        content_start,              # covers every copied cell
        0,                          # free list rebuilt lazily if needed
        committed_copies,
    )
    fresh.publish_header(image)
    return fresh
