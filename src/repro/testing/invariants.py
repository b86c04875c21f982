"""First bad state: a per-step check of the page-space invariant.

The paper's core rule (Section 3.1) is that record bytes go into a
page's free space and *never overwrite live data*.  A breach shows up
late — a later transaction reuses the space, a still later reader
finds an unsorted leaf — so ``verify()`` at the end of a run names a
victim, not a culprit.  :class:`PageInvariantChecker` looks after
every scheduler step instead and raises at the first step that leaves
a page in a state from which the rule *can* be broken:

* every cell some owner still counts on — live in the page's durable
  header, in the open epoch's overlay, in an open writer's pending
  header, or dead but held for reclamation by an open context or the
  epoch — has a sane cell header;
* no two of those cells overlap;
* no chunk reachable from the page's effective free-list head (the
  open writer's pending head, else the head word in PM once the lazy
  check has validated it since attach) overlaps any of them, leaves
  the page, or loops.

Everything is read host-side (``pm.visible_bytes`` and the engine's
volatile bookkeeping): the check charges no simulated time and touches
no cache residency, so it cannot move the schedule it is checking.
It covers the PM-resident schemes (FAST, FAST⁺); NVWAL's pages live in
DRAM frames that roll back by image, with nothing owned off the page.
"""

from repro.core.fast import FASTContext, FASTEngine
from repro.storage.slotted_page import (
    _MIN_CHUNK,
    _OFF_FREELIST,
    _OFF_NRECORDS,
    CELL_HEADER_SIZE,
    FIXED_HEADER_SIZE,
    PAGE_INTERNAL,
    PAGE_LEAF,
    SLOT_SIZE,
)


class PageInvariantViolation(AssertionError):
    """A step left a page in a state that breaks the free-space rule."""


def _u16(image, offset):
    return int.from_bytes(image[offset:offset + 2], "little")


def _offsets_of(header):
    """Record offsets of a serialised slot header (or of a page image,
    which starts with one)."""
    end = FIXED_HEADER_SIZE + SLOT_SIZE * _u16(header, _OFF_NRECORDS)
    return [_u16(header, at) for at in range(FIXED_HEADER_SIZE, end, SLOT_SIZE)]


class PageInvariantChecker:
    """Checks every allocated leaf/internal page of ``engine`` after
    each step; raises :class:`PageInvariantViolation` at the first bad
    one.

    Callable, for ``Scheduler(on_step=checker)`` (the violation then
    names the client and operation that just ran), and shaped like a
    trace checker (``advance`` / ``close`` / ``finish`` / ``stats``),
    so the harnesses that take a ``checker_factory`` — ``crash_at``
    and ``crash_sweep`` — can arm it as one.
    """

    def __init__(self, engine):
        if not isinstance(engine, FASTEngine):
            raise ValueError(
                "page invariants are checked on PM-resident schemes, not %r"
                % engine.scheme
            )
        self.engine = engine
        self.steps = 0
        self.pages_checked = 0
        # page_no -> what the last check of it saw; an unchanged page
        # (same bytes, same outside claims) is not parsed again.
        self._clean = {}

    # -- harness protocols -------------------------------------------------

    def __call__(self, client=None):
        self.steps += 1
        problems = self.problems()
        if problems:
            where = "step %d" % self.steps
            if client is not None:
                where += " (client %s, item %d)" % (client.name, client.item_idx)
            shown = "; ".join(problems[:4])
            if len(problems) > 4:
                shown += "; and %d more" % (len(problems) - 4)
            raise PageInvariantViolation("after %s: %s" % (where, shown))

    def advance(self):
        self()

    def close(self):
        """Nothing to seal: every step was checked as it ended."""

    def finish(self):
        return []

    @property
    def stats(self):
        return {"steps": self.steps, "pages_checked": self.pages_checked}

    # -- the check ---------------------------------------------------------

    def problems(self):
        """Every broken invariant in the engine's current state."""
        engine = self.engine
        store = engine.store
        claims, pending_heads = self._outside_claims()
        # Free pages keep their old bytes past the link word, so they
        # are skipped by number, not by type byte: the run's pages from
        # ``run.start`` on, the chain's below it.
        chain, run = store.free_list(read_u32=lambda addr: int.from_bytes(
            engine.pm.visible_bytes(addr, 4), "little"))
        found = []
        for page_no in range(1, run.start):
            if page_no in chain:
                continue
            base = store.page_base(page_no)
            image = engine.pm.visible_bytes(base, store.page_size)
            if image[0] not in (PAGE_LEAF, PAGE_INTERNAL):
                continue
            head = pending_heads.get(page_no)
            if head is None and base not in store.freelist_validated:
                head = 0  # torn by a crash until the lazy check rebuilds it
            state = (image, claims.get(page_no), head)
            if self._clean.get(page_no) == state:
                continue
            self.pages_checked += 1
            broken = _page_problems(page_no, *state)
            if broken:
                found.extend(broken)
            else:
                self._clean[page_no] = state
        return found

    def _open_contexts(self):
        engine = self.engine
        contexts = [session.transaction_ctx for session in engine.sessions()]
        if engine._active is not None:
            contexts.append(engine._active.inner_ctx)
        # Snapshot readers and OCC transactions that have not installed
        # yet hold no page state.
        return [ctx for ctx in contexts if isinstance(ctx, FASTContext)]

    def _outside_claims(self):
        """What the owners outside the pages count on: ``page_no ->
        ((owner, offsets), ...)`` and ``page_no -> pending head`` of the
        page's open writer."""
        engine = self.engine
        store = engine.store
        claims = {}
        heads = {}

        def claim(page_no, owner, offsets):
            claims.setdefault(page_no, []).append((owner, tuple(offsets)))

        group = engine.group
        if group is not None:
            for page_no, image in group.pending_headers.items():
                claim(page_no, "epoch overlay", _offsets_of(image))
            for member in group.members:
                for page_no, offset in member.get("reclaims", ()):
                    claim(page_no, "held by epoch", (offset,))
        for ctx in self._open_contexts():
            for page_no in (*ctx.dirty, *ctx.new_pages):
                pending = ctx._pages[page_no]._pending
                if pending is not None:
                    claim(page_no, "pending header", pending.offsets)
                    heads[page_no] = pending.freelist_head
            for page, offset in ctx.reclaims:
                claim(store.page_no_of(page), "held by open context",
                      (offset,))
        return {no: tuple(owned) for no, owned in claims.items()}, heads


def _page_problems(page_no, image, claims, head):
    """Broken invariants of one page image, given the outside claims
    on it and the free-list head to walk: its open writer's pending
    head, None for PM's, or 0 for none — a list not validated since
    attach may be torn by a crash, and the lazy check of paper
    Section 4.3 rebuilds it before anything allocates from it."""
    size = len(image)
    problems = []
    owners = {}
    for offset in _offsets_of(image):
        owners.setdefault(offset, "durable header")
    for owner, offsets in claims or ():
        for offset in offsets:
            owners.setdefault(offset, owner)

    spans = []
    for offset, owner in sorted(owners.items()):
        label = "cell @%d (%s)" % (offset, owner)
        if not FIXED_HEADER_SIZE <= offset <= size - CELL_HEADER_SIZE:
            problems.append("page %d: %s lies outside the page" % (page_no, label))
            continue
        length, allocated = _u16(image, offset), _u16(image, offset + 2)
        if (allocated < CELL_HEADER_SIZE + length or allocated < _MIN_CHUNK
                or offset + allocated > size):
            problems.append(
                "page %d: %s has an insane header (payload %d, allocated %d)"
                % (page_no, label, length, allocated)
            )
            continue
        spans.append((offset, offset + allocated, label))

    if head is None:
        head, source = _u16(image, _OFF_FREELIST), "PM's head"
    else:
        source = "the writer's pending head"
    seen = set()
    while head:
        label = "free chunk @%d (from %s)" % (head, source)
        if head in seen:
            problems.append("page %d: %s closes a loop" % (page_no, label))
            break
        seen.add(head)
        if not FIXED_HEADER_SIZE <= head <= size - _MIN_CHUNK:
            problems.append("page %d: %s lies outside the page" % (page_no, label))
            break
        length = _u16(image, head)
        if length < _MIN_CHUNK or head + length > size:
            problems.append(
                "page %d: %s has an insane size %d" % (page_no, label, length)
            )
            break
        spans.append((head, head + length, label))
        head = _u16(image, head + 2)

    reach, reaching = 0, None
    for start, end, label in sorted(spans):
        if start < reach:
            problems.append(
                "page %d: %s overlaps %s" % (page_no, reaching, label)
            )
        if end > reach:
            reach, reaching = end, label
    return problems
