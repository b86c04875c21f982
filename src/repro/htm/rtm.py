"""Restricted Transactional Memory (XBEGIN / XEND / XABORT) emulation.

Usage mirrors the paper's in-place commit::

    rtm = RTM(pm)

    def update_header(txn):
        txn.write_u16(header_addr, nrecords + 1)
        txn.write_u16(header_addr + 2, new_offset)

    rtm.execute(update_header)          # retry-until-success fallback
    pm.persist(header_addr, CACHE_LINE)  # durability AFTER the region

Stores issued through the transaction handle are buffered; they reach
the (volatile) cache only when the transaction commits, and they do so
atomically.  ``clflush`` inside the region raises — on hardware it
would abort the transaction (paper footnote 2): RTM provides atomicity
and consistency, while durability comes from flushing *after* ``XEND``.
"""

from repro.obs import trace as ev
from repro.pm.memory import CACHE_LINE


class RTMAbort(Exception):
    """A hardware transaction aborted.

    ``reason`` is one of ``"capacity"`` (write set exceeded the
    hardware limit), ``"explicit"`` (XABORT), or ``"transient"``
    (injected best-effort abort: conflict, interrupt, ...).
    """

    def __init__(self, reason):
        super().__init__(reason)
        self.reason = reason


class _Transaction:
    """The handle passed to the transaction body; buffers all stores."""

    def __init__(self, pm, max_write_lines):
        self._pm = pm
        self._max_write_lines = max_write_lines
        self._writes = []
        self._lines = set()

    def write(self, addr, data):
        """Transactional store; joins the write set."""
        first = addr // CACHE_LINE
        last = (addr + len(data) - 1) // CACHE_LINE
        self._lines.update(range(first, last + 1))
        if len(self._lines) > self._max_write_lines:
            raise RTMAbort("capacity")
        self._writes.append((addr, bytes(data)))

    def write_u16(self, addr, value):
        self.write(addr, value.to_bytes(2, "little"))

    def write_u64(self, addr, value):
        self.write(addr, value.to_bytes(8, "little"))

    def read(self, addr, length):
        """Transactional load with read-your-writes semantics."""
        data = bytearray(self._pm.read(addr, length))
        for waddr, wdata in self._writes:
            lo = max(addr, waddr)
            hi = min(addr + length, waddr + len(wdata))
            if lo < hi:
                data[lo - addr : hi - addr] = wdata[lo - waddr : hi - waddr]
        return bytes(data)

    def read_u16(self, addr):
        return int.from_bytes(self.read(addr, 2), "little")

    def abort(self):
        """XABORT: explicitly abort the transaction."""
        raise RTMAbort("explicit")

    def _apply(self):
        for addr, data in self._writes:
            self._pm.write(addr, data)


class RTM:
    """A best-effort RTM unit bound to one ``PersistentMemory``.

    Args:
        pm: the memory the transactions operate on.
        max_write_lines: hardware write-set limit in cache lines.  The
            paper restricts the working set to a single line so the
            committed line can be flushed failure-atomically.
        abort_injector: optional ``callable(attempt) -> bool`` returning
            True to force a transient abort on that attempt — used to
            exercise the fallback path the paper requires.
    """

    def __init__(self, pm, *, max_write_lines=1, abort_injector=None):
        self.pm = pm
        self.max_write_lines = max_write_lines
        self.abort_injector = abort_injector
        # Counter handles, bound once for the per-attempt path.
        counter = pm.obs.registry.counter
        self._c_begin = counter("rtm.begin")
        self._c_commit = counter("rtm.commit")
        self._c_abort = counter("rtm.abort")
        self._c_abort_capacity = counter("rtm.abort.capacity")
        self._c_fallback = counter("rtm.fallback")

    def execute(self, body, *, max_retries=None, fallback=None):
        """Run ``body(txn)`` under RTM, retrying transient aborts.

        This is the paper's fallback policy: "if an RTM transaction
        fails, our fallback handler retries the RTM transaction until
        it succeeds", with an optional escape hatch ``fallback`` after
        ``max_retries`` (e.g. falling back to slot-header logging).

        Capacity and explicit aborts never retry — they are
        deterministic — and go straight to ``fallback`` (or re-raise).
        Returns the body's return value, or the fallback's.
        """
        attempt = 0
        while True:
            attempt += 1
            try:
                return self._attempt(body, attempt)
            except RTMAbort as abort:
                deterministic = abort.reason in ("capacity", "explicit")
                exhausted = max_retries is not None and attempt > max_retries
                if deterministic or exhausted:
                    if fallback is not None:
                        self._c_fallback.value += 1
                        return fallback()
                    raise

    _ABORT_CODES = {
        "transient": ev.ABORT_TRANSIENT,
        "capacity": ev.ABORT_CAPACITY,
        "explicit": ev.ABORT_EXPLICIT,
    }

    def _attempt(self, body, attempt):
        self._c_begin.value += 1
        self.pm.obs.event(ev.RTM_BEGIN, attempt)
        self.pm.clock.advance(self.pm.cost.rtm_begin_ns)
        txn = _Transaction(self.pm, self.max_write_lines)
        self.pm.flush_forbidden = True
        try:
            if self.abort_injector is not None and self.abort_injector(attempt):
                raise RTMAbort("transient")
            result = body(txn)
        except RTMAbort as abort:
            self._c_abort.value += 1
            if abort.reason == "capacity":
                self._c_abort_capacity.value += 1
            self.pm.obs.event(ev.RTM_ABORT, self._ABORT_CODES[abort.reason])
            self.pm.clock.advance(self.pm.cost.rtm_abort_ns)
            raise
        finally:
            self.pm.flush_forbidden = False
        # XEND: the buffered stores hit the cache atomically.  The
        # attribute below lets crash-injection harnesses treat the
        # apply as a single indivisible event, matching the hardware
        # guarantee (base PersistentMemory ignores it).
        self.pm.rtm_commit_in_progress = True
        try:
            txn._apply()
        finally:
            self.pm.rtm_commit_in_progress = False
        self._c_commit.value += 1
        self.pm.obs.event(ev.RTM_COMMIT, attempt)
        self.pm.clock.advance(self.pm.cost.rtm_commit_ns)
        return result
