"""Simulated nanosecond clock with named measurement segments.

The paper reports times broken down into phases (Search, Page Update,
Commit) and sub-phases (``clflush(record)``, ``update slot header``,
``Log Flush``, ``Checkpointing`` ...).  ``SimClock`` supports this by
letting callers open nested *segments*; every ``advance()`` charges the
elapsed simulated time to the total and to every segment currently open.
"""

class _Segment:
    """Reusable context manager for one segment entry.

    A plain class with ``__slots__`` instead of ``@contextmanager``:
    segment entry/exit is on the per-operation hot path of every
    engine, and the generator-based protocol costs several times more
    per entry.  Entry stamps ``now_ns``; exit adds the entry's
    ``now_ns`` delta to the name's bucket (outermost entry of a name
    only, so re-entrant same-name nesting counts its time once) and
    notifies observers with the same delta.
    """

    __slots__ = ("_clock", "_name", "_entered_ns", "_active", "_outer")

    def __init__(self, clock, name):
        self._clock = clock
        self._name = name
        self._active = False

    def __enter__(self):
        clock = self._clock
        name = self._name
        open_ = clock._open
        if name in open_:
            self._outer = False
        else:
            open_[name] = self
            self._outer = True
        self._entered_ns = clock.now_ns
        self._active = True
        return clock

    def __exit__(self, exc_type, exc, tb):
        self._active = False
        clock = self._clock
        name = self._name
        elapsed = clock.now_ns - self._entered_ns
        if self._outer:
            del clock._open[name]
            if elapsed:
                buckets = clock._buckets
                try:
                    buckets[name] += elapsed
                except KeyError:
                    buckets[name] = elapsed
        observers = clock._observers
        if len(observers) == 1:  # the common case: one metrics registry
            observers[0][0](name, elapsed)
        else:
            for fn, _ in observers:
                fn(name, elapsed)
        return False


class SimClock:
    """Accumulates simulated nanoseconds, attributed to open segments.

    Segments nest: while ``commit`` and ``log_flush`` are both open, an
    ``advance(100)`` adds 100 ns to the total, to ``commit`` and to
    ``log_flush``.  A segment that was never charged has no bucket.  This mirrors how the paper's sub-phase bars sum into
    their parent phase bars.

    A charge is one add to ``now_ns``; nothing else is touched.  A
    segment's bucket receives its entry's ``now_ns`` delta when it
    closes, and the readers (``elapsed``, ``segments``, ``snapshot`` /
    ``since``) add the open portion of every segment still open.
    """

    __slots__ = ("now_ns", "_buckets", "_open", "_observers", "_segments")

    def __init__(self):
        self.now_ns = 0.0
        self._buckets = {}
        self._open = {}  # name -> its outermost open _Segment
        self._observers = []
        self._segments = {}  # name -> reusable _Segment (hot-path cache)

    def advance(self, ns):
        """Advance simulated time by ``ns`` nanoseconds."""
        if ns > 0:
            self.now_ns += ns

    def advance_to(self, target_ns):
        """Advance simulated time to ``target_ns`` if it lies ahead
        (no-op otherwise).  Used by the cooperative scheduler to model
        a session sleeping until a wake-up instant."""
        self.advance(target_ns - self.now_ns)

    def add_observer(self, fn, tag=None):
        """Call ``fn(name, elapsed_ns)`` when a segment closes.

        ``elapsed_ns`` is the total simulated time that passed inside
        the segment entry — including nested segments, matching the
        bucket accounting.  ``tag`` identifies the subscriber (e.g. a
        metrics registry) so callers can attach idempotently; see
        :meth:`observers`.
        """
        self._observers.append((fn, tag))

    def observers(self):
        """The registered ``(fn, tag)`` observer pairs."""
        return tuple(self._observers)

    def segment(self, name):
        """Attribute all time advanced inside the block to ``name``.

        Segment objects are cached per name and reused: entry/exit is
        on every engine's per-operation hot path, and allocating a
        fresh context manager each time costs more than the accounting
        itself.  Re-entrant same-name nesting (not something the
        engines do, but legal) falls back to a fresh object so the
        cached one's entry timestamp is never clobbered.
        """
        segment = self._segments.get(name)
        if segment is None:
            segment = self._segments[name] = _Segment(self, name)
        elif segment._active:
            return _Segment(self, name)
        return segment

    def elapsed(self, name):
        """Total nanoseconds charged to segment ``name`` so far."""
        total = self._buckets.get(name, 0.0)
        segment = self._open.get(name)
        if segment is not None:
            total += self.now_ns - segment._entered_ns
        return total

    def segments(self):
        """A copy of all segment totals (name -> nanoseconds)."""
        buckets = dict(self._buckets)
        now = self.now_ns
        for name, segment in self._open.items():
            open_ns = now - segment._entered_ns
            if open_ns:
                buckets[name] = buckets.get(name, 0.0) + open_ns
        return buckets

    def reset(self):
        """Zero the clock and every segment (open segments stay open,
        and count from here)."""
        self.now_ns = 0.0
        self._buckets.clear()
        for segment in self._open.values():
            segment._entered_ns = 0.0

    def snapshot(self):
        """Capture (now, segments) for later differencing via ``since``."""
        return self.now_ns, self.segments()

    def since(self, snapshot):
        """Return (elapsed_ns, per-segment deltas) since ``snapshot``."""
        then, buckets = snapshot
        deltas = {}
        for name, value in self.segments().items():
            delta = value - buckets.get(name, 0.0)
            if delta:
                deltas[name] = delta
        return self.now_ns - then, deltas

    def __repr__(self):
        return "SimClock(now_ns=%.1f, segments=%d)" % (
            self.now_ns,
            len(self._buckets),
        )
