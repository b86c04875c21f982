"""The metrics registry: one namespace for every counter in the system.

Every layer counts into one ``MetricsRegistry`` (reached as
``pm.obs.registry`` / ``engine.registry``), built from three
primitives:

``Counter``
    A monotonically increasing event count (``pm.flush``, ``rtm.abort``).
``Gauge``
    A point-in-time value that moves both ways (``wal.bytes_used``).
``Histogram``
    A distribution of simulated-nanosecond durations in log2 buckets
    (``phase.commit``).  Every ``SimClock`` segment feeds one of these,
    so the paper's phase breakdown figures read straight out of the
    registry.

Names are dotted paths; the taxonomy is documented in DESIGN.md
("Observability").  All iteration orders are sorted so that exports and
snapshots are deterministic — a hard requirement of the reproduction
(no host-clock or hash-order dependence).
"""

import json


class Counter:
    """A named monotonic event counter."""

    __slots__ = ("name", "value")

    def __init__(self, name, value=0):
        self.name = name
        self.value = value

    def inc(self, n=1):
        self.value += n

    def __repr__(self):
        return "Counter(%r, %r)" % (self.name, self.value)


class CounterHandle:
    """A counter bound by name before its first count.

    A hot path binds its counters once (``registry.counter_handle``)
    and counts with ``handle.inc()``: one call, no name lookup per
    event.  The counter joins the registry at the first ``inc``, when
    ``registry.inc(name)`` would have created it, so a snapshot lists
    exactly the counters it would list without the binding.
    """

    __slots__ = ("_registry", "name", "_counter")

    def __init__(self, registry, name):
        self._registry = registry
        self.name = name
        self._counter = registry._counters.get(name)

    def inc(self, n=1):
        counter = self._counter
        if counter is None:
            counter = self._counter = self._registry.counter(self.name)
        counter.value += n


class Gauge:
    """A named point-in-time value."""

    __slots__ = ("name", "value")

    def __init__(self, name, value=0):
        self.name = name
        self.value = value

    def add(self, n):
        self.value += n

    def __repr__(self):
        return "Gauge(%r, %r)" % (self.name, self.value)


class Histogram:
    """A distribution of simulated-ns values in log2 buckets.

    ``record(v)`` files ``v`` under the bucket whose upper bound is the
    smallest power of two >= v (bucket 0 holds v <= 1 ns).  Count, sum,
    min and max are exact; the buckets give the shape.
    """

    __slots__ = ("name", "count", "sum", "min", "max", "buckets")

    def __init__(self, name):
        self.name = name
        self.count = 0
        self.sum = 0.0
        self.min = None
        self.max = None
        self.buckets = {}  # log2 upper-bound exponent -> count

    def record(self, value):
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        exponent = int(value - 1).bit_length() if value > 1 else 0
        buckets = self.buckets
        try:
            buckets[exponent] += 1
        except KeyError:
            buckets[exponent] = 1

    def zero(self):
        """Reset all observations in place (identity is preserved, so
        cached handles held by observers stay live)."""
        self.count = 0
        self.sum = 0.0
        self.min = None
        self.max = None
        self.buckets.clear()

    @property
    def mean(self):
        return self.sum / self.count if self.count else 0.0

    def as_dict(self):
        return {
            "count": self.count,
            "sum_ns": self.sum,
            "min_ns": self.min,
            "max_ns": self.max,
            "mean_ns": self.mean,
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
        }

    def __repr__(self):
        return "Histogram(%r, count=%d, sum=%.1f)" % (
            self.name, self.count, self.sum,
        )


class MetricsRegistry:
    """Named counters, gauges and sim-ns histograms.

    Instruments are created on first use, so call sites never need
    registration boilerplate::

        registry.inc("pm.flush")
        registry.observe("phase.commit", 840.0)
        registry.set_gauge("wal.bytes_used", 4096)
    """

    def __init__(self):
        self._counters = {}
        self._gauges = {}
        self._histograms = {}

    # -- instrument accessors (create on demand) -------------------------

    def counter(self, name):
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def counter_handle(self, name):
        """A :class:`CounterHandle` on ``name`` (registered at its
        first count, not here)."""
        return CounterHandle(self, name)

    def gauge(self, name):
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def histogram(self, name):
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name)
        return histogram

    # -- convenience mutators --------------------------------------------

    def inc(self, name, n=1):
        self.counter(name).value += n

    def set_gauge(self, name, value):
        self.gauge(name).value = value

    def observe(self, name, value):
        self.histogram(name).record(value)

    # -- reading ----------------------------------------------------------

    def value(self, name, default=0):
        """Current value of counter (or gauge) ``name``."""
        counter = self._counters.get(name)
        if counter is not None:
            return counter.value
        gauge = self._gauges.get(name)
        if gauge is not None:
            return gauge.value
        return default

    def counters(self, prefix=""):
        """``{name: value}`` of every counter under ``prefix``."""
        return {
            name: c.value
            for name, c in sorted(self._counters.items())
            if name.startswith(prefix)
        }

    def gauges(self, prefix=""):
        return {
            name: g.value
            for name, g in sorted(self._gauges.items())
            if name.startswith(prefix)
        }

    def histograms(self, prefix=""):
        return {
            name: h.as_dict()
            for name, h in sorted(self._histograms.items())
            if name.startswith(prefix)
        }

    # -- snapshots ---------------------------------------------------------

    def snapshot(self):
        """A deep, plain-data copy of every instrument (JSON-ready)."""
        return {
            "counters": self.counters(),
            "gauges": self.gauges(),
            "histograms": self.histograms(),
        }

    def since(self, snapshot):
        """Deltas accumulated since ``snapshot`` (from :meth:`snapshot`).

        Counters and histogram count/sum difference; gauges report their
        *current* value (a gauge has no meaningful delta).  Instruments
        with a zero delta are omitted.
        """
        counters = {}
        then = snapshot.get("counters", {})
        for name, value in self.counters().items():
            delta = value - then.get(name, 0)
            if delta:
                counters[name] = delta
        histograms = {}
        then_h = snapshot.get("histograms", {})
        for name, hist in sorted(self._histograms.items()):
            before = then_h.get(name, {})
            count = hist.count - before.get("count", 0)
            total = hist.sum - before.get("sum_ns", 0.0)
            if count or total:
                histograms[name] = {"count": count, "sum_ns": total}
        return {
            "counters": counters,
            "gauges": self.gauges(),
            "histograms": histograms,
        }

    def reset(self):
        """Zero every instrument in place (identities are preserved, so
        cached ``Counter`` references held by hot paths stay valid)."""
        for counter in self._counters.values():
            counter.value = 0
        for gauge in self._gauges.values():
            gauge.value = 0
        for histogram in self._histograms.values():
            histogram.zero()

    # -- export ------------------------------------------------------------

    def export_json(self, path):
        """Write the snapshot as JSON; returns the snapshot dict."""
        snapshot = self.snapshot()
        with open(path, "w") as fh:
            json.dump(snapshot, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return snapshot

    def export_csv(self, path):
        """Write counters + gauges + histogram summaries as CSV rows
        ``kind,name,field,value`` (one flat, diff-friendly table)."""
        lines = ["kind,name,field,value"]
        for name, value in self.counters().items():
            lines.append("counter,%s,value,%s" % (name, value))
        for name, value in self.gauges().items():
            lines.append("gauge,%s,value,%s" % (name, value))
        for name, hist in self.histograms().items():
            for fld in ("count", "sum_ns", "min_ns", "max_ns", "mean_ns"):
                lines.append("histogram,%s,%s,%s" % (name, fld, hist[fld]))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
