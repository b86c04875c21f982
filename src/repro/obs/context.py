"""The ``Observability`` facade: clock + registry + trace in one handle.

One ``Observability`` instance is shared by everything attached to a
simulated machine (the PM arena creates it; engines, logs, the RTM
unit and the DRAM cache all reach it through ``pm.obs``).  It bundles:

* the shared ``SimClock`` (simulated time, phase segments),
* a ``MetricsRegistry`` (every counter/gauge/histogram),
* a ``TraceRecorder`` (the typed event ring).

and provides the ``phase(...)`` / ``span(...)`` context managers that
replace the engines' hand-rolled ``clock.segment(...)`` accounting.
Both charge the simulated clock exactly as before — the figures'
Search / Page Update / Commit semantics are unchanged — and, through a
clock observer registered here, every segment entry additionally
records its duration into the ``phase.<name>`` histogram of the
registry.  ``phase`` is for the paper's top-level bars (search,
page_update, commit); ``span`` is for sub-phases (log_flush,
atomic_commit, ...).  They are deliberately the same mechanism: the
distinction is taxonomy, not plumbing, so sub-phase times keep summing
into their enclosing phase the way the paper's stacked bars do.
"""

from repro.obs.registry import MetricsRegistry
from repro.obs.trace import TraceRecorder

#: Top-level engine phases (the paper's Figure 6 bars).
PHASES = ("search", "page_update", "commit")


class Observability:
    """Shared instrumentation handle for one simulated machine."""

    def __init__(self, clock, *, registry=None, trace=None):
        self.clock = clock
        self.registry = registry if registry is not None else MetricsRegistry()
        self.trace = trace if trace is not None else TraceRecorder()
        self.trace.bind_clock(clock)
        # segment name -> its "phase.<name>" histogram.  Safe to cache:
        # ``MetricsRegistry.reset`` zeroes instruments in place, so the
        # handles stay live (same contract the PM counter handles use).
        self._phase_hists = {}
        self._attach_clock()
        # ``phase(name)`` attributes simulated time inside the block to
        # a top-level phase, ``span(name)`` to a sub-phase (spans nest
        # inside phases, and their time is also charged to every
        # enclosing phase: stacked-bar semantics).  Both are pure
        # taxonomy over ``clock.segment``, bound directly so a segment
        # entry on every engine's per-operation path is one call.
        self.phase = self.span = self.clock.segment

    def _attach_clock(self):
        """Feed every clock segment into ``phase.<name>`` histograms.

        Attaching is idempotent per (clock, registry) pair so that
        shared-clock configurations (NVWAL's DRAM arena, crash-test
        re-attach) never double-count.
        """
        for _, registry in self.clock.observers():
            if registry is self.registry:
                return
        self.clock.add_observer(self._on_segment, self.registry)

    def _on_segment(self, name, elapsed_ns):
        hist = self._phase_hists.get(name)
        if hist is None:
            hist = self._phase_hists[name] = self.registry.histogram(
                "phase." + name
            )
        # ``Histogram.record`` inlined: this runs on every segment exit
        # (a dozen times per engine operation).
        hist.count += 1
        hist.sum += elapsed_ns
        if hist.min is None or elapsed_ns < hist.min:
            hist.min = elapsed_ns
        if hist.max is None or elapsed_ns > hist.max:
            hist.max = elapsed_ns
        exponent = (
            int(elapsed_ns - 1).bit_length() if elapsed_ns > 1 else 0
        )
        buckets = hist.buckets
        try:
            buckets[exponent] += 1
        except KeyError:
            buckets[exponent] = 1

    # -- tracing toggle -----------------------------------------------------

    def tracing(self, enabled=True):
        """Enable or disable event recording (the trace ring).

        ``obs.tracing(False)`` is the no-trace fast mode: hot paths
        guard their ``trace.record`` calls on ``trace.enabled``, so a
        disabled recorder costs one attribute check per event instead
        of a call.  Counters, histograms, and the simulated clock are
        untouched — a ``tracing(False)`` run produces byte-identical
        registry numbers to a traced run; only the event ring (and its
        ``seq``/per-kind totals) is elided.  Returns ``self`` so the
        toggle chains: ``engine.obs.tracing(False).snapshot()``.
        """
        self.trace.enabled = bool(enabled)
        return self

    # -- convenience passthroughs ------------------------------------------

    def inc(self, name, n=1):
        self.registry.inc(name, n)

    def labeled(self, prefix):
        """A thin view of this handle that prefixes counter names with
        ``<prefix>.`` — per-session attribution (``session.s1.commit``)
        without per-session registries, so one snapshot still holds
        everything."""
        return _LabeledObs(self, prefix)

    def event(self, kind, a=0, b=0):
        self.trace.record(kind, a, b)

    # -- snapshots ----------------------------------------------------------

    def snapshot(self):
        """Capture (clock, registry, trace position) for ``since``."""
        return {
            "now_ns": self.clock.now_ns,
            "registry": self.registry.snapshot(),
            "trace_seq": self.trace.seq,
        }

    def since(self, snapshot):
        """Elapsed simulated time and instrument deltas since
        ``snapshot`` was taken."""
        return {
            "elapsed_ns": self.clock.now_ns - snapshot["now_ns"],
            "registry": self.registry.since(snapshot["registry"]),
            "trace_seq": snapshot["trace_seq"],
        }

    def export_json(self, path):
        """Export the full state (registry + trace summary + clock) as
        a JSON snapshot the ``python -m repro.obs`` CLI can render."""
        import json

        snapshot = {
            "now_ns": self.clock.now_ns,
            "registry": self.registry.snapshot(),
            "trace": self.trace.snapshot(),
        }
        with open(path, "w") as fh:
            json.dump(snapshot, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return snapshot


class _LabeledObs:
    """Counter view with a fixed name prefix (see ``Observability.labeled``)."""

    __slots__ = ("_obs", "_prefix")

    def __init__(self, obs, prefix):
        self._obs = obs
        self._prefix = prefix + "."

    def inc(self, name, n=1):
        self._obs.registry.inc(self._prefix + name, n)

    def counter_handle(self, name):
        return self._obs.registry.counter_handle(self._prefix + name)
