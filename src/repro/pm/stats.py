"""Operation counters for the simulated memory hierarchy.

The paper reports structural metrics alongside times — most prominently
the number of cache-line flush instructions per insertion (Figure 9b).
Counting now lives in the shared :class:`repro.obs.MetricsRegistry`;
``MemoryStats`` remains as a thin view over it so the historical field
names (``stats.clflushes``, ``stats.rtm_commits``, ...) keep working
for tests, examples and reports.
"""

from repro.obs.registry import MetricsRegistry

#: Legacy attribute name -> registry counter name.
_LEGACY_FIELDS = {
    "loads": "pm.load",
    "load_misses": "pm.load_miss",
    "stores": "pm.store",
    "bytes_stored": "pm.store_bytes",
    "clflushes": "pm.flush",
    "bytes_flushed": "pm.flush_bytes",
    "fences": "pm.fence",
    "dram_loads": "dram.load",
    "dram_load_misses": "dram.load_miss",
    "dram_stores": "dram.store",
    "dram_bytes_stored": "dram.store_bytes",
    "rtm_begins": "rtm.begin",
    "rtm_commits": "rtm.commit",
    "rtm_aborts": "rtm.abort",
    "pm_allocs": "pm.alloc",
    "pm_frees": "pm.free",
}


class LegacyCounters:
    """Legacy-named view over registry counters: reading a field of
    ``FIELDS`` (legacy name -> counter name) returns the counter's live
    value, and assignment and ``+=`` write through."""

    __slots__ = ("registry",)
    FIELDS = {}

    def __init__(self, registry=None, **initial):
        object.__setattr__(
            self, "registry", registry if registry is not None else MetricsRegistry()
        )
        for field, value in initial.items():
            setattr(self, field, value)

    def _metric(self, name):
        try:
            return self.FIELDS[name]
        except KeyError:
            raise AttributeError(
                "%r has no attribute %r" % (type(self).__name__, name)
            ) from None

    def __getattr__(self, name):
        return self.registry.value(self._metric(name))

    def __setattr__(self, name, value):
        self.registry.counter(self._metric(name)).value = value


class MemoryStats(LegacyCounters):
    """Legacy-named view over a registry's memory-hierarchy counters.

    Reading ``stats.clflushes`` returns the live value of the registry
    counter ``pm.flush``; assignment and ``+=`` write through.  Every
    instance owns (or shares) a :class:`MetricsRegistry`, so arithmetic
    helpers (``snapshot``/``since``/``__add__``) hand back independent
    ``MemoryStats`` objects exactly as the old dataclass did.
    """

    __slots__ = ()
    FIELDS = _LEGACY_FIELDS

    def snapshot(self):
        """An independent copy of the current counter values."""
        return MemoryStats(**self.as_dict())

    def since(self, snapshot):
        """Counter deltas accumulated since ``snapshot`` was taken."""
        return MemoryStats(
            **{
                field: getattr(self, field) - getattr(snapshot, field)
                for field in _LEGACY_FIELDS
            }
        )

    def reset(self):
        """Zero every memory-hierarchy counter in place."""
        for metric in _LEGACY_FIELDS.values():
            self.registry.counter(metric).value = 0

    def as_dict(self):
        """Counters as a plain ``dict`` (for reports and extra_info)."""
        return {field: getattr(self, field) for field in _LEGACY_FIELDS}

    def __add__(self, other):
        return MemoryStats(
            **{
                field: getattr(self, field) + getattr(other, field)
                for field in _LEGACY_FIELDS
            }
        )

    def __repr__(self):
        populated = {k: v for k, v in self.as_dict().items() if v}
        return "MemoryStats(%s)" % ", ".join(
            "%s=%d" % item for item in sorted(populated.items())
        )
