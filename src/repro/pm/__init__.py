"""Persistent-memory substrate.

This package emulates the hardware the paper depends on (a Quartz-style
persistent-memory latency emulator, a write-back CPU cache with explicit
``clflush``/``mfence`` persistence, failure-atomic 8-byte or cache-line
writes, and a user-level persistent heap) entirely in Python.

The central objects are:

``SimClock``
    A simulated nanosecond clock.  Every memory operation charges time to
    the clock, so benchmark results are deterministic functions of the
    executed instruction mix and the configured latency profile — exactly
    the quantity the paper sweeps — rather than of host-machine speed.

``PersistentMemory``
    A byte-addressable persistent arena fronted by a simulated CPU cache.
    Writes land in the (volatile) cache; only ``clflush`` + fence make them
    durable.  ``crash()`` applies a failure model in which any subset of
    unflushed data may or may not have reached the persistence domain,
    torn at the configured atomic-write granularity (8 bytes or one cache
    line).

``VolatileMemory``
    A DRAM arena with the same read/write accounting but whose contents
    vanish entirely on crash (the NVWAL baseline's volatile buffer cache).

``PersistentHeap``
    A pmalloc/pfree allocator over a ``PersistentMemory`` region, used by
    the NVWAL baseline for write-ahead-log frames.
"""

from repro.pm.clock import SimClock
from repro.pm.latency import CostModel, LatencyProfile
from repro.pm.crash import (
    CrashPolicy,
    DropAll,
    PersistAll,
    PersistSubset,
    RandomPersist,
)
from repro.pm.memory import CACHE_LINE, WORD, PersistentMemory, VolatileMemory
from repro.pm.allocator import AllocationError, PersistentHeap

__all__ = [
    "AllocationError",
    "CACHE_LINE",
    "CostModel",
    "CrashPolicy",
    "DropAll",
    "LatencyProfile",
    "PersistAll",
    "PersistSubset",
    "PersistentHeap",
    "PersistentMemory",
    "RandomPersist",
    "SimClock",
    "VolatileMemory",
    "WORD",
]
