"""Latency and cost model for the simulated memory hierarchy.

``LatencyProfile`` holds the independent variables the paper sweeps (the
emulated PM read and write latencies, plus the measured DRAM latency of
the testbed).  ``CostModel`` holds the fixed per-operation costs that
turn executed work into simulated nanoseconds.

Calibration
-----------
The ``CostModel`` defaults are calibrated once against the absolute
numbers quoted in the paper's Section 5 and then held fixed for every
experiment:

* local DRAM access latency measured as 120 ns (Section 5, paragraph 2);
* NVWAL differential-logging computation ~= 4 us per commit (Figure 8
  discussion) for a 4 KiB page -> ``diff_byte_ns`` ~= 1.0;
* NVWAL user-level heap management ~= 3 us per commit (Figure 8) with
  roughly two allocations per commit -> ``heap_alloc_ns`` ~= 1400;
* WAL-index construction dominates NVWAL's "Misc" bar (Figure 8).

Everything else (who wins, where crossovers fall) is *produced* by the
algorithms' executed instruction mix, not tuned.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class LatencyProfile:
    """The memory latencies the paper treats as independent variables.

    Attributes:
        read_ns: emulated PM read latency (Quartz knob; paper sweeps
            120-1200 ns).
        write_ns: emulated PM write latency, injected as an additional
            delay after each ``clflush`` exactly as the paper does
            ("we emulate PM write latency by introducing an additional
            delay after each clflush instruction").
        dram_ns: local DRAM access latency (120 ns on the testbed); used
            by the NVWAL volatile buffer cache.
    """

    read_ns: float = 300.0
    write_ns: float = 300.0
    dram_ns: float = 120.0


@dataclass(frozen=True)
class CostModel:
    """Fixed per-operation CPU/cache costs (nanoseconds).

    Attributes:
        cache_hit_ns: load serviced by the simulated CPU cache.
        store_ns: one store instruction (absorbed by the write-combining
            store buffer, hence cheap and latency-independent).
        store_byte_ns: additional per-byte cost of bulk stores (memcpy).
        clflush_ns: base cost of issuing a ``clflush``; the PM
            ``write_ns`` delay is charged on top by the memory model.
        fence_ns: an ``mfence``/``sfence``.
        rtm_begin_ns / rtm_commit_ns / rtm_abort_ns: RTM instruction
            overheads (XBEGIN / XEND / XABORT paths).
        diff_byte_ns: per-byte cost of NVWAL differential-log
            computation (word-compare of old vs new page images).
        heap_alloc_ns / heap_free_ns: bookkeeping cost of the user-level
            persistent heap, excluding the metadata flushes it performs
            (those are charged by the memory model as real flushes).
        wal_index_insert_ns: inserting one frame into NVWAL's volatile
            WAL index ("Misc" in Figure 8).
        branch_ns: generic per-step computation unit used by higher
            layers (e.g. per-record binary-search step).
    """

    cache_hit_ns: float = 4.0
    #: Per-line cost of the 2nd..Nth lines of one sequential read
    #: (hardware prefetch / bandwidth-bound streaming, ~1 GB/s PM).
    stream_line_ns: float = 60.0
    dram_stream_line_ns: float = 10.0
    store_ns: float = 1.0
    store_byte_ns: float = 0.06
    clflush_ns: float = 40.0
    fence_ns: float = 25.0
    rtm_begin_ns: float = 45.0
    rtm_commit_ns: float = 35.0
    rtm_abort_ns: float = 150.0
    diff_byte_ns: float = 0.95
    heap_alloc_ns: float = 1400.0
    heap_free_ns: float = 600.0
    wal_index_insert_ns: float = 800.0
    #: Fixed commit-path bookkeeping every scheme pays (SQLite's pager
    #: state machine, transaction bookkeeping — the shared part of the
    #: paper's "Misc" bar).
    pager_commit_ns: float = 600.0
    branch_ns: float = 6.0

    def dram_tier_line_ns(self, latency, *, streamed=False):
        """Per-line cost of a DRAM-tier load miss.

        The one attribution point for every DRAM tier in the system —
        NVWAL's volatile buffer cache and the tiered page cache both
        charge their residency misses through here, so fig8-style
        breakdowns stay comparable across schemes: the first missing
        line of a read costs ``latency.dram_ns``; subsequent lines of
        the same sequential read stream at ``dram_stream_line_ns``.
        """
        return self.dram_stream_line_ns if streamed else latency.dram_ns
