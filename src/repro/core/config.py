"""System configuration and arena layout.

One ``SystemConfig`` fully describes a simulated machine + engine: PM
geometry and latencies, the crash model's atomic-write granularity,
page geometry, log/heap sizing, and which commit scheme runs on top.
The benchmark harnesses sweep ``latency`` exactly as the paper sweeps
Quartz.
"""

from dataclasses import dataclass, field

from repro.pm.latency import CostModel, LatencyProfile
from repro.pm.memory import CACHE_LINE

#: Leaf slot-header budget for the in-place commit: one cache line
#: (the paper's 28-record bound comes from (64 - 8) / 2).
FASTPLUS_LEAF_CAPACITY = (CACHE_LINE - 8) // 2


@dataclass(frozen=True)
class SystemConfig:
    """Everything needed to build an engine on a fresh arena.

    Attributes:
        scheme: default engine for ``open_engine`` ("fast", "fastplus",
            "nvwal", "naive").
        page_size: database page size (SQLite default 4096).
        npages: pages in the database arena (page 0 is the header).
        log_bytes: slot-header log region (FAST/FAST⁺).
        heap_bytes: persistent heap for NVWAL's WAL frames.
        dram_bytes: NVWAL's volatile buffer cache size.
        nvwal_checkpoint_bytes: WAL occupancy that triggers NVWAL's
            lazy checkpoint.
        latency / cost: see ``repro.pm.latency``.
        atomic_granularity: 64 (failure-atomic cache-line writes — the
            paper's HTM-era assumption) or 8 (word-atomic only).
        cache_lines: CPU-cache residency model capacity.
        flush_instruction: "clflush" (evicting, the paper's testbed) or
            "clwb" (keeps lines cached; shown in the paper's Figure 3).
    """

    scheme: str = "fastplus"
    page_size: int = 4096
    npages: int = 1024
    log_bytes: int = 64 * 1024
    heap_bytes: int = 4 * 1024 * 1024
    dram_bytes: int = 4 * 1024 * 1024
    nvwal_checkpoint_bytes: int = 2 * 1024 * 1024
    latency: LatencyProfile = field(default_factory=LatencyProfile)
    cost: CostModel = field(default_factory=CostModel)
    atomic_granularity: int = CACHE_LINE
    cache_lines: int = 4096
    flush_instruction: str = "clflush"
    #: Run garbage collection (reclaiming pages leaked by the crash)
    #: eagerly during recovery.  With False, recovery is O(log size) —
    #: replay the committed slot-header frames and go — and leaked
    #: pages wait for an explicit ``engine.garbage_collect()``
    #: (free-list staleness is always corrected lazily on use).
    eager_recovery_gc: bool = True
    #: Shard support: a sharded deployment carves one PM arena into N
    #: per-shard sub-arenas, each described by a copy of this config
    #: with ``base_offset`` pointing at its slice.  The default (0)
    #: keeps every existing single-engine layout byte-identical.
    base_offset: int = 0
    #: Size of the per-shard two-phase-commit prepare region appended
    #: after the heap (0 = absent; only sharded engines allocate one).
    twopc_bytes: int = 0
    #: Group commit (epoch-pipelined durability): committing sessions
    #: stage + flush their frames, then *join* the current epoch
    #: instead of fencing individually; the epoch closes with ONE
    #: sfence and ONE ≤8B group commit mark covering every member.
    #: The value is the member count that forces an epoch close at the
    #: join that reaches it; 0 (the default) is off — byte-identical
    #: to the per-txn commit path.  FAST / FAST⁺ only: the other
    #: schemes raise ``ValueError`` for a value > 0.
    group_commit_size: int = 0
    #: Tiered DRAM page cache (``repro.storage.cache``): committed
    #: reads of read-hot pages are served from clock/second-chance
    #: DRAM copies at ``latency.dram_ns`` instead of ``read_ns``,
    #: invalidated at every committed install point.  0 (the default)
    #: builds no cache at all — byte-identical to pre-cache builds.
    #: FAST / FAST⁺ only, like ``group_commit_size``.
    dram_cache_pages: int = 0

    # ------------------------------------------------------------------
    # Arena layout: [page store | slot-header log | NVWAL heap | 2PC]
    # ------------------------------------------------------------------

    @property
    def store_base(self):
        return self.base_offset

    @property
    def store_bytes(self):
        return self.npages * self.page_size

    @property
    def log_base(self):
        return self.base_offset + self.store_bytes

    @property
    def heap_base(self):
        return self.base_offset + self.store_bytes + self.log_bytes

    @property
    def twopc_base(self):
        return self.heap_base + self.heap_bytes

    @property
    def arena_bytes(self):
        return (
            self.store_bytes + self.log_bytes + self.heap_bytes
            + self.twopc_bytes
        )

