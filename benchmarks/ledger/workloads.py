"""Inputs of the performance ledger: cells, seeded generators, sizing.

Everything a run feeds the engine is made here from ``--seed`` — the
generators are ported from ``repro.bench.multiclient`` /
``repro.bench.workloads`` / ``repro.bench.harness`` on purpose, so a
later edit under ``src/repro/bench`` cannot change what the ledger
measures.  The program under test receives only the generated items.
"""

import random
from dataclasses import dataclass, replace
from zlib import crc32

SCHEMES = ("nvwal", "fast", "fastplus")

#: Record sizes: the insert loop keeps bench_selfperf's 64 B payload,
#: the scheduled cells keep bench_multiclient's 48 B.
INSERT_RECORD = 64
CLIENT_RECORD = 48

#: Key pools of the sharded cell — one per shard at 4 shards.
POOLS = 4

#: Input streams per run.  One seed's contended run is one draw from a
#: heavy-tailed distribution (a p99 moves by a third between seeds), so
#: a run's simulated metrics pool this many independently seeded
#: streams, one per repetition in turn.
STREAMS = 8


def stream_seed(seed, stream):
    """The generator seed of one stream; stream 0 is ``seed`` itself."""
    return seed + 7919 * stream


@dataclass(frozen=True)
class Cell:
    """One engine + one load: a workload is one or more cells whose
    commits, seconds and latencies are pooled."""

    name: str
    scheme: str = "fastplus"
    ops: int = 0                # > 0: single-client autocommit inserts
    clients: int = 0            # mixed read/write clients
    readers: int = 0            # extra MVCC snapshot read-only clients
    isolation: str = "locked"   # of the mixed clients: locked | occ
    items: int = 0              # transaction items per client
    read_ratio: float = 0.5
    key_space: int = 200
    preload: int = 64
    read_ns: float = 300.0
    cache_lines: int = 4096
    dram_cache_pages: int = 0
    shards: int = 0             # > 0: ShardRouter over this many shards
    cross_ratio: float = 0.0

    @property
    def attempted(self):
        return self.ops or (self.clients + self.readers) * self.items

    def quick(self):
        """The same cell at a tenth of the work (tests, smoke runs)."""
        return replace(self, ops=self.ops // 10, items=self.items // 10)


#: name -> (why it was chosen, cells).  The whys are the sentences
#: BENCHMARK.json records; the names are handles later issues use.
WORKLOADS = {
    "insert_1c": (
        "the paper's primary workload: 1 client, single-record random-key "
        "inserts over nvwal/fast/fastplus; pm, slotted page, btree, log and "
        "rtm do all the work, sessions/locks/versions/cache/shards none",
        [Cell(name=scheme, scheme=scheme, ops=2000) for scheme in SCHEMES],
    ),
    "mixed_8c_2pl": (
        "8 strict-2PL clients, 50% reads, 1-3 op write txns on 1000 keys: "
        "lock manager, sessions and scheduler carry the run with aborts and "
        "retries; versions and cache stay idle",
        [Cell(name="mixed", clients=8, items=400, read_ratio=0.5,
              key_space=1000, preload=250)],
    ),
    "readhot_8c_mvcc": (
        "1 locked writer + 7 MVCC snapshot readers at 900 ns PM reads, page "
        "cache smaller (8) and larger (64) than the working set: version "
        "resolve and DRAM cache do the work, locks and log almost none",
        [Cell(name="c%d" % pages, clients=1, readers=7, items=600,
              key_space=400, preload=400, read_ns=900.0, cache_lines=64,
              dram_cache_pages=pages) for pages in (8, 64)],
    ),
    "occ_8c": (
        "8 OCC writers: read_mostly (OCC wins) and hot_writes (validation "
        "aborts, 2PL fallback): the write side of the version layer, so a "
        "snapshot-read gain that costs validation shows here",
        [Cell(name="read_mostly", clients=8, items=300, isolation="occ",
              read_ratio=0.9, key_space=100),
         Cell(name="hot_writes", clients=8, items=300, isolation="occ",
              read_ratio=0.2, key_space=20)],
    ),
    "shard4_8c_2pc": (
        "8 2PL clients over a 4-shard router, disjoint pools, 20% "
        "cross-shard writes: shard routing and two-phase commit, where "
        "simulated time improves while the host gets slower",
        [Cell(name="shard4", clients=8, items=450, shards=4, key_space=50,
              preload=16, cross_ratio=0.2)],
    ),
}


def cells_of(workload, quick=False):
    cells = WORKLOADS[workload][1]
    return [cell.quick() for cell in cells] if quick else cells


# ----------------------------------------------------------------------
# Simulated machine sizing (ported from repro.bench.harness.build_config)
# ----------------------------------------------------------------------

def cell_config(cell):
    """A ``SystemConfig`` provisioned so no run fails on capacity and
    NVWAL's buffer cache holds about half the leaves, as in the paper."""
    from repro.core import SystemConfig
    from repro.pm.latency import LatencyProfile

    if cell.ops:
        ops, record = cell.ops, INSERT_RECORD
    else:
        ops = max(512, (cell.clients + cell.readers) * cell.items * 3)
        record = CLIENT_RECORD
    page_size = 4096
    checkpoint = max(192 * 1024, ops * (record + 256) // 8)
    leaves = max(4, ops * (record + 24) // int(page_size * 0.7))
    return SystemConfig(
        scheme=cell.scheme,
        page_size=page_size,
        npages=max(128, ops * (record + 64) * 3 // page_size + 64),
        log_bytes=max(1 << 16, 4 * page_size),
        heap_bytes=checkpoint * 2 + (1 << 20),
        dram_bytes=max(8, leaves // 2) * page_size,
        nvwal_checkpoint_bytes=checkpoint,
        latency=LatencyProfile(read_ns=cell.read_ns, write_ns=300.0),
        cache_lines=cell.cache_lines,
        dram_cache_pages=cell.dram_cache_pages,
    )


# ----------------------------------------------------------------------
# Seeded generators
# ----------------------------------------------------------------------

def random_keys(count, seed, width=16):
    """Distinct fixed-width decimal keys (lexical == numeric order)."""
    rng = random.Random(seed)
    space = 10 ** (width - 1)
    seen = set()
    keys = []
    while len(keys) < count:
        value = rng.randrange(space)
        if value not in seen:
            seen.add(value)
            keys.append(b"%0*d" % (width, value))
    return keys


def sized_payload(size):
    """``size`` pseudorandom bytes (bench_selfperf's payload)."""
    rng = random.Random(11)
    return bytes(rng.randrange(256) for _ in range(size))


def _client_payload(client_index):
    return bytes((client_index * 31 + i) % 256 for i in range(CLIENT_RECORD))


def _write_ops(rng, key, pick, payload):
    """A 1-3 operation write transaction starting at ``key``."""
    ops = [("insert", key, payload)]
    for _ in range(rng.randrange(3)):
        extra = pick()
        if rng.random() < 0.25:
            ops.append(("delete", extra, None))
        else:
            ops.append(("insert", extra, payload))
    return ops


def client_items(cell, client_index, seed, read_ratio=None):
    """One client's items over the shared hot key space: single-op
    search transactions and 1-3 op write transactions."""
    read_ratio = cell.read_ratio if read_ratio is None else read_ratio
    rng = random.Random(seed * 1000 + client_index)
    payload = _client_payload(client_index)

    def pick():
        return b"mk%05d" % rng.randrange(cell.key_space)

    items = []
    for _ in range(cell.items):
        key = pick()
        if rng.random() < read_ratio:
            items.append(("search", key, None))
        else:
            items.append(("txn", _write_ops(rng, key, pick, payload)))
    return items


def pool_keys(pool, count):
    """The first ``count`` keys of pool ``pool``: prefixed, so pools
    never share tree pages, and kept only when ``crc32 % 4 == pool`` —
    the router's own hash — so a pool lives on exactly one shard."""
    keys = []
    i = 0
    while len(keys) < count:
        key = b"s%dk%05d" % (pool, i)
        if crc32(key) % POOLS == pool:
            keys.append(key)
        i += 1
    return keys


def sharded_items(cell, client_index, seed):
    """One client's items for the sharded cell: home pool
    ``client_index % 4``, clients sharing a pool work disjoint slices,
    and a write turns into a two-pool (two-shard, 2PC) transaction with
    probability ``cross_ratio``."""
    lo = (client_index // POOLS) * cell.key_space
    home = pool_keys(client_index % POOLS, lo + cell.key_space)[lo:]
    away = pool_keys((client_index + 1) % POOLS, lo + cell.key_space)[lo:]
    rng = random.Random(seed * 1000 + client_index)
    payload = _client_payload(client_index)

    def pick():
        return home[rng.randrange(cell.key_space)]

    items = []
    for _ in range(cell.items):
        key = pick()
        if rng.random() < cell.read_ratio:
            items.append(("search", key, None))
        elif rng.random() < cell.cross_ratio:
            items.append(("txn", [
                ("insert", key, payload),
                ("insert", away[rng.randrange(cell.key_space)], payload),
            ]))
        else:
            items.append(("txn", _write_ops(rng, key, pick, payload)))
    return items


def preload_rows(cell):
    """Rows inserted before the measured window, so reads hit and
    writes update shared pages."""
    value = bytes(CLIENT_RECORD)
    if cell.shards:
        return [(key, value) for pool in range(POOLS)
                for key in pool_keys(pool, cell.key_space)[:cell.preload]]
    return [(b"mk%05d" % (i * cell.key_space // max(1, cell.preload)), value)
            for i in range(cell.preload)]


def all_client_items(cell, seed):
    """Item lists of every client, mixed clients first then readers —
    the order they register with the scheduler."""
    make = sharded_items if cell.shards else client_items
    clients = [make(cell, index, seed) for index in range(cell.clients)]
    clients += [
        client_items(cell, index, seed, read_ratio=1.0)
        for index in range(cell.clients, cell.clients + cell.readers)
    ]
    return clients


def item_ops(item):
    return item[1] if item[0] == "txn" else [item]
