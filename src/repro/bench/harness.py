"""Benchmark runners: build an engine, drive a workload, collect the
per-phase simulated times and event counters.

The measurement boundaries follow the paper's Section 5: engine-level
runs report Search / Page Update / Commit (pager + B-tree time only),
while SQL-level runs additionally include parsing and execution
(Figures 11-12).  NVWAL's lazy checkpoint is reported separately, as
the paper does.

Everything reported here comes from the shared observability layer
(``engine.obs``): phase times are the ``phase.<segment>`` histogram
deltas, counters are the registry's counter deltas.
"""

from dataclasses import dataclass, field

from repro.bench.workloads import random_keys, sized_payload
from repro.core import SystemConfig, open_engine
from repro.pm.latency import LatencyProfile

#: Engine-level phases whose sum is the per-operation time the paper
#: plots in Figure 6.
PHASES = ("search", "page_update", "commit")


@dataclass
class RunResult:
    """Aggregated outcome of one benchmark run."""

    scheme: str
    ops: int
    params: dict
    segments_us: dict            # average per op, by clock segment
    counters: dict               # event deltas over the whole run
    extras: dict = field(default_factory=dict)

    @property
    def op_us(self):
        """Average engine-level time per operation (Search + Page
        Update + Commit)."""
        return sum(self.segments_us.get(phase, 0.0) for phase in PHASES)

    @property
    def sql_op_us(self):
        """Average full response time per operation (adds the SQL
        layer)."""
        return self.op_us + self.segments_us.get("sql", 0.0)

    def per_op(self, counter):
        return self.counters.get(counter, 0) / max(1, self.ops)


def build_config(scheme, *, read_ns=300.0, write_ns=300.0, page_size=4096,
                 ops=2000, record_size=64, atomic_granularity=64,
                 cache_lines=4096, min_dram_pages=8):
    """A ``SystemConfig`` sized for the requested workload.

    The arena, slot-header log, NVWAL heap, and DRAM buffer cache are
    all provisioned from the expected data volume so that no run fails
    on capacity and NVWAL enjoys a fully cached working set (as the
    paper's DRAM+PM configuration does).
    """
    data_bytes = ops * (record_size + 64) * 3
    npages = max(128, data_bytes // page_size + 64)
    # NVWAL checkpoints lazily but regularly enough to bound the
    # per-page delta chains a buffer-cache miss must replay: a few
    # checkpoints per run at any benchmark scale.
    checkpoint = max(192 * 1024, ops * (record_size + 256) // 8)
    # NVWAL's volatile buffer cache is bounded like SQLite's page
    # cache, and the paper's working set exceeds it: about half the
    # *actually used* leaf pages fit, so page fetches from PM occur at
    # every benchmark scale (the regime the paper's NVWAL runs in).
    leaf_estimate = max(4, ops * (record_size + 24) // int(page_size * 0.7))
    # The lower bound must cover the pinned working set of one
    # transaction (multi-record runs raise it).
    dram_pages = max(min_dram_pages, leaf_estimate // 2)
    return SystemConfig(
        scheme=scheme,
        page_size=page_size,
        npages=npages,
        log_bytes=max(1 << 16, 4 * page_size),
        heap_bytes=checkpoint * 2 + (1 << 20),
        dram_bytes=dram_pages * page_size,
        nvwal_checkpoint_bytes=checkpoint,
        latency=LatencyProfile(read_ns=read_ns, write_ns=write_ns),
        atomic_granularity=atomic_granularity,
        cache_lines=cache_lines,
    )


def _collect(engine, ops, params, obs_snapshot, **extras):
    delta = engine.obs.since(obs_snapshot)
    registry_delta = delta["registry"]
    segments_us = {
        name[len("phase."):]: hist["sum_ns"] / ops / 1000.0
        for name, hist in registry_delta["histograms"].items()
        if name.startswith("phase.")
    }
    counters = dict(registry_delta["counters"])
    extras.setdefault("total_us_per_op", delta["elapsed_ns"] / ops / 1000.0)
    return RunResult(
        scheme=engine.scheme,
        ops=ops,
        params=params,
        segments_us=segments_us,
        counters=counters,
        extras=extras,
    )


def run_single_inserts(scheme, *, ops=2000, record_size=64, read_ns=300.0,
                       write_ns=300.0, seed=7, config=None,
                       atomic_granularity=64):
    """The paper's main workload: ``ops`` single-record INSERT
    transactions with random keys (engine level, no SQL)."""
    config = config or build_config(
        scheme, read_ns=read_ns, write_ns=write_ns, ops=ops,
        record_size=record_size, atomic_granularity=atomic_granularity,
    )
    engine = open_engine(config, scheme=scheme)
    keys = random_keys(ops, seed=seed)
    payload = sized_payload(record_size)
    snapshot = engine.obs.snapshot()
    inplace_before = getattr(engine, "inplace_commits", 0)
    logged_before = getattr(engine, "logged_commits", 0)
    for key in keys:
        engine.insert(key, payload)
    params = dict(read_ns=read_ns, write_ns=write_ns, record_size=record_size)
    extras = {}
    if hasattr(engine, "inplace_commits"):
        extras["inplace_commits"] = engine.inplace_commits - inplace_before
        extras["logged_commits"] = engine.logged_commits - logged_before
    if hasattr(engine, "checkpoints"):
        extras["checkpoints"] = engine.checkpoints
    if hasattr(engine, "commit_page_counts"):
        extras["commit_page_counts"] = engine.commit_page_counts
    return _collect(engine, ops, params, snapshot, **extras)


def run_multi_insert(scheme, *, txns=400, per_txn=4, record_size=64,
                     read_ns=300.0, write_ns=300.0, seed=7):
    """Transactions inserting ``per_txn`` records each (the regime
    where slot-header logging matters; paper Section 3.3)."""
    ops = txns * per_txn
    config = build_config(scheme, read_ns=read_ns, write_ns=write_ns,
                          ops=ops, record_size=record_size,
                          min_dram_pages=max(48, per_txn * 3))
    engine = open_engine(config, scheme=scheme)
    keys = random_keys(ops, seed=seed)
    payload = sized_payload(record_size)
    snapshot = engine.obs.snapshot()
    for txn_no in range(txns):
        with engine.transaction() as txn:
            for key in keys[txn_no * per_txn : (txn_no + 1) * per_txn]:
                txn.insert(key, payload)
    params = dict(per_txn=per_txn, read_ns=read_ns, write_ns=write_ns)
    return _collect(engine, ops, params, snapshot)


def run_sql_statements(scheme, *, ops=1000, kind="insert", read_ns=300.0,
                       write_ns=300.0, seed=7, read_ratio=None):
    """Full SQL response-time workload (Figures 11-12 surface).

    ``kind`` is one of "insert", "update", "delete", "select", or
    "mixed" (with ``read_ratio``).
    """
    from repro.bench.workloads import mixed_ops
    from repro.db import Database

    config = build_config(scheme, read_ns=read_ns, write_ns=write_ns,
                          ops=max(ops, 512), record_size=96)
    db = Database.open(config, scheme=scheme)
    db.execute("CREATE TABLE bench (k TEXT PRIMARY KEY, v TEXT)")
    keys = [k.decode() for k in random_keys(ops, seed=seed)]
    value = "v" * 64

    if kind in ("update", "delete", "select"):
        for key in keys:  # preload outside the measured window
            db.execute("INSERT INTO bench VALUES (?, ?)", (key, value))

    engine = db.engine
    snapshot = engine.obs.snapshot()
    if kind == "insert":
        for key in keys:
            db.execute("INSERT INTO bench VALUES (?, ?)", (key, value))
    elif kind == "update":
        for key in keys:
            db.execute("UPDATE bench SET v = ? WHERE k = ?", (value + "!", key))
    elif kind == "delete":
        for key in keys:
            db.execute("DELETE FROM bench WHERE k = ?", (key,))
    elif kind == "select":
        for key in keys:
            db.execute("SELECT v FROM bench WHERE k = ?", (key,))
    elif kind == "mixed":
        stream = mixed_ops(ops, read_ratio=read_ratio or 0.5,
                           key_pool=keys, seed=seed)
        for op, key in stream:
            if op == "read":
                db.execute("SELECT v FROM bench WHERE k = ?", (key,))
            else:
                db.execute("INSERT INTO bench VALUES (?, ?)", (key, value))
    else:
        raise ValueError("unknown workload kind %r" % kind)
    params = dict(kind=kind, read_ns=read_ns, write_ns=write_ns,
                  read_ratio=read_ratio)
    return _collect(engine, ops, params, snapshot)
