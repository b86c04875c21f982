"""One repetition of one cell, measured from outside the program.

A repetition builds a fresh engine on the cell's inputs, runs the
closed-loop load (one process, one thread: the simulator is
cooperative), checks the result against a plain-dict reference model
before and after a power failure, and returns both clocks' numbers:
host seconds from timing the benchmark's own calls into public
functions, simulated work from ``engine.obs.since(snapshot)``.  The
clients record each item's simulated latency as it commits, as any
closed-loop load generator does; that is the only hook in the window.
"""

import sys
import time
import traceback
from dataclasses import dataclass

from repro.core import open_engine
from repro.core.scheduler import Scheduler
from repro.pm.crash import DropAll
from repro.storage.sharding import ShardRouter

from workloads import (
    INSERT_RECORD, POOLS, all_client_items, cell_config, item_ops,
    preload_rows, random_keys, sized_payload,
)

_host = time.perf_counter


@dataclass
class Inputs:
    """What one cell feeds the engine, generated once from the seed
    and replayed on every repetition."""

    preload: list       # (key, value) rows inserted before the window
    clients: list       # per-client item lists (scheduled cells)
    keys: list          # insert-loop keys (insert cells)
    payload: bytes

    @classmethod
    def make(cls, cell, seed):
        if cell.ops:
            return cls([], [], random_keys(cell.ops, seed),
                       sized_payload(INSERT_RECORD))
        return cls(preload_rows(cell), all_client_items(cell, seed), [], b"")


class StepRecorder:
    """The closed-loop clients' own bookkeeping, through the
    ``Scheduler(on_step=...)`` hook: one simulated latency per
    committed item on every repetition, and with ``keep_steps`` one
    span per step.

    A step's span runs from the end of the previous step, so the
    scheduler's pick, a clock jump to a back-off deadline and a
    timed-out waiter's abort are inside the span that follows them and
    no simulated or host time falls between spans.  An item's latency
    runs from the start of its first step to its commit, through lock
    waits, back-off and retries (its first attempt never follows a
    clock jump, so that start is exact).
    """

    def __init__(self, clock, cell, keep_steps):
        self.clock = clock
        self.steps = [] if keep_steps else None
        self.latencies = []   # simulated ns, one per committed item
        #: Simulated ns attributed to each shard by its clients' home
        #: pool — the busiest one is the modelled parallel wall time.
        self.busy = [0.0] * cell.shards
        self._home = [(i % POOLS) % max(1, cell.shards)
                      for i in range(cell.clients)]
        self._item_start = {}
        self._commits = {}
        self._host = self._sim = 0.0

    def start(self):
        self._host = _host()
        self._sim = self.clock.now_ns

    def __call__(self, client):
        index = client.index
        committed = client.commits != self._commits.get(index, 0)
        if committed:
            self._commits[index] = client.commits
        self.record(index, client.item_idx - committed, committed)

    def record(self, index, item, committed):
        sim1 = self.clock.now_ns
        sim0 = self._sim
        self._sim = sim1
        start = self._item_start.setdefault(index, sim0)
        if committed:
            self.latencies.append(sim1 - start)
            del self._item_start[index]
        if self.busy:
            self.busy[self._home[index]] += sim1 - sim0
        if self.steps is not None:
            host1 = _host()
            self.steps.append((index, item, self._host, host1, sim0, sim1))
            self._host = host1


def _create(cell, config):
    if cell.shards:
        return ShardRouter.create(config, cell.shards, scheme=cell.scheme)
    return open_engine(config, scheme=cell.scheme)


def _attach(cell, config, pm):
    if cell.shards:
        return ShardRouter.attach(config, cell.shards, pm, scheme=cell.scheme)
    return open_engine(config, scheme=cell.scheme, pm=pm)


def _drive(engine, scheduler, inputs, recorder):
    """The timed window.  Returns the commit order; a failed run is a
    result to report (its uncommitted items count as failed), so the
    error is logged here and not raised."""
    if scheduler is not None:
        try:
            return scheduler.run()["commit_order"]
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return list(scheduler.commit_order)
    insert = engine.insert
    payload = inputs.payload
    done = 0
    try:
        for key in inputs.keys:
            insert(key, payload)
            recorder.record(0, done, True)
            done += 1
    except Exception:
        traceback.print_exc(file=sys.stderr)
    return [("c0", i) for i in range(done)]


def _replay(model, inputs, commit_order):
    """Apply the committed items to the reference model in commit
    order (strict 2PL and OCC installs both serialize in that order).
    Returns the key+value bytes the committed inserts wrote."""
    if inputs.keys:
        items = {"c0": [("insert", key, inputs.payload)
                        for key in inputs.keys]}
    else:
        items = {"c%d" % i: c for i, c in enumerate(inputs.clients)}
    written = 0
    for name, item_idx in commit_order:
        for kind, key, value in item_ops(items[name][item_idx]):
            if kind == "insert":
                model[key] = value
                written += len(key) + len(value)
            elif kind == "delete":
                model.pop(key, None)
    return written


def _mismatches(engine, model):
    """Keys wrong, missing or extra against the model (the structural
    check failing counts every key)."""
    try:
        engine.verify()
        got = dict(engine.scan())
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return max(1, len(model))
    return sum(1 for key in model.keys() | got.keys()
               if model.get(key) != got.get(key))


def run_cell(cell, inputs, *, traced=False, spans=None, rep=0, profiler=None):
    """One repetition of ``cell``.  ``traced`` turns the program's own
    event ring on; ``spans`` (a list) receives this repetition's
    spans, one per step included; ``profiler`` (a ``cProfile.Profile``)
    is enabled over the timed window only."""
    # -- setup: config + arena format + preload + client registration --
    h0 = _host()
    config = cell_config(cell)
    engine = _create(cell, config)
    engine.obs.tracing(traced)
    clock = engine.clock
    for key, value in inputs.preload:
        engine.insert(key, value, replace=True)
    recorder = StepRecorder(clock, cell, keep_steps=spans is not None)
    scheduler = None
    if not cell.ops:
        scheduler = Scheduler(engine, on_step=recorder)
        for index, items in enumerate(inputs.clients):
            scheduler.add_client(
                items,
                isolation=cell.isolation if index < cell.clients
                else "read_only",
            )
    h1 = _host()

    # -- timed window ---------------------------------------------------
    snapshot = engine.obs.snapshot()
    sim_t0 = clock.now_ns
    recorder.start()
    if profiler is not None:
        profiler.enable()
    h2 = _host()
    commit_order = _drive(engine, scheduler, inputs, recorder)
    h3 = _host()
    if profiler is not None:
        profiler.disable()
    delta = engine.obs.since(snapshot)
    sim_t1 = clock.now_ns
    registry = engine.obs.registry

    # -- oracle: structure + contents against the replayed model --------
    model = dict(inputs.preload)
    user_bytes = _replay(model, inputs, commit_order)
    v0 = _host()
    wrong = _mismatches(engine, model)
    v1 = _host()
    engines = engine.shards if cell.shards else [engine]
    pages = [shard.page_stats() for shard in engines]
    data_pages = [
        p["pages_by_type"].get("leaf", 0) + p["pages_by_type"].get("internal", 0)
        for p in pages
    ]
    end_gauges = {
        "wal.bytes_used": registry.value("wal.bytes_used", 0),
        "mvcc.versions_live": registry.value("mvcc.versions_live", 0),
    }
    ring_dropped = engine.obs.trace.dropped

    # -- power failure: only flushed bytes survive, then recovery -------
    pm = engine.pm
    before_crash = engine.obs.snapshot()
    r0 = _host()
    pm.crash(DropAll())
    try:
        recovered = _attach(cell, config, pm)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        recovered = None
    r1 = _host()
    recovery = pm.obs.since(before_crash)
    wrong += (_mismatches(recovered, model) if recovered is not None
              else max(1, len(model)))
    v2 = _host()

    if spans is not None:
        sim_crash = before_crash["now_ns"]
        sim_recovered = sim_crash + recovery["elapsed_ns"]
        for name, host_a, host_b, sim_a, sim_b in (
            ("setup", h0, h1, 0.0, sim_t0),
            ("timed", h2, h3, sim_t0, sim_t1),
            ("verify", v0, v1, sim_t1, sim_crash),
            ("crash_recover", r0, r1, sim_crash, sim_recovered),
            ("verify", r1, v2, sim_recovered, clock.now_ns),
        ):
            spans.append({
                "name": name, "parent": "rep", "rep": rep, "cell": cell.name,
                "host_start": host_a, "host_end": host_b,
                "sim_start_ns": sim_a, "sim_end_ns": sim_b,
            })
        for client, item, host_a, host_b, sim_a, sim_b in recorder.steps:
            spans.append({
                "name": "step", "parent": "timed", "rep": rep,
                "cell": cell.name, "client": client, "item": item,
                "host_start": host_a, "host_end": host_b,
                "sim_start_ns": sim_a, "sim_end_ns": sim_b,
            })

    return {
        "cell": cell.name,
        "scheme": cell.scheme,
        "attempted": cell.attempted,
        "commits": len(commit_order),
        "failed": cell.attempted - len(commit_order) + wrong,
        # host clock
        "setup_s": h1 - h0,
        "host_s": h3 - h2,
        "verify_host_s": (v1 - v0) + (v2 - r1),
        "recovery_host_s": r1 - r0,
        # simulated clock (identical on every repetition of a stream)
        "sim_ns": delta["elapsed_ns"],
        "counters": delta["registry"]["counters"],
        "phase_ns": {
            name[len("phase."):]: (hist["count"], hist["sum_ns"])
            for name, hist in delta["registry"]["histograms"].items()
        },
        "end_gauges": end_gauges,
        "user_bytes": user_bytes,
        "live_bytes": sum(len(k) + len(v) for k, v in model.items()),
        "reachable_bytes": config.page_size * sum(
            p["reachable_pages"] for p in pages
        ),
        "data_pages": sum(data_pages),
        "fill_weighted": sum(
            p["fill_factor"] * n for p, n in zip(pages, data_pages)
        ),
        "fragmented_bytes": sum(p["fragmented_bytes"] for p in pages),
        "recovery_sim_ns": recovery["elapsed_ns"],
        "recovery_replayed": recovery["registry"]["counters"].get(
            "engine.recovery.replayed", 0
        ),
        "ring_dropped": ring_dropped,
        "latencies_ns": recorder.latencies,
        "shard_busy_ns": recorder.busy,
    }


#: The fields of a repetition that must not depend on tracing,
#: profiling or the host: two repetitions of one input stream agree
#: on all of them.
SIMULATED_FIELDS = (
    "commits", "failed", "sim_ns", "counters", "phase_ns", "end_gauges",
    "user_bytes", "live_bytes", "reachable_bytes", "fragmented_bytes",
    "recovery_sim_ns", "recovery_replayed", "latencies_ns", "shard_busy_ns",
)


def simulated_signature(rep):
    """What every repetition of a stream must reproduce."""
    return [[cell[field] for field in SIMULATED_FIELDS] for cell in rep]


def run_rep(cells, inputs, **kwargs):
    """One repetition of a workload: each cell on a fresh engine."""
    return [run_cell(cell, cell_inputs, **kwargs)
            for cell, cell_inputs in zip(cells, inputs)]
