"""Counter handles and tracing-off event arguments on the per-operation
paths of the lock manager, scheduler, sessions and version manager.

A handle joins the registry at its first count, so a registry snapshot
lists the names it listed when every site counted by name; event
arguments that cost work are computed only while the ring records."""

from repro.core import SystemConfig, open_engine
from repro.core import locking
from repro.core.scheduler import Scheduler
from repro.obs.registry import MetricsRegistry

_CONFIG = dict(
    npages=128, page_size=512, log_bytes=16384,
    heap_bytes=1 << 20, dram_bytes=64 * 512,
)


def test_handle_registers_at_its_first_count():
    registry = MetricsRegistry()
    handle = registry.counter_handle("lock.acquire")
    assert registry.counters() == {}
    handle.inc()
    handle.inc(2)
    assert registry.counters() == {"lock.acquire": 3}
    registry.reset()
    assert registry.counters() == {"lock.acquire": 0}
    registry.counter_handle("lock.acquire").inc()
    assert registry.counters() == {"lock.acquire": 1}


def test_bound_but_unused_counters_stay_out_of_the_snapshot():
    engine = open_engine(SystemConfig(**_CONFIG), scheme="fast")
    scheduler = Scheduler(engine)
    scheduler.add_client([("insert", b"k%d" % i, b"v") for i in range(4)])
    scheduler.run()
    counters = engine.obs.registry.counters()
    assert counters["sched.step"] > 0 and counters["lock.acquire"] > 0
    for quiet in ("sched.deadlock", "sched.timeout", "sched.abort.occ",
                  "lock.conflict", "mvcc.snapshot_reads"):
        assert quiet not in counters


def _mixed_run(tracing):
    """The engine after a locked and read-only run, and the trace
    position when tracing was set."""
    engine = open_engine(SystemConfig(**_CONFIG), scheme="fast")
    engine.obs.tracing(tracing)
    start = engine.obs.trace.seq
    for i in range(8):
        engine.insert(b"p%02d" % i, b"v")
    scheduler = Scheduler(engine)
    for client in range(3):
        scheduler.add_client([
            ("insert", b"c%d-%d" % (client, i), b"v") for i in range(5)
        ])
    scheduler.add_client([("search", b"p03", None)] * 4,
                         isolation="read_only")
    scheduler.run()
    return engine, start


def test_tracing_off_computes_no_lock_words(monkeypatch):
    traced = _mixed_run(True)[0].obs.registry.snapshot()

    def refuse(*args):
        raise AssertionError("encode_lock called with tracing off")

    monkeypatch.setattr(locking, "encode_lock", refuse)
    untraced, start = _mixed_run(False)
    assert untraced.obs.trace.seq == start
    assert untraced.obs.registry.snapshot() == traced
