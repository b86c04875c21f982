"""Counter-exactness tests: pin the registry to golden event counts.

The simulation is deterministic by construction, so the exact number of
cache-line flushes, fences and commit marks a seeded workload generates
is a stable, meaningful quantity — it *is* the paper's cost model.  These
tests pin those numbers for a fixed workload (64 single-record inserts,
``random_keys(seed=11)``) across record sizes and schemes, so any change
to a write path that adds or removes even one flush shows up as a diff
against the golden table, not as an invisible drift in the figures.

All values are deltas over the workload only (``obs.snapshot()`` /
``obs.since()``), excluding engine bootstrap — the same windowing the
benchmark harness uses.
"""

import pytest

from repro.bench.harness import build_config
from repro.bench.workloads import random_keys, sized_payload
from repro.core import open_engine
from repro.obs import trace as ev

OPS = 64
SEED = 11

# (record_size, scheme) -> exact workload-delta counter values.
# fastplus commits mostly in place under RTM (no log traffic), falling
# back to slot-header logging only when a commit overflows the
# one-cache-line in-place budget — hence the tiny log.commit_mark.
GOLDEN = {
    (64, "fast"): {
        "pm.flush": 516, "pm.fence": 260, "log.commit_mark": 64,
    },
    (64, "fastplus"): {
        "pm.flush": 272, "pm.fence": 138, "log.commit_mark": 2,
        "engine.commit.inplace": 62, "engine.commit.logged": 2,
    },
    (64, "nvwal"): {
        "pm.flush": 558, "pm.fence": 331, "wal.commit_mark": 64,
    },
    (512, "fast"): {
        "pm.flush": 1415, "pm.fence": 304, "log.commit_mark": 64,
    },
    (512, "fastplus"): {
        "pm.flush": 1262, "pm.fence": 202, "log.commit_mark": 13,
        "engine.commit.inplace": 51, "engine.commit.logged": 13,
    },
    (512, "nvwal"): {
        "pm.flush": 1201, "pm.fence": 415, "wal.commit_mark": 64,
    },
    (4096, "fast"): {
        "pm.flush": 9012, "pm.fence": 408, "log.commit_mark": 64,
    },
    (4096, "fastplus"): {
        "pm.flush": 8910, "pm.fence": 340, "log.commit_mark": 30,
        "engine.commit.inplace": 34, "engine.commit.logged": 30,
    },
    (4096, "nvwal"): {
        "pm.flush": 11219, "pm.fence": 714, "wal.commit_mark": 64,
    },
}


def _run_workload(scheme, record_size):
    # 4 KiB records need pages larger than the default 4 KiB.
    page_size = 16384 if record_size == 4096 else 4096
    config = build_config(scheme, ops=OPS, record_size=record_size,
                          page_size=page_size)
    engine = open_engine(config, scheme=scheme)
    snapshot = engine.obs.snapshot()
    payload = sized_payload(record_size)
    for key in random_keys(OPS, seed=SEED):
        engine.insert(key, payload)
    return engine, engine.obs.since(snapshot)["registry"]["counters"]


@pytest.mark.parametrize("record_size,scheme", sorted(GOLDEN))
def test_exact_counters_per_scheme_and_record_size(record_size, scheme):
    engine, counters = _run_workload(scheme, record_size)
    golden = GOLDEN[(record_size, scheme)]
    got = {name: counters.get(name, 0) for name in golden}
    assert got == golden

    # Every scheme committed every transaction exactly once.
    assert counters["engine.txn.commit"] == OPS
    if scheme == "fast":
        # Eager checkpointing: one commit mark and one checkpoint per txn.
        assert counters["engine.checkpoint"] == OPS
        assert counters["log.truncate"] == OPS


@pytest.mark.parametrize("scheme", ["fast", "fastplus", "nvwal"])
def test_registry_and_trace_agree_on_flush_and_fence(scheme):
    """The counter and the event stream are two views of one reality:
    lifetime ``pm.flush`` must equal the number of clflush+clwb trace
    events, and ``pm.fence`` the number of fence events."""
    engine, _ = _run_workload(scheme, 64)
    registry, trace = engine.registry, engine.trace
    assert registry.value("pm.flush") == (
        trace.count(ev.CLFLUSH) + trace.count(ev.CLWB)
    )
    assert registry.value("pm.fence") == trace.count(ev.FENCE)
    assert registry.value("pm.store") == trace.count(ev.STORE)


# ---------------------------------------------------------------------------
# FAST+ RTM commit vs fallback
# ---------------------------------------------------------------------------

RTM_OPS = 40
RTM_SEED = 3


def _fastplus_engine():
    config = build_config("fastplus", ops=RTM_OPS)
    return open_engine(config, scheme="fastplus")


def _insert_rtm_workload(engine):
    payload = sized_payload(64)
    for key in random_keys(RTM_OPS, seed=RTM_SEED):
        engine.insert(key, payload)


def test_rtm_counters_clean_run():
    """Without aborts, every in-place-eligible commit takes the RTM
    path on the first attempt; the rest (here: the bootstrap txn plus
    one multi-page commit) use slot-header logging."""
    engine = _fastplus_engine()
    snapshot = engine.obs.snapshot()
    _insert_rtm_workload(engine)
    counters = engine.obs.since(snapshot)["registry"]["counters"]
    golden = {
        "rtm.begin": 39, "rtm.commit": 39,
        "engine.commit.inplace": 39, "engine.commit.logged": 1,
        "log.commit_mark": 1,
    }
    assert {n: counters.get(n, 0) for n in golden} == golden
    for absent in ("rtm.abort", "rtm.fallback", "engine.commit.fallback"):
        assert counters.get(absent, 0) == 0
    trace = engine.trace
    assert trace.count(ev.RTM_COMMIT) == engine.registry.value("rtm.commit")
    assert trace.count(ev.RTM_ABORT) == 0


def test_rtm_counters_under_forced_aborts():
    """With an injector aborting every attempt (retry budget 2), each
    in-place-eligible commit burns 3 begins + 3 aborts, then falls back
    to the logged path — so the logged count absorbs the whole run."""
    engine = _fastplus_engine()
    engine.rtm_max_retries = 2
    engine.rtm.abort_injector = lambda attempt: True
    snapshot = engine.obs.snapshot()
    _insert_rtm_workload(engine)
    counters = engine.obs.since(snapshot)["registry"]["counters"]
    golden = {
        "rtm.begin": 117,          # 39 eligible commits x 3 attempts
        "rtm.abort": 117,
        "rtm.fallback": 39,        # RTM-level: retry budget exhausted
        "engine.commit.fallback": 39,   # engine-level: fell back to log
        "engine.commit.logged": 40,     # 39 fallbacks + 1 always-logged
        "log.commit_mark": 40,
    }
    assert {n: counters.get(n, 0) for n in golden} == golden
    assert counters.get("rtm.commit", 0) == 0
    assert counters.get("engine.commit.inplace", 0) == 0
    assert counters.get("rtm.abort.capacity", 0) == 0  # injected, not capacity
    trace = engine.trace
    assert trace.count(ev.RTM_BEGIN) == engine.registry.value("rtm.begin")
    assert trace.count(ev.RTM_ABORT) == engine.registry.value("rtm.abort")
    assert trace.count(ev.RTM_COMMIT) == 0
