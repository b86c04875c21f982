"""The DPOR schedule-space explorer: determinism, exhaustiveness,
reduction (strictly fewer schedules than naive DFS), the per-schedule
invariants + the crash driver's committed-prefix check, seeded-bug
detection, and the schedule × crash-point product."""

import json

import pytest

from repro.analysis.corpus import mixed_explore_workloads, run_explored
from repro.analysis.explore import (
    DEFAULT_BUDGET, ExplorationError, Explorer, _dependent, _footprint,
    default_workloads, explore,
)
from repro.analysis.mutants import MUTANTS, skip_cache_invalidate
from repro.core import SystemConfig
from repro.core.locking import LOCK_S, LOCK_X, encode_lock
from repro.obs import trace as ev
from repro.testing.crashsim import ScheduledRun
from tests.storage.test_cache import run_seam_row


def test_default_locked_workload_explores_exhaustively():
    explorer = Explorer("fast")
    result = explorer.run()
    assert result["budget_exhausted"] is False
    assert result["schedules"] >= 1
    assert result["findings"] == []
    assert result["races"] == []
    assert explorer.stats["starved"] == 0


def test_exploration_is_deterministic_byte_identical_json():
    blobs = []
    for _ in range(2):
        result = explore("fast", budget=DEFAULT_BUDGET)
        blobs.append(json.dumps(result, sort_keys=True).encode())
    assert blobs[0] == blobs[1]


def test_a_route_check_depends_on_an_x_lock_of_the_same_page():
    """A descent that passed internal page 5 under an instant S check,
    and a step that X-locks page 5, do not commute: swapped, the check
    meets the X holder and parks.  Two checks of one page, or a check
    and an X lock of another page, still commute."""

    def footprint(*events):
        return _footprint(
            [(seq, 0.0, kind, sid, word)
             for seq, (kind, sid, word) in enumerate(events)],
            0, 512, 128,
        )

    check = footprint((ev.LOCK_CHECK, 1, encode_lock(("page", 5), LOCK_S)))
    assert check == {("page", 5): LOCK_S}
    split = footprint((ev.LOCK_ACQUIRE, 2, encode_lock(("page", 5), LOCK_X)))
    assert _dependent(check, split) and _dependent(split, check)
    other = footprint((ev.LOCK_CHECK, 2, encode_lock(("page", 5), LOCK_S)))
    assert not _dependent(check, other)
    elsewhere = footprint(
        (ev.LOCK_ACQUIRE, 2, encode_lock(("page", 6), LOCK_X)))
    assert not _dependent(check, elsewhere)


def _independent_reader_workloads():
    """Two locked clients, each one transaction of two searches over
    disjoint preloaded keys on well-separated leaves: every pair of
    steps is independent (S locks only), so DPOR needs exactly one
    schedule where naive DFS enumerates every interleaving."""
    payload = bytes(32)
    preload = [(b"r%03d" % i, payload) for i in range(0, 200, 10)]
    workloads = [
        [("txn", [("search", b"r000", None), ("search", b"r010", None)])],
        [("txn", [("search", b"r180", None), ("search", b"r190", None)])],
    ]
    return preload, workloads


def test_dpor_explores_strictly_fewer_schedules_than_naive():
    preload, workloads = _independent_reader_workloads()
    reduced = Explorer("fast", workloads=workloads, preload=preload)
    reduced_result = reduced.run()
    naive = Explorer("fast", workloads=workloads, preload=preload,
                     reduction=False)
    naive_result = naive.run()
    # 2 clients x 2 steps each: C(4, 2) = 6 naive interleavings.
    assert naive_result["schedules"] == 6
    assert reduced_result["schedules"] < naive_result["schedules"]
    assert reduced_result["schedules"] == 1
    # Reduction discards schedules, never findings.
    assert reduced_result["findings"] == naive_result["findings"] == []


def test_conflicting_workload_schedules_all_pass_oracle():
    # The default workload's shared hot key makes transactions
    # genuinely conflict; every explored schedule still has to satisfy
    # TC101-TC110 plus the committed-prefix model of its commit order.
    result = explore("fast", workloads=default_workloads(clients=2, ops=2))
    assert result["schedules"] >= 2
    assert result["findings"] == []


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_seeded_mutant_is_detected_within_default_budget(name):
    inject, expected_rule, workloads = MUTANTS[name]
    spec = workloads()
    with inject():
        result = explore(
            "fast", workloads=spec["workloads"],
            preload=spec.get("preload", ()),
            config=spec.get("config"),
        )
    fired = {line.split(": ")[1] for line in result["findings"]}
    assert expected_rule in fired, (
        "%s escaped exploration (findings: %r)" % (name, result["findings"])
    )


def test_cache_mutant_also_bites_at_the_pointer_swap():
    """TC111 only watches header installs; the mutant must equally
    break the swap primitive, whose workload's one stale frame (the
    root, holding the old child pointer) nothing but the swap drops."""
    expected = run_seam_row("cow-defragment-swap", cache_pages=0)
    with skip_cache_invalidate():
        with pytest.raises(IndexError):  # descent into the freed old leaf
            run_seam_row("cow-defragment-swap", cache_pages=16)
    assert run_seam_row("cow-defragment-swap", cache_pages=16) == expected


_V0, _V1, _V2 = b"v0" * 8, b"v1" * 8, b"v2" * 8
#: Two committed multi-op items over a preloaded key, committed c0
#: then c1: the model of that order is _PLANTED["correct"].
_PLANTED_WORKLOADS = [
    [("txn", [("insert", b"a", _V1), ("insert", b"shared", _V1),
              ("delete", b"p", None)])],
    [("txn", [("insert", b"shared", _V2), ("insert", b"b", _V2)])],
]
_PLANTED = {
    "correct": {b"a": _V1, b"b": _V2, b"shared": _V2},
    "lost write": {b"a": _V1, b"shared": _V1},
    "phantom key": {b"a": _V1, b"b": _V2, b"shared": _V2, b"zz": _V1},
    "stale value": {b"a": _V1, b"b": _V2, b"shared": _V1},
    "half an item": {b"a": _V1, b"b": _V2, b"shared": _V2, b"p": _V0},
}


@pytest.mark.parametrize("name", sorted(_PLANTED))
def test_ex001_fires_on_exactly_the_wrong_planted_states(name):
    """EX001 is the crash driver's completed-run validation: the
    planted state is checked against the model ``ScheduledRun`` builds
    from the commit order, and the explorer reports what it returns."""
    from repro.core import open_engine
    from repro.core.scheduler import Scheduler
    from repro.testing.crashsim import CrashTestResult, _validate

    preload = [(b"p", _V0)]
    explorer = Explorer("fast", workloads=_PLANTED_WORKLOADS,
                        preload=preload)
    shape = ScheduledRun("fast", _PLANTED_WORKLOADS, preload=preload)
    shape.engine = open_engine(explorer.config, scheme="fast")
    shape.scheduler = Scheduler(shape.engine)
    for workload in _PLANTED_WORKLOADS:
        shape.scheduler.add_client(workload)
    shape.scheduler.commit_order = [("c0", 0), ("c1", 0)]
    committed, inflight, _ = shape.state()
    result = _validate(CrashTestResult(
        False, committed, inflight, dict(_PLANTED[name]),
    ))
    explorer._check_schedule((0, 1), shape.scheduler.commit_order, result)
    fired = [finding.rule for finding in explorer.findings]
    assert fired == ([] if name == "correct" else ["EX001"])


def test_mixed_isolation_workload_is_clean():
    result = explore("fast", workloads=mixed_explore_workloads(), budget=64)
    assert result["findings"] == []
    assert result["clients"] == 3


def test_crash_product_sweeps_distinct_schedules():
    explorer = Explorer("fast", budget=64, crash_schedules=2)
    result = explorer.run()
    assert explorer.stats["crash_points"] > 0
    assert result["findings"] == []


def test_group_commit_configs_are_rejected():
    config = SystemConfig(
        npages=128, page_size=512, log_bytes=16384,
        heap_bytes=1 << 20, dram_bytes=64 * 512, group_commit_size=4,
    )
    with pytest.raises(ExplorationError, match="group_commit"):
        Explorer("fast", config=config)


def test_publish_files_schema_counters():
    from repro.obs.context import Observability
    from repro.pm.clock import SimClock

    explorer = Explorer("fast", budget=16)
    explorer.run()
    obs = Observability(SimClock())
    explorer.publish(obs)
    counters = obs.registry.counters()
    assert counters["explore.schedules"] == explorer.stats["schedules"]
    assert counters["explore.attempts"] == explorer.stats["attempts"]
    assert (obs.registry.gauge("explore.max_frontier").value
            == explorer.stats["max_frontier"])


def test_run_explored_is_clean_on_real_engine():
    findings, stats = run_explored(budget=32, crash_schedules=0)
    assert findings == []
    assert stats["runs"] == 2
    assert stats["schedules"] >= 2
