"""Tests for the crash-injection harness itself."""

import pytest

from repro.core import SystemConfig
from repro.pm.crash import PersistAll
from repro.testing import (
    SMALL_CONFIG,
    CrashPoint,
    CrashablePM,
    SingleRun,
    crash_at,
    crash_sweep,
    failing,
    power_fail,
)

WORKLOAD = [("insert", b"%02d" % i, b"v%d" % i) for i in range(5)]


def config():
    return SystemConfig(atomic_granularity=8, **SMALL_CONFIG)


def test_crashable_pm_counts_only_when_armed():
    pm = CrashablePM(4096)
    pm.write(0, b"x")
    assert pm.events == 0
    pm.armed = True
    pm.write(0, b"y")
    pm.clflush(0)
    pm.sfence()
    assert pm.events == 3


def test_crashable_pm_raises_at_budget():
    pm = CrashablePM(4096)
    pm.arm({2}, power_fail)
    pm.write(0, b"a")
    with pytest.raises(CrashPoint):
        pm.write(8, b"b")
    assert pm.armed is False  # disarmed after firing


def test_rtm_commit_is_not_a_crash_point():
    from repro.htm import RTM

    pm = CrashablePM(4096)
    rtm = RTM(pm)
    pm.arm({1}, power_fail)  # would fire on the first counted write
    rtm.execute(lambda txn: txn.write(0, b"atomic"))
    assert pm.read(0, 6) == b"atomic"  # applied without firing


def test_no_crash_run_reports_clean():
    result = crash_at(SingleRun("fast", WORKLOAD), None, config=config())
    assert not result.crashed
    assert result.ok
    assert len(result.recovered) == 5


def test_crash_points_in_is_positive_and_stable():
    total = crash_at(SingleRun("fast", WORKLOAD), None, config=config()).events
    assert total > 10
    again = crash_at(SingleRun("fast", WORKLOAD), None, config=config())
    assert again.events == total


def test_crash_point_runs_report_inflight():
    result = crash_at(SingleRun("fast", WORKLOAD), 5, config=config())
    assert result.crashed
    assert result.inflight  # crashed inside some transaction


def test_validator_catches_planted_corruption():
    """If recovery 'lost' a committed key, the validator must say so."""
    result = crash_at(SingleRun("fast", WORKLOAD), None, config=config())
    result.recovered.pop(b"02")
    from repro.testing.crashsim import _validate

    result.violations.clear()
    _validate(result)
    assert any("durability" in v for v in result.violations)


def test_sweep_with_policies():
    failures = failing(crash_sweep(
        SingleRun("fast", WORKLOAD),
        config=config(),
        stride=10,
        policies=[PersistAll()],
    ))
    assert failures == []


def test_sweep_respects_max_points():
    # Just exercises the sampling path.
    failures = failing(crash_sweep(
        SingleRun("fast", WORKLOAD),
        config=config(),
        stride=1,
        max_points=5,
        seeds=(1,),
    ))
    assert failures == []


def test_group_candidates_cut_at_members_not_at_commit_order_items():
    """The open epoch's members are the last M committed items *that
    dirtied a page*; reads and no-op deletes sit in the commit order
    without ever having joined."""
    from types import SimpleNamespace

    from repro.testing.crashsim import _group_candidates

    engine = SimpleNamespace(group=SimpleNamespace(member_count=2))
    items = [
        ("insert", b"a", b"1"),
        ("insert", b"b", b"2"),           # member
        ("delete", b"missing", None),     # never joined
        ("txn", []),                      # a read: never joined
        ("insert", b"c", b"3"),           # member
        ("update", b"missing", b"4"),     # never joined
    ]
    assert _group_candidates(engine, items, ()) == [
        {b"a": b"1"},
        {b"a": b"1", b"b": b"2", b"c": b"3"},
    ]
    # A crash inside a commit that already joined: that member is not
    # in the commit order yet, so one fewer of the listed items is.
    assert {b"a": b"1", b"b": b"2"} in _group_candidates(
        engine, items, ("insert", b"d", b"5")
    )


@pytest.mark.parametrize("scheme", ["fast", "fastplus"])
def test_a_clwb_config_is_crash_tested_with_clwb(scheme):
    """The crash arena takes the config's flush instruction: a sweep
    under ``clwb`` flushes with clwb and survives every point."""
    from repro.testing.crashsim import SingleRun, crash_sweep, failing

    cfg = SystemConfig(flush_instruction="clwb", **SMALL_CONFIG)
    shape = SingleRun(scheme, WORKLOAD)
    results = crash_sweep(shape, config=cfg, stride=5, seeds=(0,))
    assert shape.pm.flush_instruction == "clwb"
    assert shape.pm.obs.registry.value("pm.flush.clwb") > 0
    assert results and failing(results) == []


def test_a_single_run_mixing_searches_and_writes_is_modelled():
    """Reads run as reads, not deletes, and leave the model alone."""
    from repro.testing.crashsim import SingleRun, crash_at

    workload = WORKLOAD + [
        ("search", b"01", None),
        ("txn", [("search", b"02", None), ("update", b"02", b"new"),
                 ("search", b"nope", None)]),
    ]
    result = crash_at(SingleRun("fast", workload), None, config=config())
    assert result.ok, result.violations
    assert result.recovered == result.committed
    assert len(result.committed) == 5 and result.committed[b"02"] == b"new"
