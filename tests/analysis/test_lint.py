"""Static rules PM001-PM006: exact output on known-bad fixtures, and a
zero-findings run over the real ``src/repro`` tree."""

import os

from repro.analysis.findings import (
    Finding, load_baseline, new_findings, save_baseline,
)
from repro.analysis.lint import lint_paths, lint_source

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
SRC_REPRO = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "src", "repro",
)


def _lint_fixture(name, module_layer="core"):
    with open(os.path.join(FIXTURES, name)) as fh:
        source = fh.read()
    return lint_source(source, file=name, module=module_layer + "/" + name)


def test_pm001_raw_store_outside_wrappers():
    assert [f.render() for f in _lint_fixture("pm001_raw_store.py")] == [
        "pm001_raw_store.py:5: PM001: raw PM store write_u64() outside "
        "the approved wrapper layers "
        "(pm/storage/wal/btree/htm/hashindex/testing)",
    ]


def test_pm001_silent_inside_wrapper_layers():
    with open(os.path.join(FIXTURES, "pm001_raw_store.py")) as fh:
        source = fh.read()
    findings = lint_source(
        source, file="pm001_raw_store.py",
        module="storage/pm001_raw_store.py",
    )
    assert findings == []


def test_pm002_store_without_flush_before_mark():
    assert [f.render() for f in _lint_fixture("pm002_unflushed_store.py")] == [
        "pm002_unflushed_store.py:7: PM002: PM store in commit() has no "
        "flush_range/clflush before the enclosing commit-mark emission",
    ]


def test_pm003_nondeterminism_sources():
    assert [f.render() for f in _lint_fixture("pm003_nondeterminism.py")] == [
        "pm003_nondeterminism.py:8: PM003: host wall-clock read "
        "time.time() in a simulation-path module (use the SimClock)",
        "pm003_nondeterminism.py:9: PM003: module-level random.random() "
        "(unseeded global PRNG); use a seeded random.Random(seed)",
        "pm003_nondeterminism.py:10: PM003: iteration directly over a "
        "set; order-sensitive code must sort (sorted(...)) for "
        "deterministic replay",
    ]


def test_pm003_exempts_cli_entry_points():
    source = "import time\n\n\ndef banner():\n    return time.time()\n"
    assert lint_source(
        source, file="__main__.py", module="bench/__main__.py",
    ) == []


def test_pm004_unregistered_metric_name():
    assert [
        f.render() for f in _lint_fixture("pm004_unregistered_metric.py")
    ] == [
        "pm004_unregistered_metric.py:5: PM004: metric name "
        "'engine.txn.banana' is not registered in repro.obs.schema",
    ]


def test_pm005_swallowed_lock_error_and_bare_except():
    assert [f.render() for f in _lint_fixture("pm005_swallowed.py")] == [
        "pm005_swallowed.py:7: PM005: swallowed exception handler "
        "(body is only pass)",
        "pm005_swallowed.py:14: PM005: bare except:",
    ]


def test_pm006_direct_acquire_outside_locking_module():
    assert [f.render() for f in _lint_fixture("pm006_direct_acquire.py")] == [
        "pm006_direct_acquire.py:11: PM006: direct lock_manager.acquire() "
        "outside TwoPhaseLocking/commit_scope (no release-on-all-paths "
        "guarantee)",
        "pm006_direct_acquire.py:15: PM006: direct _locks.acquire() "
        "outside TwoPhaseLocking/commit_scope (no release-on-all-paths "
        "guarantee)",
    ]


def test_pm006_silent_inside_core_locking():
    with open(os.path.join(FIXTURES, "pm006_direct_acquire.py")) as fh:
        source = fh.read()
    assert lint_source(
        source, file="locking.py", module="core/locking.py",
    ) == []


def test_pm006_allow_comment_suppresses():
    source = (
        "def f(locks, resource):\n"
        "    # repro: allow[PM006] self-test helper owns its own release\n"
        "    locks.acquire(1, resource, 'X')\n"
    )
    assert lint_source(source, file="x.py", module="core/x.py") == []


# ----------------------------------------------------------------------
# Suppressions and the baseline
# ----------------------------------------------------------------------

def test_allow_comment_suppresses_only_its_rule():
    source = (
        "def f(pm):\n"
        "    # repro: allow[PM001] exercising suppression in a test\n"
        "    pm.write_u64(0, 1)\n"
        "    pm.flush_range(0, 8)\n"
    )
    assert lint_source(source, file="x.py", module="core/x.py") == []
    wrong_rule = source.replace("PM001", "PM003")
    findings = lint_source(wrong_rule, file="x.py", module="core/x.py")
    assert [f.rule for f in findings] == ["PM001"]


def test_allow_without_justification_is_its_own_finding():
    source = (
        "def f(pm):\n"
        "    pm.write_u64(0, 1)  # repro: allow[PM001]\n"
        "    pm.flush_range(0, 8)\n"
    )
    findings = lint_source(source, file="x.py", module="core/x.py")
    assert [f.render() for f in findings] == [
        "x.py:2: PM000: allow[PM001] without a one-line justification",
    ]


def test_baseline_roundtrip_masks_old_findings(tmp_path):
    path = str(tmp_path / "baseline.json")
    old = Finding("PM001", "legacy store", file="a.py", line=3)
    save_baseline(path, [old])
    baseline = load_baseline(path)
    fresh = Finding("PM002", "new problem", file="b.py", line=9)
    moved = Finding("PM001", "legacy store", file="a.py", line=99)
    assert new_findings([old, moved, fresh], baseline) == [fresh]


def test_missing_baseline_is_empty():
    assert load_baseline("/nonexistent/baseline.json") == set()


# ----------------------------------------------------------------------
# The real tree is clean
# ----------------------------------------------------------------------

def test_src_repro_has_zero_findings():
    findings = lint_paths([SRC_REPRO])
    assert findings == [], "\n".join(f.render() for f in findings)
