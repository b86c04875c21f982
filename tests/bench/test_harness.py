"""Tests for workload generators, the benchmark harness, and reports."""

import pytest

from repro.bench import (
    build_config,
    random_keys,
    run_multi_insert,
    run_single_inserts,
    run_sql_statements,
    sized_payload,
)
from repro.bench.report import format_table
from repro.bench.workloads import mixed_ops


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


def test_random_keys_distinct_and_sized():
    keys = random_keys(500, seed=1)
    assert len(keys) == 500
    assert len(set(keys)) == 500
    assert all(len(k) == 16 for k in keys)


def test_random_keys_deterministic():
    assert random_keys(50, seed=9) == random_keys(50, seed=9)
    assert random_keys(50, seed=9) != random_keys(50, seed=10)


def test_sized_payload():
    payload = sized_payload(100)
    assert len(payload) == 100
    assert sized_payload(100) == payload  # deterministic


def test_mixed_ops_respects_ratio():
    keys = random_keys(200, seed=3)
    ops = mixed_ops(200, read_ratio=0.5, key_pool=keys, seed=4)
    reads = sum(1 for op, _ in ops if op == "read")
    assert 60 <= reads <= 140
    # Reads only touch inserted keys.
    inserted = set()
    for op, key in ops:
        if op == "insert":
            inserted.add(key)
        else:
            assert key in inserted


# ----------------------------------------------------------------------
# Config sizing
# ----------------------------------------------------------------------


def test_build_config_scales_with_ops():
    small = build_config("fast", ops=500)
    large = build_config("fast", ops=50000)
    assert large.npages > small.npages
    assert large.heap_bytes >= small.heap_bytes


def test_build_config_latency_knobs():
    config = build_config("fast", read_ns=777, write_ns=888)
    assert config.latency.read_ns == 777
    assert config.latency.write_ns == 888


# ----------------------------------------------------------------------
# Runners
# ----------------------------------------------------------------------


@pytest.mark.parametrize("scheme", ["fast", "fastplus", "nvwal"])
def test_run_single_inserts_collects_phases(scheme):
    result = run_single_inserts(scheme, ops=120)
    assert result.ops == 120
    assert result.op_us > 0
    for phase in ("search", "page_update", "commit"):
        assert phase in result.segments_us
    assert result.counters["pm.flush"] > 0
    assert result.per_op("pm.flush") > 0


def test_run_single_inserts_latency_sensitivity():
    slow = run_single_inserts("fast", ops=120, read_ns=1200, write_ns=1200)
    fast = run_single_inserts("fast", ops=120, read_ns=120, write_ns=120)
    assert slow.op_us > fast.op_us


def test_run_single_inserts_deterministic():
    a = run_single_inserts("fastplus", ops=100, seed=5)
    b = run_single_inserts("fastplus", ops=100, seed=5)
    assert a.op_us == b.op_us
    assert a.counters == b.counters


def test_run_multi_insert_txn_grouping():
    result = run_multi_insert("fast", txns=30, per_txn=4)
    assert result.ops == 120
    assert result.params["per_txn"] == 4


def test_run_sql_statements_kinds():
    for kind in ("insert", "select"):
        result = run_sql_statements("fastplus", ops=60, kind=kind)
        assert result.segments_us.get("sql", 0) > 0
        assert result.sql_op_us > result.op_us


def test_run_sql_statements_mixed():
    result = run_sql_statements("fast", ops=60, kind="mixed", read_ratio=0.5)
    assert result.params["read_ratio"] == 0.5


def test_run_sql_statements_rejects_unknown_kind():
    with pytest.raises(ValueError):
        run_sql_statements("fast", ops=10, kind="bogus")


def test_fastplus_extras_report_commit_paths():
    result = run_single_inserts("fastplus", ops=150)
    assert result.extras["inplace_commits"] > 0
    assert (
        result.extras["inplace_commits"] + result.extras["logged_commits"] == 150
    )


# ----------------------------------------------------------------------
# Report formatting
# ----------------------------------------------------------------------


def test_format_table_alignment_and_floats():
    text = format_table(
        "Title", ["a", "long_header"], [[1, 2.3456], ["xy", 7]], note="note!"
    )
    lines = text.splitlines()
    assert lines[0] == "Title"
    assert "long_header" in lines[2]
    assert "2.35" in text
    assert text.endswith("note!")


def test_format_table_empty_rows():
    text = format_table("T", ["c"], [])
    assert "c" in text


def test_table_to_csv_round_trip():
    from repro.bench.report import table_to_csv

    text = format_table(
        "T", ["scheme", "Misc (WAL index)", "us"],
        [["fast", 1.234, "a,b"], ["nvwal", 7, 'say "hi"']],
        note="ignored note",
    )
    csv = table_to_csv(text)
    lines = csv.strip().splitlines()
    assert lines[0] == "scheme,Misc (WAL index),us"
    assert lines[1] == 'fast,1.23,"a,b"'
    assert lines[2] == 'nvwal,7,"say ""hi"""'
    assert len(lines) == 3  # the note is not data
