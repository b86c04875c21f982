"""Checks of the ledger itself, at ``--quick`` sizes.

Not part of the tier-1 suite (``testpaths = tests``); run with

    PYTHONPATH=src python -m pytest benchmarks/ledger
"""

import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import measure  # noqa: E402
import metrics  # noqa: E402
import run as ledger  # noqa: E402
from workloads import WORKLOADS, cells_of  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def _run(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--quick",
         "--seed", "11", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.fixture(scope="module")
def results():
    """``{(workload, trace): parsed last line}`` of every quick run."""
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            child = _run(workload, trace)
            assert child.returncode == 0, child.stderr
            out[workload, trace] = json.loads(child.stdout.splitlines()[-1])
    return out


def test_declaration_is_within_the_contract():
    assert set(DECLARED) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert DECLARED["paths"] == ["benchmarks/ledger"]
    assert 2 <= len(DECLARED["workloads"]) <= 8
    assert 1 <= len(DECLARED["end_to_end"]) <= 16
    assert 1 <= len(DECLARED["per_layer"]) <= 128
    names = [m["name"] for kind in ("workloads", "end_to_end", "per_layer")
             for m in DECLARED[kind]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(0 < m["bound"] <= 0.25 for m in DECLARED["end_to_end"])
    setup = [m for m in DECLARED["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    runs = 4 + 22 * len(DECLARED["workloads"])
    assert runs * (DECLARED["run_seconds"] + 5) <= 3420


def test_declared_workloads_are_the_ledgers():
    assert {w["name"]: w["why"] for w in DECLARED["workloads"]} == {
        name: why for name, (why, _) in WORKLOADS.items()
    }


def test_every_declared_metric_is_emitted_for_every_workload(results):
    for (workload, trace), result in results.items():
        kind = "per_layer" if trace else "end_to_end"
        declared = {m["name"]: m["unit"] for m in DECLARED[kind]}
        emitted = {n: m["unit"] for n, m in result["metrics"].items()}
        assert emitted == declared, (workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}


def test_no_item_fails_and_simulated_results_repeat(results):
    for key, result in results.items():
        assert result["correct"] and result["failed"] == 0, key
        assert result["attempted"] >= 1


def test_end_to_end_metrics_are_never_zero(results):
    for workload in WORKLOADS:
        for name, metric in results[workload, 0]["metrics"].items():
            assert metric["value"] > 0, (workload, name)


def _layer(results, workload, prefix):
    return {name: m["value"]
            for name, m in results[workload, 1]["metrics"].items()
            if name.startswith(prefix)}


def test_bypassed_layers_do_no_work(results):
    """The predictions a later optimisation is judged against: a
    layer's counters stay zero on the workloads that bypass it."""
    for prefix in ("lock.", "sched.", "mvcc.", "cache.", "occ.", "twopc."):
        assert not any(_layer(results, "insert_1c", prefix).values()), prefix
    for workload in WORKLOADS:
        if workload != "readhot_8c_mvcc":
            assert not any(_layer(results, workload, "cache.").values())
        if workload != "shard4_8c_2pc":
            assert not any(_layer(results, workload, "twopc.").values())
        if workload != "occ_8c":
            assert not any(_layer(results, workload, "occ.").values())
    assert all(_layer(results, "readhot_8c_mvcc", "cache.hit_ratio").values())
    assert _layer(results, "shard4_8c_2pc", "twopc.")["twopc.prepares_per_txn"]
    assert _layer(results, "mixed_8c_2pl", "lock.")["lock.acquires_per_txn"]
    shares = _layer(results, "insert_1c", "host_self_share.")
    assert abs(sum(shares.values()) - 1.0) < 1e-9
    assert shares["host_self_share.core.locking"] == 0
    assert shares["host_self_share.pm.memory"] > 0.1


def test_traced_run_reproduces_the_plain_run():
    cells = cells_of("occ_8c", quick=True)
    inputs = [measure.Inputs.make(cell, 3) for cell in cells]
    plain = measure.run_rep(cells, inputs)
    spans = []
    traced = measure.run_rep(cells, inputs, traced=True, spans=spans)
    assert (measure.simulated_signature(plain)
            == measure.simulated_signature(traced))
    assert [c["sim_ns"] for c in plain] == [c["sim_ns"] for c in traced]
    # One latency per committed item; step spans tile the timed span.
    for cell, result in zip(cells, traced):
        assert len(result["latencies_ns"]) == result["commits"]
        steps = [s for s in spans
                 if s["name"] == "step" and s["cell"] == cell.name]
        timed, = [s for s in spans
                  if s["name"] == "timed" and s["cell"] == cell.name]
        assert steps[0]["sim_start_ns"] == timed["sim_start_ns"]
        assert steps[-1]["sim_end_ns"] == timed["sim_end_ns"]
        assert all(a["sim_end_ns"] == b["sim_start_ns"]
                   for a, b in zip(steps, steps[1:]))


def test_same_seed_same_inputs_other_seed_other_inputs():
    cell = cells_of("mixed_8c_2pl", quick=True)[0]
    assert measure.Inputs.make(cell, 5) == measure.Inputs.make(cell, 5)
    assert measure.Inputs.make(cell, 5) != measure.Inputs.make(cell, 6)


def test_oracle_counts_wrong_missing_and_extra_keys():
    from repro.core import open_engine
    from workloads import cell_config

    engine = open_engine(cell_config(cells_of("mixed_8c_2pl", quick=True)[0]))
    engine.insert(b"a", b"1")
    engine.insert(b"b", b"2")
    assert measure._mismatches(engine, {b"a": b"1", b"b": b"2"}) == 0
    assert measure._mismatches(engine, {b"a": b"1"}) == 1
    assert measure._mismatches(
        engine, {b"a": b"1", b"b": b"X", b"c": b"3"}) == 2


def test_compare_sets_names_the_offending_metric():
    first = {"w": {"sim_txn_p50_us": 2.0, "host_txn_per_s": 100.0,
                   "host_self_share.obs": 0.1}}
    same = {"w": {"sim_txn_p50_us": 2.0, "host_txn_per_s": 95.0,
                  "host_self_share.obs": 0.3}}
    assert ledger.compare_sets(first, same, DECLARED) == []
    worse = {"w": {"sim_txn_p50_us": 2.0000001, "host_txn_per_s": 50.0,
                   "host_self_share.obs": 0.1}}
    offending = ledger.compare_sets(first, worse, DECLARED)
    assert {(name, workload) for name, workload, _, _ in offending} == {
        ("sim_txn_p50_us", "w"), ("host_txn_per_s", "w")}
    assert not metrics.is_host_clock("recovery_sim_us")
    assert metrics.is_host_clock("prim.pm.sfence.host_ns")


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    child = _run("insert_1c", 0, cwd=tmp_path,
                 script=tmp_path / "benchmarks" / "ledger" / "run.py")
    assert child.returncode != 0
    assert child.stdout == ""
