"""Parallel sweep runner: byte-identity with serial, and the no-trace
fast mode's counter-exactness guarantee.

The determinism contract says a figure is a pure function of its grid:
per-cell seeds, no host-dependent state.  These tests pin the two
equivalences the optimisation work leans on:

* ``run_cells(..., parallel=True)`` returns results identical (ordering,
  segments, counters) to the serial loop — so ``--parallel`` can never
  change a figure;
* ``obs.tracing(False)`` elides only the event ring — every registry
  counter and the simulated clock stay byte-identical to a traced run.
"""

import pathlib

from repro.bench import parallel
from repro.bench.figures import FIGURES, fig6
from repro.bench.harness import build_config
from repro.bench.parallel import cell, run_cells
from repro.bench.workloads import random_keys, sized_payload
from repro.core import open_engine

OPS = 200


def _grid_cells():
    """A small 4-cell (scheme x latency) grid."""
    return [
        cell("run_single_inserts", scheme=scheme, ops=OPS,
             read_ns=read_ns, write_ns=read_ns)
        for read_ns in (120, 300)
        for scheme in ("fast", "nvwal")
    ]


def test_parallel_matches_serial_cell_for_cell():
    serial = run_cells(_grid_cells(), parallel=False)
    fanned = run_cells(_grid_cells(), parallel=True, jobs=2)
    assert len(serial) == len(fanned) == 4
    for expect, got in zip(serial, fanned):
        assert got.scheme == expect.scheme
        assert got.params == expect.params
        assert got.segments_us == expect.segments_us  # exact, not approx
        assert got.counters == expect.counters
        assert got.extras == expect.extras


def test_parallel_preserves_declared_grid_order():
    results = run_cells(_grid_cells(), parallel=True, jobs=2)
    assert [(r.params["read_ns"], r.scheme) for r in results] == [
        (120, "fast"), (120, "nvwal"), (300, "fast"), (300, "nvwal"),
    ]


def test_figure_output_byte_identical():
    serial = fig6(ops=OPS)
    parallel.configure(parallel=True, jobs=2)
    try:
        fanned = fig6(ops=OPS)
    finally:
        parallel.configure(parallel=False)
    assert fanned["table"] == serial["table"]
    assert list(fanned["data"]) == list(serial["data"])
    for key in serial["data"]:
        assert fanned["data"][key].segments_us == serial["data"][key].segments_us
        assert fanned["data"][key].counters == serial["data"][key].counters


def test_configure_controls_mode():
    parallel.configure(parallel=False)
    assert not parallel.is_parallel()
    parallel.configure(parallel=True)
    try:
        assert parallel.is_parallel()
    finally:
        parallel.configure(parallel=False)


def test_every_results_table_is_named_by_its_generator():
    """One name per table: each ``results/`` stem is a ``FIGURES`` key,
    so ``python -m repro.bench all --out results`` rewrites them all."""
    results = pathlib.Path(__file__).resolve().parents[2] / "results"
    assert {path.stem for path in results.glob("*.txt")} == set(FIGURES)


def _run_workload(traced):
    config = build_config("fastplus", ops=OPS)
    engine = open_engine(config, scheme="fastplus")
    if not traced:
        engine.obs.tracing(False)
    seq_at_start = engine.trace.seq
    payload = sized_payload(64)
    for key in random_keys(OPS, seed=7):
        engine.insert(key, payload)
    return engine, seq_at_start


def test_tracing_off_keeps_every_counter_exact():
    traced, _ = _run_workload(traced=True)
    silent, silent_seq = _run_workload(traced=False)
    # Registry counters, gauges, histograms: byte-identical.
    assert silent.obs.registry.snapshot() == traced.obs.registry.snapshot()
    # The simulated clock and its segment attribution too.
    assert silent.clock.now_ns == traced.clock.now_ns
    assert silent.clock.segments() == traced.clock.segments()
    # Only the event ring is elided: the traced run records thousands
    # of events over the workload; the silent run records none (its
    # ring holds only what engine open emitted before the toggle).
    assert traced.trace.seq > silent_seq
    assert silent.trace.seq == silent_seq
    assert silent.trace.events(since_seq=silent_seq) == []
