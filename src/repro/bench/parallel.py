"""Parallel sweep runner: fan benchmark grid cells out over processes.

Every figure of the evaluation is a *grid* — (scheme x latency) or
(scheme x record size) — and every cell is an independent simulation:
it builds its own arena, engine, and observability stack from an
explicit seed, and shares no state with any other cell.  That makes
the sweep embarrassingly parallel, with one hard requirement carried
over from the reproduction's determinism contract: the merged output
must be **byte-identical** to a serial run.

The design follows from that requirement:

* a cell is a *description* — ``(harness function name, kwargs)`` —
  not a closure, so it pickles cheaply and identically everywhere;
* every per-cell seed is part of those kwargs (the harness defaults
  them), so a worker process computes exactly what the serial loop
  would compute;
* results come back through ``Pool.map``, which preserves submission
  order, and cells are submitted in declared grid order — merging is
  the identity.

Simulated results never depend on the host (no wall-clock, no hash
iteration, no OS randomness feeds the model), so running a cell in a
fork, a spawn, or inline yields the same ``RunResult`` bit for bit;
``tests/bench/test_parallel.py`` pins that equivalence.

The module-level mode set by :func:`configure` is what the figure
generators consult, so ``python -m repro.bench --parallel fig06``
reaches every sweep without threading a flag through each generator's
signature.
"""

import multiprocessing
import os

#: Runtime mode, set by :func:`configure` (the CLI's ``--parallel``).
_MODE = {"parallel": False, "jobs": None}


def configure(parallel=None, jobs=None):
    """Set the process-wide sweep mode (``None`` leaves a knob as is)."""
    if parallel is not None:
        _MODE["parallel"] = bool(parallel)
    if jobs is not None:
        _MODE["jobs"] = max(1, int(jobs))


def is_parallel():
    """True if grid sweeps should fan out over worker processes."""
    return _MODE["parallel"]


def cell(fn_name, **kwargs):
    """Describe one grid cell: a ``repro.bench.harness`` function by
    name plus its keyword arguments (seeds included via defaults)."""
    return (fn_name, kwargs)


def _run_cell(spec):
    """Worker body: resolve the harness function and run one cell."""
    fn_name, kwargs = spec
    from repro.bench import harness

    return getattr(harness, fn_name)(**kwargs)


def run_cells(cells, parallel=None, jobs=None):
    """Run grid ``cells`` and return their results in declared order.

    ``parallel``/``jobs`` default to the configured mode.  The serial
    path is a plain loop over the same ``_run_cell`` the workers use,
    so both paths execute identical per-cell code — the parallel run's
    figure output is byte-identical to the serial run's.
    """
    cells = list(cells)
    if parallel is None:
        parallel = is_parallel()
    if not parallel or len(cells) <= 1:
        return [_run_cell(spec) for spec in cells]
    jobs = min(jobs or _MODE["jobs"] or os.cpu_count() or 1, len(cells))
    if jobs <= 1:
        return [_run_cell(spec) for spec in cells]
    # fork shares the already-imported simulator with the workers;
    # spawn (the only option on some platforms) re-imports it.  Either
    # way each cell builds its own engine, so results are identical.
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context(
        "fork" if "fork" in methods else methods[0]
    )
    with ctx.Pool(processes=jobs) as pool:
        # Pool.map preserves submission order: result[i] is cells[i].
        return pool.map(_run_cell, cells, chunksize=1)
