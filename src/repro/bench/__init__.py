"""Benchmark harness: workloads, runners, and paper-figure generators.

Every figure of the paper's evaluation has a generator in
``repro.bench.figures``, named by its ``results/`` stem: ``python -m
repro.bench fig06 --out results`` is the one way a ``results/`` table
is made.  All reported times are *simulated* microseconds from the
engines' cost-accounted clocks — deterministic for a given seed and
independent of the host machine.
"""

from repro.bench.harness import (
    RunResult,
    build_config,
    run_multi_insert,
    run_single_inserts,
    run_sql_statements,
)
from repro.bench.workloads import random_keys, sized_payload

__all__ = [
    "RunResult",
    "build_config",
    "random_keys",
    "run_multi_insert",
    "run_single_inserts",
    "run_sql_statements",
    "sized_payload",
]
