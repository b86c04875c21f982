"""The real system passes its own dynamic invariants, the analyzer's
self-test still fires every rule, and the harness integrations work."""

import pytest

from repro.analysis import corpus, selftest
from repro.analysis.tracecheck import TraceChecker
from repro.bench.multiclient import (
    cell_config, cell_workloads, run_multi_client,
)
from repro.testing.crashsim import (
    ScheduledRun, SingleRun, crash_at, crash_sweep, failing,
)


def test_selftest_every_rule_fires():
    assert selftest.run() == []


def _run(scheme, label, **overrides):
    """Run the :data:`corpus.CORPORA` row called ``label``."""
    (row,) = [row for row in corpus.CORPORA if row.label == label]
    return corpus.run_corpus(row._replace(**overrides), scheme)


def _clean(scheme, label):
    findings, stats = _run(scheme, label)
    assert findings == [], "\n".join(f.render() for f in findings)
    assert stats["events"] > 0 and stats["findings"] == 0
    return stats


@pytest.mark.parametrize(
    "scheme,label",
    [(scheme, row.label) for scheme in corpus.SCHEMES
     for row in corpus.CORPORA],
)
def test_every_corpus_row_is_clean(scheme, label):
    """Every row at its committed size: no checker finding, and the
    completed run (or every swept point) matches the committed-prefix
    model."""
    _clean(scheme, label)


def test_single_client_corpus_is_clean_fast():
    # One live-range window per workload item.
    assert _clean("fast", "single client")["txns"] == 54


def test_single_client_corpus_is_clean_fastplus():
    assert _clean("fastplus", "single client")["txns"] == 54


def test_scheduled_corpus_is_clean():
    # TXN_BEGIN events from the session layer.
    assert _clean("fast", "scheduled")["txns"] > 0


def test_cache_armed_locked_writer_corpus_is_clean_and_watched():
    """Only locked writers' contexts touch the warmed tier here, and
    the frames were filled before the checker attached: TC111 must see
    those hits — clean on the real engine, and flagged once installs
    stop invalidating, when the run's state also leaves the committed
    model (TC000)."""
    from repro.analysis.mutants import skip_cache_invalidate

    for scheme in corpus.SCHEMES:
        assert _clean(scheme, "scheduled cached")["txns"] > 0
    with skip_cache_invalidate():
        findings, _ = _run("fast", "scheduled cached")
    assert {f.rule for f in findings} == {"TC111", "TC000"}


def test_a_run_off_the_committed_model_is_a_tc000_finding():
    """The model check is part of every row: a shape that forgets a
    committed item fails its row with TC000 and nothing else."""

    class Forgetful(SingleRun):
        def run(self):
            super().run()
            self.committed.pop(next(iter(self.committed)))

    findings, _ = _run("fast", "single client",
                       shape=lambda s: Forgetful(s, corpus._workload(6)))
    assert [f.rule for f in findings] == ["TC000"]
    assert "phantom key" in findings[0].message


def test_crash_swept_corpus_is_clean():
    _clean("fast", "crash swept")


def test_sharded_scheduled_corpus_is_clean_fast():
    _clean("fast", "sharded")


def test_sharded_scheduled_corpus_is_clean_fastplus():
    _clean("fastplus", "sharded")


def test_sharded_crash_swept_corpus_is_clean():
    _clean("fast", "sharded crash swept")


def test_crash_sweep_checker_factory_hook():
    checkers = []

    def factory(engine):
        checker = TraceChecker.for_engine(engine)
        checkers.append(checker)
        return checker

    workload = [("insert", b"k%d" % i, bytes(24)) for i in range(3)]
    failures = failing(crash_sweep(
        SingleRun("fast", workload), stride=17, seeds=(0,), max_points=4,
        checker_factory=factory,
    ))
    assert failures == []
    assert len(checkers) == 1, "one checker rides the one execution"
    for checker in checkers:
        assert checker.trace is None  # sealed when the run ended
        assert checker.finish() == []


def test_multi_client_bench_trace_check_hook():
    """A bench cell is trace-checked through the crash driver: its
    workloads and preload as a ``ScheduledRun``, its sized config."""
    workloads, rows = cell_workloads(clients=2, items=5)
    shape = ScheduledRun("fast", workloads, preload=rows)
    result = crash_at(
        shape, None, config=cell_config("fast", clients=2, items=5),
        checker_factory=lambda engine: TraceChecker.for_engine(
            engine, invariants=("flush", "atomic", "twopl"),
        ),
    )
    assert result.ok, result.violations
    assert shape.checker.finish() == []
    stats = shape.checker.stats
    assert stats["txns"] > 0 and stats["events"] > 0


def test_multi_client_bench_report_unchanged_without_checker():
    """Measuring never checks: the report carries no verdict."""
    result = run_multi_client("fast", clients=2, items=5)
    assert "trace_check" not in result
