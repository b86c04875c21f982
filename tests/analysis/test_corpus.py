"""The real system passes its own dynamic invariants, the analyzer's
self-test still fires every rule, and the harness integrations work."""

from repro.analysis import corpus, selftest
from repro.analysis.tracecheck import TraceChecker
from repro.bench.multiclient import run_multi_client
from repro.testing.crashsim import run_crash_sweep


def test_selftest_every_rule_fires():
    assert selftest.run() == []


def test_single_client_corpus_is_clean_fast():
    findings, stats = corpus.run_single_client("fast")
    assert findings == [], "\n".join(f.render() for f in findings)
    assert stats["txns"] > 0 and stats["events"] > 0


def test_single_client_corpus_is_clean_fastplus():
    findings, stats = corpus.run_single_client("fastplus")
    assert findings == [], "\n".join(f.render() for f in findings)
    assert stats["txns"] > 0


def test_scheduled_corpus_is_clean():
    findings, stats = corpus.run_scheduled("fast", clients=3, items=6)
    assert findings == [], "\n".join(f.render() for f in findings)
    assert stats["txns"] > 0  # TXN_BEGIN events from the session layer


def test_cache_armed_locked_writer_corpus_is_clean_and_watched():
    """Only locked writers' contexts touch the warmed tier here, and
    the frames were filled before the checker attached: TC111 must see
    those hits — clean on the real engine, and flagged once installs
    stop invalidating."""
    from repro.analysis.mutants import skip_cache_invalidate
    from repro.core import SystemConfig

    cached = SystemConfig(dram_cache_pages=16, **corpus.SMALL_CONFIG)
    for scheme in corpus.SCHEMES:
        findings, stats = corpus.run_scheduled(scheme, config=cached)
        assert findings == [], "\n".join(f.render() for f in findings)
        assert stats["txns"] > 0
    with skip_cache_invalidate():
        findings, _ = corpus.run_scheduled("fast", config=cached)
    assert findings and {f.rule for f in findings} == {"TC111"}


def test_crash_swept_corpus_is_clean():
    findings, stats = corpus.run_crash_swept(
        "fast", items=3, stride=11, max_points=8,
    )
    assert findings == [], "\n".join(f.render() for f in findings)
    assert stats["events"] > 0


def test_sharded_scheduled_corpus_is_clean_fast():
    findings, stats = corpus.run_sharded_scheduled(
        "fast", shards=2, clients=3, items=6,
    )
    assert findings == [], "\n".join(f.render() for f in findings)
    assert stats["events"] > 0


def test_sharded_scheduled_corpus_is_clean_fastplus():
    findings, stats = corpus.run_sharded_scheduled(
        "fastplus", shards=2, clients=3, items=6,
    )
    assert findings == [], "\n".join(f.render() for f in findings)
    assert stats["events"] > 0


def test_sharded_crash_swept_corpus_is_clean():
    findings, stats = corpus.run_sharded_crash_swept(
        "fast", shards=2, stride=13, max_points=10,
    )
    assert findings == [], "\n".join(f.render() for f in findings)
    assert stats["events"] > 0


def test_crash_sweep_checker_factory_hook():
    checkers = []

    def factory(engine):
        checker = TraceChecker.for_engine(engine)
        checkers.append(checker)
        return checker

    failures = run_crash_sweep(
        "fast", [("insert", b"k%d" % i, bytes(24)) for i in range(3)],
        stride=17, seeds=(0,), max_points=4, checker_factory=factory,
    )
    assert failures == []
    assert len(checkers) == 1, "one checker rides the one execution"
    for checker in checkers:
        assert checker.trace is None  # sealed when the run ended
        assert checker.finish() == []


def test_multi_client_bench_trace_check_hook():
    result = run_multi_client(
        "fast", clients=2, items=5,
        checker_factory=lambda engine: TraceChecker.for_engine(
            engine, invariants=("flush", "atomic", "twopl"),
        ),
    )
    assert result["trace_check"]["findings"] == []
    stats = result["trace_check"]["stats"]
    assert stats["txns"] > 0 and stats["events"] > 0


def test_multi_client_bench_report_unchanged_without_checker():
    result = run_multi_client("fast", clients=2, items=5)
    assert "trace_check" not in result
