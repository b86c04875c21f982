"""FAST⁺'s RTM fallback policy: retry, then slot-header logging.

The paper (footnote 1): "if an RTM transaction fails, our fallback
handler retries the RTM transaction until it succeeds. Alternatively,
we can implement a handler that falls back to slot-header logging if
RTM transactions continuously fail."  Both behaviours are implemented
and tested here.
"""

from repro.core import open_engine
from tests.core.conftest import small_config


def make_engine(**overrides):
    return open_engine(small_config(scheme="fastplus", **overrides))


def test_transient_aborts_are_retried():
    engine = make_engine()
    attempts = {"n": 0}

    def flaky(attempt):
        attempts["n"] += 1
        return attempt < 3  # abort twice, then succeed

    engine.rtm.abort_injector = flaky
    engine.insert(b"k1", b"v1")
    assert engine.search(b"k1") == b"v1"
    assert engine.registry.value("rtm.abort") >= 2
    assert engine.rtm_fallbacks == 0


def test_persistent_aborts_fall_back_to_logging():
    engine = make_engine()
    engine.rtm_max_retries = 4
    engine.rtm.abort_injector = lambda attempt: True  # RTM never works
    engine.insert(b"k2", b"v2")
    assert engine.search(b"k2") == b"v2"
    assert engine.rtm_fallbacks == 1
    assert engine.inplace_commits == 0


def test_fallback_commit_is_durable():
    engine = make_engine()
    engine.rtm_max_retries = 2
    engine.rtm.abort_injector = lambda attempt: True
    for i in range(20):
        engine.insert(b"%03d" % i, b"v%d" % i)
    pm = engine.pm
    pm.crash()
    from repro.core import engine_class

    recovered = engine_class("fastplus").attach(
        small_config(scheme="fastplus"), pm
    )
    assert recovered.verify() == 20
    assert recovered.search(b"007") == b"v7"


def test_fallback_engages_per_commit_not_permanently():
    engine = make_engine()
    engine.rtm_max_retries = 2
    flaky_window = {"on": True}
    engine.rtm.abort_injector = lambda attempt: flaky_window["on"]
    engine.insert(b"a", b"1")          # falls back
    flaky_window["on"] = False
    engine.insert(b"b", b"2")          # in-place again
    assert engine.rtm_fallbacks == 1
    assert engine.inplace_commits >= 1


def test_clwb_keeps_line_resident():
    """The clwb primitive (paper Figure 3) persists without evicting."""
    from repro.pm import DropAll, PersistentMemory

    pm = PersistentMemory(4096)
    pm.write(0, b"payload!")
    pm.clwb(0)
    pm.sfence()
    misses_before = pm.obs.registry.value("pm.load_miss")
    assert pm.read(0, 8) == b"payload!"        # still a cache hit
    assert pm.obs.registry.value("pm.load_miss") == misses_before
    pm.crash(DropAll())
    assert pm.read(0, 8) == b"payload!"        # and durable
