"""Unit tests for the simulated clock."""

from repro.pm import SimClock


def test_advance_accumulates():
    clock = SimClock()
    clock.advance(10)
    clock.advance(5.5)
    assert clock.now_ns == 15.5


def test_non_positive_advance_is_ignored():
    clock = SimClock()
    clock.advance(0)
    clock.advance(-3)
    assert clock.now_ns == 0


def test_segment_attribution():
    clock = SimClock()
    with clock.segment("commit"):
        clock.advance(100)
    clock.advance(50)
    assert clock.elapsed("commit") == 100
    assert clock.now_ns == 150


def test_nested_segments_charge_all_open():
    clock = SimClock()
    with clock.segment("commit"):
        clock.advance(10)
        with clock.segment("log_flush"):
            clock.advance(30)
    assert clock.elapsed("commit") == 40
    assert clock.elapsed("log_flush") == 30


def test_same_segment_reentered_accumulates():
    clock = SimClock()
    for _ in range(3):
        with clock.segment("search"):
            clock.advance(7)
    assert clock.elapsed("search") == 21


def test_snapshot_and_since():
    clock = SimClock()
    with clock.segment("a"):
        clock.advance(5)
    snap = clock.snapshot()
    with clock.segment("a"):
        clock.advance(2)
    with clock.segment("b"):
        clock.advance(3)
    elapsed, deltas = clock.since(snap)
    assert elapsed == 5
    assert deltas == {"a": 2, "b": 3}


def test_since_omits_unchanged_segments():
    clock = SimClock()
    with clock.segment("a"):
        clock.advance(5)
    snap = clock.snapshot()
    clock.advance(1)
    _, deltas = clock.since(snap)
    assert "a" not in deltas


def test_reset_zeroes_everything():
    clock = SimClock()
    with clock.segment("x"):
        clock.advance(9)
    clock.reset()
    assert clock.now_ns == 0
    assert clock.segments() == {}


def test_segment_closed_on_exception():
    clock = SimClock()
    try:
        with clock.segment("x"):
            raise ValueError
    except ValueError:
        pass
    clock.advance(10)
    assert clock.elapsed("x") == 0


def test_readers_include_the_open_portion_of_open_segments():
    clock = SimClock()
    with clock.segment("commit"):
        clock.advance(10)
        snap = clock.snapshot()
        with clock.segment("log_flush"):
            clock.advance(30)
            assert clock.elapsed("commit") == 40
            assert clock.elapsed("log_flush") == 30
            assert clock.segments() == {"commit": 40, "log_flush": 30}
            assert clock.since(snap) == (30, {"commit": 30, "log_flush": 30})
    assert clock.segments() == {"commit": 40, "log_flush": 30}


def test_reentrant_same_name_nesting_counts_once():
    clock = SimClock()
    seen = []
    clock.add_observer(lambda name, ns: seen.append((name, ns)))
    with clock.segment("x"):
        clock.advance(1)
        with clock.segment("x"):
            clock.advance(2)
            assert clock.elapsed("x") == 3
        clock.advance(4)
    assert clock.elapsed("x") == 7
    assert seen == [("x", 2), ("x", 7)]


def test_charges_touch_only_now():
    """A charge is one add to ``now_ns``: buckets move only when a
    segment closes."""
    clock = SimClock()
    with clock.segment("x"):
        clock.advance(5)
        assert clock._buckets == {}
    assert clock._buckets == {"x": 5}


def test_reset_inside_an_open_segment_counts_from_the_reset():
    clock = SimClock()
    with clock.segment("x"):
        clock.advance(9)
        clock.reset()
        clock.advance(2)
        assert clock.elapsed("x") == 2
    assert clock.segments() == {"x": 2}


def test_an_uncharged_segment_has_no_bucket():
    clock = SimClock()
    with clock.segment("idle"):
        assert clock.segments() == {}
    assert clock.segments() == {}
    assert clock.elapsed("idle") == 0
