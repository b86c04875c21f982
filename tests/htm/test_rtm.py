"""Unit tests for the RTM (hardware transactional memory) emulation."""

import pytest

from repro.htm import RTM, RTMAbort
from repro.pm import CACHE_LINE, DropAll, PersistentMemory


def make():
    pm = PersistentMemory(4096)
    return pm, RTM(pm)


def test_committed_writes_become_visible():
    pm, rtm = make()

    def body(txn):
        txn.write(0, b"atomic!!")

    rtm.execute(body)
    assert pm.read(0, 8) == b"atomic!!"


def test_writes_apply_only_after_commit():
    pm, rtm = make()
    seen = {}

    def body(txn):
        txn.write(0, b"inside")
        seen["mid"] = pm.read(0, 6)  # non-transactional peek

    rtm.execute(body)
    assert seen["mid"] == bytes(6)
    assert pm.read(0, 6) == b"inside"


def test_aborted_transaction_leaves_no_trace():
    pm, rtm = make()

    def body(txn):
        txn.write(0, b"ghost")
        txn.abort()

    with pytest.raises(RTMAbort):
        rtm.execute(body)
    assert pm.read(0, 5) == bytes(5)


def test_capacity_abort_on_second_line():
    pm, rtm = make()

    def body(txn):
        txn.write(0, b"a")
        txn.write(CACHE_LINE, b"b")

    with pytest.raises(RTMAbort) as excinfo:
        rtm.execute(body)
    assert excinfo.value.reason == "capacity"
    assert pm.obs.registry.value("rtm.abort.capacity") == 1


def test_write_spanning_two_lines_aborts():
    pm, rtm = make()

    def body(txn):
        txn.write(CACHE_LINE - 4, b"12345678")

    with pytest.raises(RTMAbort):
        rtm.execute(body)


def test_larger_write_set_allowed_when_configured():
    pm = PersistentMemory(4096)
    rtm = RTM(pm, max_write_lines=2)

    def body(txn):
        txn.write(0, b"a")
        txn.write(CACHE_LINE, b"b")

    rtm.execute(body)
    assert pm.read(CACHE_LINE, 1) == b"b"


def test_read_your_writes_inside_transaction():
    pm, rtm = make()
    pm.write(0, b"\x01\x00")
    pm.persist(0, 2)

    def body(txn):
        value = txn.read_u16(0)
        txn.write_u16(0, value + 1)
        assert txn.read_u16(0) == value + 1

    rtm.execute(body)
    assert pm.read_u16(0) == 2


def test_transient_abort_retried_until_success():
    pm = PersistentMemory(4096)
    rtm = RTM(pm, abort_injector=lambda attempt: attempt < 3)

    def body(txn):
        txn.write(0, b"done")

    rtm.execute(body)
    assert pm.read(0, 4) == b"done"
    assert pm.obs.registry.value("rtm.abort") == 2
    assert pm.obs.registry.value("rtm.commit") == 1


def test_fallback_invoked_after_retry_budget():
    pm = PersistentMemory(4096)
    rtm = RTM(pm, abort_injector=lambda attempt: True)
    calls = []

    rtm.execute(lambda txn: None, max_retries=2, fallback=lambda: calls.append(1))
    assert calls == [1]
    assert pm.obs.registry.value("rtm.fallback") == 1


def test_capacity_abort_goes_straight_to_fallback():
    pm, rtm = make()
    attempts = []

    def body(txn):
        attempts.append(1)
        txn.write(0, b"a")
        txn.write(CACHE_LINE, b"b")

    rtm.execute(body, max_retries=10, fallback=lambda: "fell back")
    assert len(attempts) == 1  # deterministic abort: no retry


def test_clflush_inside_transaction_is_rejected():
    pm, rtm = make()

    def body(txn):
        txn.write(0, b"x")
        pm.clflush(0)

    with pytest.raises(RuntimeError):
        rtm.execute(body)
    assert pm.flush_forbidden is False  # flag restored


def test_crash_before_commit_loses_rtm_writes():
    pm, rtm = make()

    def body(txn):
        txn.write(0, b"half")
        pm.crash(DropAll())  # power failure mid-transaction
        txn.abort()

    with pytest.raises(RTMAbort):
        rtm.execute(body)
    assert pm.durable_bytes(0, 4) == bytes(4)


def test_committed_line_is_all_or_nothing_under_line_atomicity():
    """The combination the paper relies on: RTM + line-atomic writeback
    means a multi-word slot-header update can never persist torn."""
    from repro.pm import PersistSubset

    for survives in (set(), {(0, 0)}):
        pm = PersistentMemory(4096, atomic_granularity=CACHE_LINE)
        rtm = RTM(pm)
        pm.write(0, b"\x01" * 32)
        pm.persist(0, 32)

        def body(txn):
            txn.write(0, b"\x02" * 32)

        rtm.execute(body)
        pm.crash(PersistSubset(survives))
        assert pm.read(0, 32) in (b"\x01" * 32, b"\x02" * 32)


def test_stats_mirrored_into_memory_stats():
    pm, rtm = make()
    rtm.execute(lambda txn: txn.write(0, b"x"))
    assert pm.obs.registry.value("rtm.begin") == 1
    assert pm.obs.registry.value("rtm.commit") == 1


def test_rtm_charges_time():
    pm, rtm = make()
    before = pm.clock.now_ns
    rtm.execute(lambda txn: txn.write(0, b"x"))
    assert pm.clock.now_ns - before >= pm.cost.rtm_begin_ns + pm.cost.rtm_commit_ns
