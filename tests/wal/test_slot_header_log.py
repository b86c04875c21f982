"""Unit tests for the FAST slot-header log."""

import pytest

from repro.pm import DropAll, PersistentMemory
from repro.wal import LogFullError, SlotHeaderLog


def make_log(size=4096):
    pm = PersistentMemory(8192)
    return pm, SlotHeaderLog.format(pm, 0, size)


def commit_protocol(pm, log, seq=1):
    log.write_frames()
    log.flush_frames()
    pm.sfence()
    log.commit(seq)


def test_fresh_log_is_empty():
    _, log = make_log()
    assert log.pending_bytes() == 0
    assert list(log.replay()) == []


def test_stage_and_replay_page_frames():
    pm, log = make_log()
    log.stage_page_header(3, b"HEADER-3")
    log.stage_page_header(7, b"HEADER-SEVEN")
    commit_protocol(pm, log)
    assert list(log.replay()) == [
        ("page", 3, b"HEADER-3"),
        ("page", 7, b"HEADER-SEVEN"),
    ]


def test_root_frames_round_trip():
    pm, log = make_log()
    log.stage_root_update(2, 99)
    commit_protocol(pm, log)
    assert list(log.replay()) == [("root", 2, 99)]


def test_no_commit_mark_means_no_replay():
    pm, log = make_log()
    log.stage_page_header(1, b"X" * 20)
    log.write_frames()
    log.flush_frames()
    pm.sfence()
    # No commit -> crash -> nothing to replay.
    pm.crash(DropAll())
    survivor = SlotHeaderLog.attach(pm, 0, 4096)
    assert survivor.pending_bytes() == 0
    assert list(survivor.replay()) == []


def test_commit_mark_survives_crash():
    pm, log = make_log()
    log.stage_page_header(5, b"IMG")
    commit_protocol(pm, log, seq=42)
    pm.crash(DropAll())
    survivor = SlotHeaderLog.attach(pm, 0, 4096)
    assert survivor.committed_seq() == 42
    assert list(survivor.replay()) == [("page", 5, b"IMG")]


def test_truncate_empties_log():
    pm, log = make_log()
    log.stage_page_header(1, b"A")
    commit_protocol(pm, log)
    log.truncate()
    assert log.pending_bytes() == 0
    assert list(log.replay()) == []


def test_discard_drops_staged_frames():
    pm, log = make_log()
    log.stage_page_header(1, b"A")
    log.discard()
    commit_protocol(pm, log)
    assert list(log.replay()) == []


def test_log_full_raises():
    _, log = make_log(size=64)
    with pytest.raises(LogFullError):
        for i in range(10):
            log.stage_page_header(i, b"Z" * 30)


def test_attach_rejects_unformatted():
    pm = PersistentMemory(4096)
    with pytest.raises(ValueError):
        SlotHeaderLog.attach(pm, 0, 4096)


def test_commit_is_single_atomic_word():
    """The commit mark must be one 8-byte store (the paper's
    failure-atomic unit)."""
    pm, log = make_log()
    log.stage_page_header(1, b"HDR")
    log.write_frames()
    log.flush_frames()
    pm.sfence()
    stores_before = pm.obs.registry.value("pm.store")
    log.commit(7)
    # one store for the mark (plus none others)
    assert pm.obs.registry.value("pm.store") == stores_before + 1


def test_replay_order_preserved():
    pm, log = make_log()
    for i in range(5):
        log.stage_page_header(i, bytes([i]) * 4)
    log.stage_root_update(0, 11)
    commit_protocol(pm, log)
    entries = list(log.replay())
    assert [e[1] for e in entries[:5]] == [0, 1, 2, 3, 4]
    assert entries[-1] == ("root", 0, 11)
