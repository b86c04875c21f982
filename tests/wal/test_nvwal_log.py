"""Unit tests for the NVWAL structures (diff, frames, chain, recovery)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pm import DropAll, PersistentMemory
from repro.wal.nvwal import (
    FRAME_FREE,
    FRAME_PAGE,
    FRAME_ROOT,
    NVWALog,
    encode_frame,
    word_diff,
)


def make_log(size=1 << 16):
    pm = PersistentMemory(1 << 17)
    return pm, NVWALog.format(pm, 0, size)


# ----------------------------------------------------------------------
# word_diff
# ----------------------------------------------------------------------


def test_diff_identical_is_empty():
    assert word_diff(b"\x00" * 64, b"\x00" * 64) == []


def test_diff_single_word():
    old = bytearray(64)
    new = bytearray(64)
    new[8:16] = b"CHANGED!"
    assert word_diff(old, new) == [(8, b"CHANGED!")]


def test_diff_merges_adjacent_words():
    old = bytearray(64)
    new = bytearray(64)
    new[16:32] = b"X" * 16
    assert word_diff(old, new) == [(16, b"X" * 16)]


def test_diff_splits_disjoint_ranges():
    old = bytearray(64)
    new = bytearray(64)
    new[0:8] = b"A" * 8
    new[32:40] = b"B" * 8
    ranges = word_diff(old, new)
    assert [offset for offset, _ in ranges] == [0, 32]


def test_diff_length_mismatch_rejected():
    with pytest.raises(ValueError):
        word_diff(b"\x00" * 8, b"\x00" * 16)


def test_diff_rejects_a_length_that_is_not_whole_words():
    with pytest.raises(ValueError, match="multiple of 8"):
        word_diff(b"\x00" * 12, b"\x01" * 12)


@settings(max_examples=50, deadline=None)
@given(
    old=st.binary(min_size=128, max_size=128),
    new=st.binary(min_size=128, max_size=128),
)
def test_diff_reconstructs_new_buffer(old, new):
    buffer = bytearray(old)
    for offset, data in word_diff(old, new):
        buffer[offset : offset + len(data)] = data
    assert bytes(buffer) == new


# ----------------------------------------------------------------------
# Frames and the chain
# ----------------------------------------------------------------------


def test_append_and_decode_page_frame():
    _, log = make_log()
    ranges = [(16, b"12345678"), (64, b"ABCDEFGH")]
    addr = log.append_frame(encode_frame(1, FRAME_PAGE, 9, ranges))
    assert log.frame_kind(addr) == FRAME_PAGE
    assert log.frame_page_no(addr) == 9
    assert log.frame_ranges(addr) == ranges


def test_committed_chain_survives_crash():
    pm, log = make_log()
    a1 = log.append_frame(encode_frame(1, FRAME_PAGE, 4, [(0, b"D" * 8)]))
    log.commit(1)
    log.publish([a1])
    pm.crash(DropAll())
    survivor = NVWALog.attach(pm, 0, 1 << 16)
    assert list(survivor.deltas_for(4)) == [(0, b"D" * 8)]


def test_uncommitted_tail_discarded_on_recovery():
    pm, log = make_log()
    a1 = log.append_frame(encode_frame(1, FRAME_PAGE, 4, [(0, b"A" * 8)]))
    log.commit(1)
    log.publish([a1])
    log.append_frame(encode_frame(2, FRAME_PAGE, 5, [(8, b"B" * 8)]))
    # seq 2 never committed.
    pm.crash()
    survivor = NVWALog.attach(pm, 0, 1 << 16)
    assert list(survivor.deltas_for(5)) == []
    assert list(survivor.deltas_for(4)) == [(0, b"A" * 8)]


def test_free_frame_drops_page_deltas():
    pm, log = make_log()
    a1 = log.append_frame(encode_frame(1, FRAME_PAGE, 4, [(0, b"A" * 8)]))
    a2 = log.append_frame(encode_frame(1, FRAME_FREE, 4, []))
    log.commit(1)
    log.publish([a1, a2])
    assert list(log.deltas_for(4)) == []
    pm.crash()
    survivor = NVWALog.attach(pm, 0, 1 << 16)
    assert list(survivor.deltas_for(4)) == []


def test_root_frame_recovered():
    pm, log = make_log()
    payload = [(0, (42).to_bytes(4, "little"))]
    a1 = log.append_frame(encode_frame(1, FRAME_ROOT, 0, payload))
    log.commit(1)
    log.publish([a1])
    pm.crash()
    survivor = NVWALog.attach(pm, 0, 1 << 16)
    assert survivor.roots == {0: 42}


def test_reset_frees_all_frames():
    _, log = make_log()
    for i in range(5):
        log.append_frame(encode_frame(1, FRAME_PAGE, i, [(0, b"x" * 8)]))
    free_before = log.heap.free_bytes()
    log.reset()
    assert log.heap.free_bytes() > free_before
    assert log.bytes_used == 0
    assert log.index == {}


def test_unlinked_allocations_reclaimed_at_attach():
    pm, log = make_log()
    log.append_frame(encode_frame(1, FRAME_PAGE, 1, [(0, b"y" * 8)]))
    log.commit(1)
    # Simulate a crash between pmalloc and chaining.
    log.heap.pmalloc(64)
    pm.crash()
    survivor = NVWALog.attach(pm, 0, 1 << 16)
    assert len(survivor.heap.allocated_blocks()) == 1  # only the chained frame


def test_attach_rejects_unformatted():
    pm = PersistentMemory(1 << 16)
    with pytest.raises(ValueError):
        NVWALog.attach(pm, 0, 1 << 16)


def test_deltas_accumulate_in_order():
    _, log = make_log()
    a1 = log.append_frame(encode_frame(1, FRAME_PAGE, 7, [(0, b"A" * 8)]))
    a2 = log.append_frame(encode_frame(2, FRAME_PAGE, 7, [(0, b"B" * 8)]))
    log.commit(2)
    log.publish([a1, a2])
    assert list(log.deltas_for(7)) == [(0, b"A" * 8), (0, b"B" * 8)]
