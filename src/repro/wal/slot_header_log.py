"""The Failure-Atomic Slot-Header log (paper Section 3.3).

Layout of the log region::

    +0   u32  magic
    +8   u64  commit word:  low 32 bits = valid byte count ("tail"),
              high 32 bits = transaction sequence number
    +16  frame bytes ...

Commit protocol (exactly the paper's ordering argument):

1. frames — the updated slot-header of every dirty page, plus any root
   pointer updates — are *written* past the current tail in any order;
2. the frames (and, before them, the in-place record writes in the
   pages) are flushed and fenced;
3. the **commit mark** — a single 8-byte-atomic store of the new
   (tail, seq) word — is written, flushed, and fenced.

A crash before step 3 leaves tail = 0, so the frames are garbage and
"the log entries are all meaningless unless we have a valid commit
mark".  A crash after step 3 is recovered by replaying the frames
(checkpointing is idempotent).  After the eager checkpoint the tail is
reset to zero with another atomic store.

Frame encodings::

    PAGE frame:  u8 0x01 | u32 page_no | u16 image_len | image bytes
    ROOT frame:  u8 0x02 | u32 root_slot | u32 page_no
"""

from repro.obs import trace as ev

_MAGIC = 0x57A6_10D0
_OFF_MAGIC = 0
_OFF_COMMIT = 8
_FRAMES_BASE = 16

_FRAME_PAGE = 0x01
_FRAME_ROOT = 0x02
_PAGE_FRAME_OVERHEAD = 7   # kind, page_no, image_len
_ROOT_FRAME_SIZE = 9


class LogFullError(Exception):
    """A transaction's frames exceed the log region."""


class SlotHeaderLog:
    """The FAST redo log over ``[base, base + size)`` of a PM arena."""

    def __init__(self, pm, base, size):
        self.pm = pm
        self.base = base
        self.size = size
        handle = pm.obs.registry.counter_handle
        self._c_frame = handle("log.frame")
        self._c_commit_mark = handle("log.commit_mark")
        self._c_truncate = handle("log.truncate")
        self._staged = []
        self._staged_bytes = 0
        # Group commit: frames of epoch members that already wrote +
        # flushed their slice of the log but whose shared commit mark
        # has not been published yet.  The next member's frames land
        # after this prefix; the group mark's tail covers all of it.
        self._group_bytes = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @classmethod
    def format(cls, pm, base, size):
        log = cls(pm, base, size)
        pm.write_u32(base + _OFF_MAGIC, _MAGIC)
        pm.write_u64(base + _OFF_COMMIT, 0)
        pm.persist(base, _FRAMES_BASE)
        return log

    @classmethod
    def attach(cls, pm, base, size):
        if pm.read_u32(base + _OFF_MAGIC) != _MAGIC:
            raise ValueError("no slot-header log at %#x" % base)
        return cls(pm, base, size)

    # ------------------------------------------------------------------
    # Writing a transaction (called while committing)
    # ------------------------------------------------------------------

    def stage_page_header(self, page_no, image):
        """Queue a page's updated slot header for the next commit."""
        self.check_room([len(image)])
        frame = (
            bytes([_FRAME_PAGE])
            + page_no.to_bytes(4, "little")
            + len(image).to_bytes(2, "little")
            + image
        )
        self._stage(frame)

    def stage_root_update(self, root_slot, page_no):
        """Queue a named-root pointer update for the next commit."""
        self.check_room((), 1)
        frame = (
            bytes([_FRAME_ROOT])
            + root_slot.to_bytes(4, "little")
            + page_no.to_bytes(4, "little")
        )
        self._stage(frame)

    def check_room(self, header_lengths, root_updates=0):
        """Raise :class:`LogFullError` unless the frames of slot
        headers ``header_lengths`` bytes long and of ``root_updates``
        root updates fit past the tail."""
        need = (sum(header_lengths) + _ROOT_FRAME_SIZE * root_updates
                + _PAGE_FRAME_OVERHEAD * len(header_lengths))
        room = self.size - _FRAMES_BASE - self._group_bytes - self._staged_bytes
        if need > room:
            raise LogFullError(
                "transaction needs %d log bytes but only %d remain"
                % (need, room)
            )

    def _stage(self, frame):
        self._staged.append(frame)
        self._staged_bytes += len(frame)

    @property
    def staged_bytes(self):
        """Bytes the next commit word's tail must cover: the current
        transaction's staged frames plus any epoch members' frames
        already sitting before them in the log."""
        return self._group_bytes + self._staged_bytes

    def write_frames(self):
        """Store all staged frames into the log region (no flushes —
        the paper's "update slot header" step happens without cache
        line flushes; durability comes from :meth:`flush_frames`)."""
        obs = self.pm.obs
        cursor = self.base + _FRAMES_BASE + self._group_bytes
        for frame in self._staged:
            self.pm.write(cursor, frame)
            self._c_frame.inc()
            obs.event(ev.LOG_APPEND, cursor, len(frame))
            cursor += len(frame)

    def flush_frames(self):
        """Flush every staged frame line (the "Log Flush" step)."""
        self.pm.flush_range(
            self.base + _FRAMES_BASE + self._group_bytes, self._staged_bytes
        )

    def join_group(self):
        """Move the staged (written + flushed, unfenced) frames onto
        the open epoch: the shared group mark will cover them."""
        self._group_bytes += self._staged_bytes
        self._staged = []
        self._staged_bytes = 0

    def commit(self, seq):
        """Atomically publish the staged frames: the 8-byte commit word
        (tail, seq) is the commit mark.  With an open epoch the tail
        covers the members' prefix too — one mark, whole group."""
        tail = self._group_bytes + self._staged_bytes
        word = (seq << 32) | tail
        self.pm.write_u64(self.base + _OFF_COMMIT, word)
        self.pm.persist(self.base + _OFF_COMMIT, 8)
        self._c_commit_mark.inc()
        self.pm.obs.event(ev.COMMIT_MARK, seq, tail)

    def truncate(self):
        """Reset after checkpointing (atomically empties the log)."""
        self.pm.write_u64(self.base + _OFF_COMMIT, 0)
        self.pm.persist(self.base + _OFF_COMMIT, 8)
        self._c_truncate.inc()
        self.pm.obs.event(ev.LOG_TRUNCATE)
        self._staged = []
        self._staged_bytes = 0
        self._group_bytes = 0

    def discard(self):
        """Drop staged (never-committed) frames: rollback path.  Epoch
        members' frames are untouched — they are already promised."""
        self._staged = []
        self._staged_bytes = 0

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def restore_commit(self, seq, tail):
        """Re-publish the commit word from a saved (seq, tail) pair.

        The in-doubt-commit path of 2PC recovery: the shard's frames
        are already durable (its prepare persisted them) but the crash
        hit before this shard's commit mark; the coordinator's
        decision says commit, so the mark is re-issued here and the
        normal recovery replay takes over."""
        word = (seq << 32) | tail
        self.pm.write_u64(self.base + _OFF_COMMIT, word)
        self.pm.persist(self.base + _OFF_COMMIT, 8)
        self._c_commit_mark.inc()
        self.pm.obs.event(ev.COMMIT_MARK, seq, tail)

    def committed_seq(self):
        """Sequence number of the committed-but-unapplied txn (0 if none)."""
        return self.pm.read_u64(self.base + _OFF_COMMIT) >> 32

    def pending_bytes(self):
        """Valid frame bytes awaiting checkpoint (0 = log empty)."""
        return self.pm.read_u64(self.base + _OFF_COMMIT) & 0xFFFF_FFFF

    def replay(self):
        """Yield the committed frames for checkpointing/recovery.

        Yields ``("page", page_no, image)`` and ``("root", slot,
        page_no)`` tuples in log order; yields nothing when the log
        carries no commit mark.
        """
        end = self.base + _FRAMES_BASE + self.pending_bytes()
        cursor = self.base + _FRAMES_BASE
        while cursor < end:
            kind = self.pm.read(cursor, 1)[0]
            if kind == _FRAME_PAGE:
                page_no = self.pm.read_u32(cursor + 1)
                image_len = self.pm.read_u16(cursor + 5)
                image = self.pm.read(cursor + 7, image_len)
                self.pm.obs.inc("log.replay")
                yield "page", page_no, image
                cursor += 7 + image_len
            elif kind == _FRAME_ROOT:
                slot = self.pm.read_u32(cursor + 1)
                page_no = self.pm.read_u32(cursor + 5)
                self.pm.obs.inc("log.replay")
                yield "root", slot, page_no
                cursor += 9
            else:
                raise ValueError("corrupt log frame kind %#x" % kind)
