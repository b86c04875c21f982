"""Unit tests for the multi-granularity lock manager."""

import pytest

from repro.core.locking import (
    LOCK_IS,
    LOCK_IX,
    LOCK_S,
    LOCK_X,
    LockConflict,
    LockManager,
    encode_lock,
    page_resource,
    root_resource,
)


@pytest.fixture
def locks():
    return LockManager()


PAGE = page_resource(7)
ROOT = root_resource(0)


class TestCompatibility:
    def test_shared_modes_coexist(self, locks):
        locks.acquire(1, PAGE, LOCK_S)
        locks.acquire(2, PAGE, LOCK_S)
        locks.acquire(3, PAGE, LOCK_IS)
        assert locks.holds(2, PAGE) == LOCK_S

    def test_intent_modes_coexist(self, locks):
        locks.acquire(1, ROOT, LOCK_IX)
        locks.acquire(2, ROOT, LOCK_IX)
        locks.acquire(3, ROOT, LOCK_IS)

    def test_x_excludes_everything(self, locks):
        locks.acquire(1, PAGE, LOCK_X)
        for mode in (LOCK_IS, LOCK_IX, LOCK_S, LOCK_X):
            with pytest.raises(LockConflict):
                locks.acquire(2, PAGE, mode)

    def test_s_blocks_ix_and_x(self, locks):
        locks.acquire(1, PAGE, LOCK_S)
        with pytest.raises(LockConflict):
            locks.acquire(2, PAGE, LOCK_IX)
        with pytest.raises(LockConflict):
            locks.acquire(2, PAGE, LOCK_X)

    def test_conflict_names_holders(self, locks):
        locks.acquire(1, PAGE, LOCK_S)
        locks.acquire(2, PAGE, LOCK_S)
        with pytest.raises(LockConflict) as info:
            locks.acquire(3, PAGE, LOCK_X)
        assert set(info.value.holders) == {1, 2}
        assert info.value.resource == PAGE
        assert info.value.mode == LOCK_X


class TestUpgrades:
    def test_reacquire_weaker_is_noop(self, locks):
        locks.acquire(1, PAGE, LOCK_X)
        assert locks.acquire(1, PAGE, LOCK_S) == LOCK_X
        assert locks.holds(1, PAGE) == LOCK_X

    def test_s_to_x_upgrade(self, locks):
        locks.acquire(1, PAGE, LOCK_S)
        assert locks.acquire(1, PAGE, LOCK_X) == LOCK_X

    def test_ix_plus_s_escalates_to_x(self, locks):
        # No SIX mode: the combination escalates straight to X.
        locks.acquire(1, ROOT, LOCK_IX)
        assert locks.acquire(1, ROOT, LOCK_S) == LOCK_X

    def test_upgrade_blocked_by_sharer(self, locks):
        locks.acquire(1, PAGE, LOCK_S)
        locks.acquire(2, PAGE, LOCK_S)
        with pytest.raises(LockConflict) as info:
            locks.acquire(1, PAGE, LOCK_X)
        assert info.value.holders == (2,)
        # The held S lock is untouched by the failed upgrade.
        assert locks.holds(1, PAGE) == LOCK_S


class TestRelease:
    def test_release_all_frees_everything(self, locks):
        locks.acquire(1, PAGE, LOCK_X)
        locks.acquire(1, ROOT, LOCK_IX)
        assert locks.release_all(1) == 2
        assert locks.holds(1, PAGE) is None
        locks.acquire(2, PAGE, LOCK_X)  # no conflict anymore

    def test_release_all_idempotent(self, locks):
        locks.acquire(1, PAGE, LOCK_S)
        assert locks.release_all(1) == 1
        assert locks.release_all(1) == 0

    def test_try_acquire(self, locks):
        assert locks.try_acquire(1, PAGE, LOCK_X)
        assert not locks.try_acquire(2, PAGE, LOCK_S)
        assert locks.holds(2, PAGE) is None


class TestInstantCheck:
    def test_check_conflicts_exactly_as_acquire_would(self, locks):
        locks.acquire(1, PAGE, LOCK_X)
        for mode in (LOCK_IS, LOCK_IX, LOCK_S, LOCK_X):
            with pytest.raises(LockConflict) as info:
                locks.check(2, PAGE, mode)
            assert info.value.holders == (1,)
        locks.release_all(1)
        locks.acquire(1, PAGE, LOCK_S)
        assert locks.check(2, PAGE, LOCK_S) is None
        with pytest.raises(LockConflict):
            locks.check(2, PAGE, LOCK_X)

    def test_check_grants_nothing(self, locks):
        assert locks.check(2, PAGE, LOCK_S) is None
        assert locks.holds(2, PAGE) is None and locks.locks_of(2) == {}
        locks.acquire(1, PAGE, LOCK_X)   # nothing of 2's stands in the way

    def test_a_covering_held_lock_answers_the_check(self, locks):
        locks.acquire(1, PAGE, LOCK_X)
        assert locks.check(1, PAGE, LOCK_S) == LOCK_X
        locks.acquire(2, ROOT, LOCK_IS)
        assert locks.check(2, ROOT, LOCK_IS) == LOCK_IS


class TestWaitGraph:
    def test_blockers(self, locks):
        locks.acquire(1, PAGE, LOCK_X)
        assert locks.blockers(2, PAGE, LOCK_S) == (1,)
        assert locks.blockers(2, page_resource(99), LOCK_S) == ()

    def test_two_party_deadlock(self, locks):
        a, b = page_resource(1), page_resource(2)
        locks.acquire(1, a, LOCK_X)
        locks.acquire(2, b, LOCK_X)
        locks.start_wait(1, b, LOCK_X)
        assert locks.find_deadlock(1) is None  # 2 is not waiting yet
        locks.start_wait(2, a, LOCK_X)
        cycle = locks.find_deadlock(2)
        assert cycle is not None and set(cycle) == {1, 2}

    def test_three_party_cycle(self, locks):
        r = [page_resource(n) for n in range(3)]
        for owner in range(3):
            locks.acquire(owner, r[owner], LOCK_X)
        locks.start_wait(0, r[1], LOCK_X)
        locks.start_wait(1, r[2], LOCK_X)
        locks.start_wait(2, r[0], LOCK_X)
        cycle = locks.find_deadlock(2)
        assert cycle is not None and set(cycle) == {0, 1, 2}

    def test_waiting_chain_without_cycle(self, locks):
        a, b = page_resource(1), page_resource(2)
        locks.acquire(1, a, LOCK_X)
        locks.acquire(2, b, LOCK_X)
        locks.start_wait(3, a, LOCK_S)
        locks.start_wait(2, a, LOCK_S)
        assert locks.find_deadlock(3) is None
        assert locks.find_deadlock(2) is None

    def test_stop_wait_clears_edge(self, locks):
        a, b = page_resource(1), page_resource(2)
        locks.acquire(1, a, LOCK_X)
        locks.acquire(2, b, LOCK_X)
        locks.start_wait(1, b, LOCK_X)
        locks.start_wait(2, a, LOCK_X)
        locks.stop_wait(1)
        assert locks.find_deadlock(2) is None

    def test_release_all_clears_wait(self, locks):
        locks.acquire(1, PAGE, LOCK_X)
        locks.start_wait(2, PAGE, LOCK_S)
        locks.release_all(2)
        assert locks.waiting(2) is None


class TestObsCounters:
    def test_counters_flow_to_registry(self):
        from repro.obs.registry import MetricsRegistry
        from repro.pm.clock import SimClock
        from repro.obs.context import Observability

        obs = Observability(SimClock(), registry=MetricsRegistry())
        locks = LockManager(obs=obs)
        locks.acquire(1, PAGE, LOCK_S)
        locks.acquire(1, PAGE, LOCK_X)   # upgrade
        with pytest.raises(LockConflict):
            locks.acquire(2, PAGE, LOCK_S)
        with pytest.raises(LockConflict):
            locks.check(2, PAGE, LOCK_S)
        locks.check(1, PAGE, LOCK_S)     # answered by the held X
        locks.release_all(1)
        seq = obs.trace.seq
        locks.check(2, PAGE, LOCK_S)
        counters = obs.registry.counters("lock.")
        assert counters["lock.acquire"] == 1
        assert counters["lock.upgrade"] == 1
        assert counters["lock.conflict"] == 2
        assert counters["lock.release"] == 1
        assert counters["lock.check"] == 1
        assert [event[2:] for event in obs.trace.events(since_seq=seq)] == [
            ("lock_check", 2, encode_lock(PAGE, LOCK_S))]
