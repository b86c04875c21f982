"""A crash image forked from a running execution equals the image of a
run that stops at the same event and power-fails its live arena.

This is the reference check behind the one-pass crash driver: the
sweeps fork the memory at every visited event and let the run go on,
so the per-point outcome — committed model, in-flight item, group
commit candidates, recovered state, violations and recovery's
simulated time — must be exactly
what a run cut at that event would have produced, and so must the
crashed image itself, byte for byte.  Each shape runs
under a seeded ``RandomPersist`` (which draws in the at-risk lines'
dict order, so the fork must keep it), ``DropAll`` and a fixed
``PersistSubset``.
"""

import random
import zlib

import pytest

from repro.bench.multiclient import client_workload
from repro.core import SystemConfig
from repro.pm.crash import DropAll, PersistAll, PersistSubset, RandomPersist
from repro.pm.memory import PersistentMemory
from repro.testing.crashsim import (
    SMALL_CONFIG,
    CrashPoint,
    ScheduledRun,
    ShardedRun,
    SingleRun,
    _recover,
    crash_sweep,
    power_fail,
)

#: Words 0, 3 and 6 of every fifth line survive, everything else drops.
SUBSET = PersistSubset(
    (line, word) for line in range(0, 1 << 16, 5) for word in (0, 3, 6)
)

POLICIES = {
    "random": None,  # RandomPersist seeded with the point
    "drop-all": DropAll(),
    "subset": SUBSET,
}


def _policy(name, point):
    policy = POLICIES[name]
    return policy or RandomPersist(rng=random.Random(point))


def _outcome(result, image, stopped=False):
    """The compared outcome.  Recovery's simulated ns is one clock read
    on a fork's fresh clock; the stopped run's clock holds the run
    before it, so its difference may round differently."""
    recovery_ns = result.recovery_ns
    if stopped:
        recovery_ns = pytest.approx(recovery_ns, rel=1e-9)
    return (
        result.crashed, result.committed, result.inflight, result.recovered,
        result.violations,
        [event[2:] for event in result.recovery_events],
        recovery_ns,
        image,
    )


def _recording(make_shape):
    """A shape whose ``attach`` first records a digest of the crashed
    image it recovers, so the images themselves are compared too."""
    shape = make_shape()
    shape.images = []
    attach = shape.attach

    def recording_attach(config, pm):
        shape.images.append(zlib.crc32(pm.durable_bytes(0, pm.size)))
        return attach(config, pm)

    shape.attach = recording_attach
    return shape


def _forked(make_shape, config, stride, name):
    """Every visited point's ``(state, outcome)`` from one execution."""
    shape = _recording(make_shape)
    states = {}
    state = shape.state

    def recording_state():
        states[shape.pm.events] = state()
        return states[shape.pm.events]

    shape.state = recording_state
    sweep = (
        {"seeds": (0,)} if POLICIES[name] is None
        else {"policies": [POLICIES[name]]}
    )
    results = crash_sweep(shape, config=config, stride=stride, **sweep)
    return {
        point: (states[point], _outcome(result, image))
        for (point, result), image in zip(results, shape.images, strict=True)
    }


def _stopped(make_shape, config, point, name):
    """The reference: run to ``point``, cut the power, crash the live
    arena itself and recover it."""
    shape = _recording(make_shape)
    pm, _ = shape.build(config, None)
    pm.arm({point}, power_fail)
    with pytest.raises(CrashPoint):
        shape.run()
    state = shape.state()
    pm.crash(_policy(name, point))
    result = _recover(shape, config, pm, point, state)
    return state, _outcome(result, shape.images[0], stopped=True)


def _assert_equivalent(make_shape, config, stride):
    for name in POLICIES:
        forked = _forked(make_shape, config, stride, name)
        assert len(forked) >= 8
        for point, (state, outcome) in forked.items():
            assert outcome[-2] > 0, (name, point)
            assert (state, outcome) == _stopped(
                make_shape, config, point, name,
            ), (name, point)


SINGLE_WORKLOAD = (
    [("insert", b"k%02d" % i, b"v" * 40) for i in range(14)]
    + [("update", b"k%02d" % i, b"u" * 24) for i in range(0, 14, 3)]
    + [("txn", [("delete", b"k01", None), ("insert", b"k99", b"z")])]
)


@pytest.mark.parametrize("scheme,granularity", [
    ("fast", 8), ("fastplus", 64), ("nvwal", 8),
])
def test_single_run_fork_equals_stopped_run(scheme, granularity):
    config = SystemConfig(atomic_granularity=granularity, **SMALL_CONFIG)
    _assert_equivalent(
        lambda: SingleRun(scheme, SINGLE_WORKLOAD), config, stride=47,
    )


def test_unsafe_single_run_fork_reports_the_same_violations():
    """FAST+ with 8-byte atomicity tears slot headers: the forked
    images must find the same violations the stopped runs do."""
    config = SystemConfig(atomic_granularity=8, **SMALL_CONFIG)
    forked = _forked(
        lambda: SingleRun("fastplus", SINGLE_WORKLOAD), config, 1, "random",
    )
    failing = [point for point, (_, out) in forked.items() if out[4]]
    assert failing, "expected torn slot headers at 8-byte atomicity"
    for point in failing[:6]:
        assert forked[point] == _stopped(
            lambda: SingleRun("fastplus", SINGLE_WORKLOAD), config, point,
            "random",
        ), point


SCHEDULED_WORKLOADS = [
    [("txn", [("insert", b"a%02d" % i, b"x" * 24),
              ("insert", b"s%02d" % i, b"from-c0")]) for i in range(3)],
    [("txn", [("insert", b"s%02d" % i, b"from-c1"),
              ("delete", b"a%02d" % i, None)]) for i in range(2)],
    {"items": [("search", b"s%02d" % i, None) for i in range(3)],
     "isolation": "read_only"},
]


def test_scheduled_run_fork_equals_stopped_run():
    config = SystemConfig(**SMALL_CONFIG)
    _assert_equivalent(
        lambda: ScheduledRun("fast", SCHEDULED_WORKLOADS), config, stride=9,
    )


def test_grouped_scheduled_run_compares_group_candidates():
    """Grouped FAST under contention: the open epoch's candidate
    prefixes are part of the compared state."""
    config = SystemConfig(
        group_commit_size=4, npages=64, page_size=512, log_bytes=32768,
        heap_bytes=1 << 20, dram_bytes=64 * 512,
    )
    workloads = [
        client_workload(index, items=6, key_space=12, seed=7)
        for index in range(4)
    ]
    make_shape = lambda: ScheduledRun("fast", workloads)  # noqa: E731
    _assert_equivalent(make_shape, config, stride=61)
    states = _forked(make_shape, config, 61, "drop-all")
    assert any(state[2] for state, _ in states.values())


CROSS_WORKLOAD = [[
    ("insert", b"c02", b"p"),
    ("txn", [("insert", b"c00", b"a"), ("insert", b"c04", b"b"),
             ("insert", b"c01", b"c"), ("insert", b"c05", b"d")]),
    ("insert", b"c06", b"q"),
]]


def test_sharded_run_fork_equals_stopped_run():
    config = SystemConfig(**SMALL_CONFIG)
    _assert_equivalent(
        lambda: ShardedRun("fast", CROSS_WORKLOAD, shards=2), config,
        stride=7,
    )


def test_fork_is_independent_and_crashes_alike():
    """``fork()`` copies the durable bytes and the at-risk lines in
    order: both memories crash to the same bytes under the same seeded
    policy, and later stores to the original stay out of the fork."""
    pm = PersistentMemory(64 * 64, atomic_granularity=8)
    for line in (9, 2, 30, 5):
        pm.write(line * 64, bytes([line]) * 64)
    pm.persist(30 * 64, 64)
    pm.clflush(2 * 64)                  # line 2 in flight ...
    pm.write(2 * 64 + 8, b"redirty!")   # ... and dirty again
    twin = pm.fork()
    assert twin.dirty_units() == pm.dirty_units()
    assert twin.read(0, 64 * 64) == pm.read(0, 64 * 64)
    pm.write(0, b"live-only")
    assert twin.read(0, 9) == bytes(9)
    # Line 0 is dirty only in ``pm``, and last in its dict order: the
    # draws for every other line are the same on both sides.
    pm.crash(RandomPersist(rng=random.Random(3)))
    twin.crash(RandomPersist(rng=random.Random(3)))
    assert twin.durable_bytes(64, 63 * 64) == pm.durable_bytes(64, 63 * 64)
    assert twin.clock is not pm.clock and twin.obs is not pm.obs


def _assert_same_image(twin, pm):
    assert twin.size == pm.size
    assert twin.durable_bytes(0, pm.size) == pm.durable_bytes(0, pm.size)


def test_fork_after_crash_copies_the_pages_the_crash_wrote():
    """``crash()`` makes surviving words durable on pages no fence
    ever reached (one of them the arena's short last page): a later
    fork must copy those pages too."""
    pm = PersistentMemory(5 * 4096 + 192, atomic_granularity=8)
    pm.write(64, b"fenced" * 4)
    pm.persist(64, 24)
    pm.write(2 * 4096 + 128, b"dirty-only" * 6)
    pm.write(5 * 4096 + 128, b"in-flight" * 7)
    pm.clflush(5 * 4096 + 128)
    pm.crash(PersistAll())
    twin = pm.fork()
    _assert_same_image(twin, pm)
    assert twin.durable_bytes(2 * 4096 + 128, 10) == b"dirty-only"
    assert twin.durable_bytes(5 * 4096 + 128, 9) == b"in-flight"


def test_fork_of_a_fork_keeps_the_pages_it_inherited():
    """A twin's image holds pages it copied but never wrote itself;
    forking the twin must copy them as well as its own."""
    pm = PersistentMemory(16 * 4096)
    pm.write(3 * 4096, b"parent" * 8)
    pm.persist(3 * 4096, 48)
    twin = pm.fork()
    twin.write(9 * 4096 + 64, b"twin" * 16)
    twin.persist(9 * 4096 + 64, 64)
    twin.write(12 * 4096, b"at risk!")
    twin.crash(PersistAll())
    grandchild = twin.fork()
    _assert_same_image(grandchild, twin)
    assert grandchild.durable_bytes(3 * 4096, 6) == b"parent"
    assert grandchild.durable_bytes(12 * 4096, 8) == b"at risk!"
    assert pm.durable_bytes(9 * 4096 + 64, 4) == bytes(4)


def test_fork_of_a_large_sparse_arena_equals_it():
    """A 4 MiB arena with a handful of fenced pages scattered over it,
    its last line and one store straddling a page boundary among them:
    the fork's whole image equals the original's, and the at-risk
    lines crash alike."""
    size = 4 << 20
    pm = PersistentMemory(size, atomic_granularity=8)
    rng = random.Random(37)
    for addr in sorted(rng.sample(range(0, size, 64), 6)) + [size - 64]:
        pm.write(addr, rng.randbytes(64))
        pm.persist(addr, 64)
    pm.write(7 * 4096 - 20, b"straddles the boundary!!")
    pm.persist(7 * 4096 - 20, 24)
    pm.write(300 * 4096, b"unfenced")
    twin = pm.fork()
    _assert_same_image(twin, pm)
    pm.crash(RandomPersist(rng=random.Random(1)))
    twin.crash(RandomPersist(rng=random.Random(1)))
    _assert_same_image(twin, pm)
