"""Crash-injection tests: the executable form of paper Section 4.4.

Every durable scheme must survive a crash at *every* memory event of a
mixed workload, under adversarial writeback orderings.  The naive
in-place engine must demonstrably fail — that asymmetry is the paper's
motivation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SystemConfig, engine_class
from repro.pm.crash import DropAll, PersistAll
from repro.storage.pagestore import PageStore
from repro.testing import SingleRun, crash_at, crash_sweep, failing

WORKLOAD = (
    [("insert", b"%04d" % i, b"value-%04d" % i) for i in range(10)]
    + [("delete", b"0004", None), ("insert", b"0007", b"updated"),
       ("insert", b"0002", b"rewritten")]
)

SPLIT_WORKLOAD = [
    ("insert", b"%04d" % i, b"x" * 40) for i in range(30)
]


def config(granularity=8):
    return SystemConfig(
        npages=128, page_size=512, log_bytes=16384,
        heap_bytes=1 << 20, dram_bytes=64 * 512,
        atomic_granularity=granularity,
    )


# ----------------------------------------------------------------------
# Exhaustive sweeps (every crash point, stride 1)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("scheme", ["fast", "nvwal"])
def test_exhaustive_crash_sweep_word_atomic(scheme):
    """FAST and NVWAL need only 8-byte atomic writes."""
    failures = failing(crash_sweep(
        SingleRun(scheme, WORKLOAD), config=config(8), stride=1,
    ))
    assert failures == [], failures[:3]


def test_exhaustive_crash_sweep_fastplus_line_atomic():
    """FAST⁺ relies on failure-atomic cache-line writes (Section 3.2)."""
    failures = failing(crash_sweep(
        SingleRun("fastplus", WORKLOAD), config=config(64), stride=1,
    ))
    assert failures == [], failures[:3]


@pytest.mark.parametrize("scheme", ["fast", "fastplus", "nvwal"])
def test_crash_sweep_through_splits(scheme):
    """Crashes during B-tree splits (paper Figure 4's case analysis)."""
    granularity = 64 if scheme == "fastplus" else 8
    failures = failing(crash_sweep(
        SingleRun(scheme, SPLIT_WORKLOAD),
        config=config(granularity),
        stride=5,
    ))
    assert failures == [], failures[:3]


# ----------------------------------------------------------------------
# Deterministic adversarial policies
# ----------------------------------------------------------------------


@pytest.mark.parametrize("scheme", ["fast", "fastplus", "nvwal"])
@pytest.mark.parametrize("policy", [DropAll(), PersistAll()])
def test_extreme_writeback_orderings(scheme, policy):
    granularity = 64 if scheme == "fastplus" else 8
    failures = failing(crash_sweep(
        SingleRun(scheme, WORKLOAD),
        config=config(granularity),
        stride=4,
        policies=[policy],
    ))
    assert failures == [], failures[:3]


# ----------------------------------------------------------------------
# The asymmetry the paper argues for
# ----------------------------------------------------------------------


def test_naive_inplace_corrupts_under_word_atomicity():
    """Without logging or RTM, in-place header overwrites tear."""
    failures = failing(crash_sweep(
        SingleRun("naive", SPLIT_WORKLOAD), config=config(8), stride=2,
    ))
    assert failures, "expected the naive engine to corrupt at some crash point"


def test_fastplus_unsafe_without_line_atomicity():
    """The in-place commit *needs* the cache-line guarantee: under the
    8-byte-only model some crash point must tear the slot header."""
    failures = failing(crash_sweep(
        SingleRun("fastplus", SPLIT_WORKLOAD), config=config(8), stride=1,
    ))
    assert failures, "expected FAST+ to be unsafe with 8-byte atomicity"


# ----------------------------------------------------------------------
# Recovery specifics
# ----------------------------------------------------------------------


@pytest.mark.parametrize("scheme", ["fast", "fastplus", "nvwal"])
def test_orphan_pages_are_garbage_collected(scheme):
    """Crash mid-split leaks the new sibling; recovery reclaims it.

    At every armed event of the split workload, a fork of the arena
    loses its volatile state (``DropAll``).  The pages its durable
    free list has handed out that no structure reaches after recovery
    were leaked by the crash, and recovery must have put each one back
    on the free list, leaving no page unaccounted for."""
    cfg = config(64 if scheme == "fastplus" else 8)
    shape = SingleRun(scheme, SPLIT_WORKLOAD)
    pm, _ = shape.build(cfg, None)
    store_base, npages = shape.engine.store.base, cfg.npages
    leaks = []

    def visit(live):
        image = live.fork()
        image.crash(DropAll())
        handed_out = set(range(1, npages)) - set(
            PageStore.attach(image, store_base).free_pages(
                lambda addr: int.from_bytes(image.durable_bytes(addr, 4),
                                            "little"),
            )
        )
        recovered = engine_class(scheme).attach(cfg, image)
        reachable = recovered.reachable_pages()
        free = set(recovered.store.free_pages())
        leaked = handed_out - reachable
        assert leaked <= free, (live.events, leaked - free)
        assert reachable.isdisjoint(free), live.events
        assert len(reachable) + len(free) == npages - 1, live.events
        leaks.append(len(leaked))

    pm.arm(range(1, 1 << 30), visit)
    shape.run()
    pm.armed = False
    assert len(leaks) == pm.events
    assert sum(1 for count in leaks if count) > 0, "no crash leaked a page"


def test_recovery_is_idempotent():
    """Crashing during recovery-side checkpointing must be safe:
    re-running recovery replays the same frames."""
    cfg = config(8)
    scheme = "fast"
    total = crash_at(SingleRun(scheme, WORKLOAD), None, config=cfg).events
    # Crash late (inside commit/checkpoint machinery), recover twice.
    result = crash_at(SingleRun(scheme, WORKLOAD), total - 3, config=cfg)
    assert result.ok, result.violations


def test_double_crash_during_recovery():
    """A second power failure immediately after the first recovery."""
    from repro.testing.crashsim import CrashablePM

    cfg = config(8)
    cls = engine_class("fast")
    pm = CrashablePM.for_config(cfg)
    engine = cls.create(cfg, pm=pm)
    for i in range(20):
        engine.insert(b"%03d" % i, b"v%d" % i)
    pm.crash()
    engine = cls.attach(cfg, pm)
    pm.crash()  # crash again right after recovery
    engine = cls.attach(cfg, pm)
    assert engine.verify() == 20
    assert engine.search(b"010") == b"v10"


@settings(max_examples=20, deadline=None)
@given(budget=st.integers(1, 400), seed=st.integers(0, 1 << 20))
def test_random_crash_points_fast(budget, seed):
    result = crash_at(
        SingleRun("fast", WORKLOAD), budget, config=config(8), seed=seed,
    )
    assert result.ok, result.violations


@settings(max_examples=20, deadline=None)
@given(budget=st.integers(1, 500), seed=st.integers(0, 1 << 20))
def test_random_crash_points_nvwal(budget, seed):
    result = crash_at(
        SingleRun("nvwal", WORKLOAD), budget, config=config(8), seed=seed,
    )
    assert result.ok, result.violations


@settings(max_examples=20, deadline=None)
@given(budget=st.integers(1, 400), seed=st.integers(0, 1 << 20))
def test_random_crash_points_fastplus(budget, seed):
    result = crash_at(
        SingleRun("fastplus", WORKLOAD), budget, config=config(64), seed=seed,
    )
    assert result.ok, result.violations
