"""Property-based crash testing: hypothesis drives the workload AND
the crash point, exploring operation sequences the fixed workloads in
``test_crash_recovery`` do not."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SystemConfig
from repro.testing import SingleRun, crash_at


def config(granularity):
    return SystemConfig(
        npages=128, page_size=512, log_bytes=16384,
        heap_bytes=1 << 20, dram_bytes=64 * 512,
        atomic_granularity=granularity,
    )


ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "insert", "insert", "delete"]),
        st.integers(0, 25),
        st.binary(min_size=0, max_size=48),
    ),
    min_size=1,
    max_size=18,
)


def to_workload(raw):
    return [
        (kind, b"k%02d" % key_no, value if kind == "insert" else None)
        for kind, key_no, value in raw
    ]


@settings(max_examples=25, deadline=None)
@given(raw=ops, budget=st.integers(1, 600), seed=st.integers(0, 1 << 16))
def test_fast_random_workload_random_crash(raw, budget, seed):
    result = crash_at(
        SingleRun("fast", to_workload(raw)),
        budget,
        config=config(8),
        seed=seed,
    )
    assert result.ok, result.violations


@settings(max_examples=25, deadline=None)
@given(raw=ops, budget=st.integers(1, 600), seed=st.integers(0, 1 << 16))
def test_fastplus_random_workload_random_crash(raw, budget, seed):
    result = crash_at(
        SingleRun("fastplus", to_workload(raw)),
        budget,
        config=config(64),
        seed=seed,
    )
    assert result.ok, result.violations


@settings(max_examples=20, deadline=None)
@given(raw=ops, budget=st.integers(1, 700), seed=st.integers(0, 1 << 16))
def test_nvwal_random_workload_random_crash(raw, budget, seed):
    result = crash_at(
        SingleRun("nvwal", to_workload(raw)),
        budget,
        config=config(8),
        seed=seed,
    )
    assert result.ok, result.violations
