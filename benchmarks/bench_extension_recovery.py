"""Extension bench: recovery time vs database size, eager vs lazy GC."""

from repro.bench.figures import extension_recovery_scaling

from conftest import OPS, run_figure


def test_extension_recovery_scaling(benchmark, results_dir):
    result = run_figure(
        benchmark, extension_recovery_scaling, "extension_recovery",
        results_dir, ops=max(400, OPS // 2),
    )
    data = result["data"]
    sizes = sorted({size for size, _, _ in data})
    # FAST/FAST+ lazy recovery is (near-)constant: the eagerly
    # checkpointed log has nothing to replay.
    for scheme in ("fast", "fastplus"):
        lazy = [data[(size, scheme, False)] for size in sizes]
        assert max(lazy) < 5.0, lazy  # microseconds, size-independent
    # Eager GC reads the internal pages (no leaf but one: nothing has
    # spilled) and relinks the free pages below the highest live one:
    # it grows with the tree (not the record count, nor the arena).
    for scheme in ("fast", "fastplus"):
        eager = [data[(size, scheme, True)] for size in sizes]
        assert eager[-1] > eager[0]
    # NVWAL must rebuild its WAL index either way: its lazy recovery
    # is far above FAST's.
    assert data[(sizes[0], "nvwal", False)] > 10 * data[(sizes[0], "fast", False)]
