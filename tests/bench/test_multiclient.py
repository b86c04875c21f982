"""The multi-client contention benchmark driver and the contention
grid that ``BENCH_multiclient.json`` pins."""

import json
import pathlib
from functools import partial

import pytest

from repro.bench.figures import fig13, fig14, fig15
from repro.bench.multiclient import (
    RATIOS,
    cell_config,
    client_workload,
    grid_cells,
    ratio_to_first,
    run_multi_client,
    shard_pool_keys,
    sharded_client_workload,
)
from repro.bench.report import table_to_csv

ROOT = pathlib.Path(__file__).resolve().parents[2]
#: The committed contention grid, read once: every ``TestCommitted*``
#: floor and the fig13-15 renders read its rows, and none re-runs them.
BASELINE = json.loads((ROOT / "BENCH_multiclient.json").read_text())

#: A sharded run in the shard sweep's regime: 50-key pools, 16 preloaded.
run_sharded = partial(run_multi_client, key_space=50, preload=16)


def run_grouped(scheme, group_size, *, clients, items):
    """A group-sweep cell: epochs of ``group_size`` (0: ungrouped)."""
    return run_multi_client(
        scheme, clients=clients, items=items,
        config=cell_config(scheme, clients=clients, items=items,
                           group_commit_size=group_size),
    )


def run_cached(scheme, cache_pages, *, clients=4, items=6, key_space=60,
               read_ns=300.0):
    """A cache-sweep cell: 1 locked writer + ``clients - 1`` MVCC
    readers over the whole preloaded key space, ``cache_pages`` DRAM
    frames (0: cache off) in front of PM."""
    return run_multi_client(
        scheme, clients=1, readers=clients - 1, mvcc=True, items=items,
        key_space=key_space, preload=key_space, read_ns=read_ns,
        config=cell_config(scheme, clients=clients, items=items,
                           read_ns=read_ns, cache_lines=64,
                           dram_cache_pages=cache_pages),
    )


class TestClientWorkload:
    def test_deterministic_per_client(self):
        assert client_workload(3, items=20) == client_workload(3, items=20)

    def test_clients_differ(self):
        assert client_workload(0, items=20) != client_workload(1, items=20)

    def test_read_ratio_extremes(self):
        reads_only = client_workload(0, items=30, read_ratio=1.0)
        assert all(kind == "search" for kind, _, _ in reads_only)
        writes_only = client_workload(0, items=30, read_ratio=0.0)
        assert all(item[0] == "txn" for item in writes_only)


class TestRunMultiClient:
    def test_all_items_commit(self):
        result = run_multi_client("fastplus", clients=3, items=10)
        assert result["commits"] == 30
        assert result["commits"] == result["counters"]["engine.txn.commit"]
        assert len(result["per_client"]) == 3

    def test_single_client_has_no_contention(self):
        result = run_multi_client("fast", clients=1, items=10)
        assert result["aborts"] == 0
        assert result["deadlocks"] == 0
        assert result["counters"].get("lock.conflict", 0) == 0

    def test_contention_shows_in_counters(self):
        result = run_multi_client("fast", clients=8, items=15,
                                  read_ratio=0.0, key_space=40)
        assert result["counters"]["lock.conflict"] > 0
        assert result["counters"]["sched.wait"] > 0
        # Aborted work is retried: every item still commits.
        assert result["commits"] == 8 * 15

    def test_byte_identical_reruns(self):
        a = run_multi_client("nvwal", clients=4, items=12)
        b = run_multi_client("nvwal", clients=4, items=12)
        assert a == b

    def test_simulated_throughput_positive(self):
        result = run_multi_client("fastplus", clients=2, items=8)
        assert result["simulated_ns"] > 0
        assert result["throughput_tps"] > 0


class TestShardedWorkload:
    def test_deterministic_per_client(self):
        assert sharded_client_workload(2, items=20) == \
            sharded_client_workload(2, items=20)

    def test_pools_are_router_hash_disjoint(self):
        from zlib import crc32

        pools = shard_pool_keys(30)
        for pool, keys in enumerate(pools):
            assert len(keys) == 30
            assert all(crc32(key) % 4 == pool for key in keys)

    def test_home_pool_only_without_cross_traffic(self):
        from zlib import crc32

        workload = sharded_client_workload(1, items=30, cross_ratio=0.0)
        pools = set()
        for item in workload:
            if item[0] == "txn":
                pools.update(crc32(key) % 4 for _, key, _ in item[1])
            else:
                pools.add(crc32(item[1]) % 4)
        assert pools == {1}  # client 1's home pool, nothing else

    def test_cross_traffic_reaches_second_pool(self):
        from zlib import crc32

        workload = sharded_client_workload(1, items=40, cross_ratio=1.0)
        pools = set()
        for item in workload:
            if item[0] == "txn":
                pools.update(crc32(key) % 4 for _, key, _ in item[1])
        assert pools == {1, 2}


class TestRunSharded:
    def test_byte_identical_reruns(self):
        a = run_sharded("fast", shards=2, clients=4, items=8)
        b = run_sharded("fast", shards=2, clients=4, items=8)
        assert a == b

    def test_commits_invariant_across_shard_counts(self):
        commits = {
            shards: run_sharded(
                "fast", shards=shards, clients=4, items=8,
            )["commits"]
            for shards in (1, 2, 4)
        }
        assert commits[1] == commits[2] == commits[4] > 0

    def test_cross_shard_txns_drive_twopc(self):
        result = run_sharded(
            "fastplus", shards=2, clients=4, items=10, cross_ratio=1.0,
        )
        assert result["counters"]["twopc.decision"] > 0
        assert result["counters"]["twopc.commit"] == \
            result["counters"]["twopc.prepare"]

    def test_disjoint_pools_skip_twopc(self):
        result = run_sharded(
            "fast", shards=4, clients=4, items=10, cross_ratio=0.0,
        )
        assert result["counters"].get("twopc.prepare", 0) == 0
        assert all(b > 0 for b in result["busy_ns"])

    def test_sweep_shards_shape(self):
        rows = [run_sharded("fast", shards=shards, clients=4, items=6)
                for shards in (1, 2)]
        ratio_to_first(rows, *RATIOS["shard_sweep"])
        assert [r["shards"] for r in rows] == [1, 2]
        assert rows[0]["speedup_vs_one_shard"] == 1.0
        assert rows[1]["speedup_vs_one_shard"] > 0


class TestCommittedMvccBaseline:
    """The 4-client read-mostly cell: MVCC snapshot readers take no
    lock conflict and run at least as fast as locked readers on the
    same workload bytes."""

    def test_mvcc_readers_beat_locked_readers(self):
        rows = {(r["clients"], r["mvcc"]): r
                for r in BASELINE["mvcc_sweep"]["fast"]}
        locked, mvcc = rows[(4, False)], rows[(4, True)]
        assert mvcc["lock_conflicts"] == 0
        assert mvcc["throughput_tps"] >= locked["throughput_tps"]


class TestCommittedShardBaseline:
    """The acceptance floor rides on the committed baseline: 8 clients
    on disjoint pools must scale >=1.7x at 2 shards and >=3x at 4."""

    def _rows(self, scheme):
        return BASELINE["shard_sweep"][scheme]

    def test_fast_meets_scaling_floor(self):
        rows = {r["shards"]: r for r in self._rows("fast")}
        assert rows[2]["speedup_vs_one_shard"] >= 1.7
        assert rows[4]["speedup_vs_one_shard"] >= 3.0

    def test_fastplus_meets_scaling_floor(self):
        rows = {r["shards"]: r for r in self._rows("fastplus")}
        assert rows[2]["speedup_vs_one_shard"] >= 1.7
        assert rows[4]["speedup_vs_one_shard"] >= 3.0


class TestGroupCommitSweep:
    def test_same_commits_grouped_or_not(self):
        rows = [run_grouped("fast", size, clients=2, items=8)
                for size in (0, 4)]
        ratio_to_first(rows, *RATIOS["group_sweep"])
        assert [r["group_size"] for r in rows] == [0, 4]
        assert rows[0]["fence_reduction_vs_ungrouped"] == 1.0
        assert all(r["commits"] == 2 * 8 for r in rows)

    def test_grouping_cuts_fences(self):
        rows = [run_grouped("fast", size, clients=2, items=10)
                for size in (0, 4)]
        assert rows[1]["fences_per_txn"] < rows[0]["fences_per_txn"]
        assert rows[1]["marks_per_txn"] < rows[0]["marks_per_txn"]

    def test_byte_identical_reruns(self):
        a = run_grouped("fastplus", 4, clients=2, items=8)
        b = run_grouped("fastplus", 4, clients=2, items=8)
        assert a == b


class TestCommittedGroupCommitBaseline:
    """The acceptance floor rides on the committed baseline: at group
    size 4 and 8 clients, the commit-mark schemes must pay at least 2x
    fewer fences per committed transaction than ungrouped, over the
    same committed transactions."""

    def _rows(self, scheme):
        return BASELINE["group_sweep"][scheme]

    def test_fast_meets_fence_floor(self):
        rows = {(r["clients"], r["group_size"]): r
                for r in self._rows("fast")}
        assert rows[(8, 4)]["fence_reduction_vs_ungrouped"] >= 2.0
        assert rows[(8, 4)]["commits"] == rows[(8, 0)]["commits"]

    def test_fastplus_meets_fence_floor(self):
        rows = {(r["clients"], r["group_size"]): r
                for r in self._rows("fastplus")}
        assert rows[(8, 4)]["fence_reduction_vs_ungrouped"] >= 2.0
        assert rows[(8, 4)]["commits"] == rows[(8, 0)]["commits"]

    def test_marks_amortize_with_group_size(self):
        """One shared mark per epoch: marks/txn must drop monotonically
        with the group size at every swept client count and scheme."""
        for scheme in ("fast", "fastplus"):
            by_clients = {}
            for row in self._rows(scheme):
                by_clients.setdefault(row["clients"], []).append(
                    row["marks_per_txn"])
            for marks in by_clients.values():
                assert marks == sorted(marks, reverse=True)


class TestOccSweep:
    def test_same_commits_locked_or_occ(self):
        """Aborted optimistic work is retried (and eventually falls back
        to 2PL), so both protocols commit every workload item."""
        for isolation in ("locked", "occ"):
            result = run_multi_client(
                "fastplus", isolation=isolation, clients=4, items=8,
                read_ratio=0.5, key_space=40,
            )
            assert result["commits"] == 4 * 8

    def test_occ_cuts_lock_traffic_on_read_mostly(self):
        locked = run_multi_client(
            "fast", isolation="locked", clients=8, items=10,
            read_ratio=0.9, key_space=100,
        )
        occ = run_multi_client(
            "fast", isolation="occ", clients=8, items=10,
            read_ratio=0.9, key_space=100,
        )
        assert occ["lock_acquires_per_commit"] < (
            0.5 * locked["lock_acquires_per_commit"]
        )

    def test_byte_identical_reruns(self):
        a = run_multi_client("fastplus", isolation="occ", clients=4,
                             items=10, read_ratio=0.5, key_space=40)
        b = run_multi_client("fastplus", isolation="occ", clients=4,
                             items=10, read_ratio=0.5, key_space=40)
        assert a == b

    def test_sweep_occ_shape(self):
        """Each (mix, client count) pair of the grid runs the same
        workload under both protocols, locked first."""
        cells = grid_cells("occ_sweep", "fast")
        assert len(cells) == 12
        for (locked_labels, locked), (occ_labels, occ) in zip(
                cells[::2], cells[1::2]):
            assert locked_labels == occ_labels
            assert (locked.pop("isolation"), occ.pop("isolation")) == (
                "locked", "occ")
            assert locked == occ


class TestCommittedOccBaseline:
    """The acceptance floor rides on the committed baseline: at 8
    clients on the read-mostly mix, OCC writers must acquire at most
    half the locks per committed transaction that strict 2PL pays."""

    def _rows(self, scheme):
        return BASELINE["occ_sweep"][scheme]

    def _pair(self, scheme, mix, clients):
        rows = {(r["mix"], r["clients"], r["isolation"]): r
                for r in self._rows(scheme)}
        return (rows[(mix, clients, "locked")], rows[(mix, clients, "occ")])

    def test_read_mostly_meets_lock_floor(self):
        for scheme in ("fast", "fastplus"):
            locked, occ = self._pair(scheme, "read_mostly", 8)
            assert occ["lock_acquires_per_commit"] <= (
                0.5 * locked["lock_acquires_per_commit"]
            )

    def test_every_cell_commits_the_full_workload(self):
        """OCC aborts are retried, not lost: each twin commits exactly
        as many transactions as its locked baseline."""
        for scheme in ("fast", "fastplus"):
            for row in self._rows(scheme):
                if row["isolation"] != "occ":
                    continue
                locked, occ = self._pair(scheme, row["mix"], row["clients"])
                assert occ["commits"] == locked["commits"]

    def test_hot_mix_exercises_fallback(self):
        """The hostile mix must actually drive the 2PL fallback path at
        8 clients — otherwise the sweep no longer covers it."""
        assert any(
            self._pair(scheme, "hot_writes", 8)[1]["occ_fallbacks"] > 0
            for scheme in ("fast", "fastplus")
        )


class TestCacheSweep:
    def test_sweep_cache_shape(self):
        rows = [run_cached("fast", pages) for pages in (0, 8)]
        ratio_to_first(rows, *RATIOS["cache_sweep"])
        assert [r["cache_pages"] for r in rows] == [0, 8]
        # The cache-off cell is its own baseline by construction.
        assert rows[0]["speedup_vs_uncached"] == 1.0
        assert rows[0]["cache_hit_ratio"] == 0.0
        assert rows[1]["cache_hit_ratio"] > 0.0
        # Reads never change committed state: both cells commit the
        # same workload.
        assert rows[0]["commits"] == rows[1]["commits"]

    def test_cache_cell_serves_and_invalidates(self):
        result = run_cached("fast", 8)
        counters = result["counters"]
        assert counters["cache.hit"] > 0
        # The locked writer's installs reach the cache.
        assert counters["cache.invalidate"] > 0

    def test_byte_identical_reruns(self):
        a = run_cached("fastplus", 8)
        b = run_cached("fastplus", 8)
        assert a == b


class TestCommittedCacheBaseline:
    """The acceptance floor rides on the committed baseline: at PM read
    latency 1200ns with a 64-page cache, the read-mostly mix must hit
    >= 0.9 and run >= 3.5x the cache-off throughput on both PM-resident
    schemes (measured 4.08x / 4.45x since the locked writer's descents
    read through the tier too)."""

    def _rows(self, scheme):
        return BASELINE["cache_sweep"][scheme]

    def _cell(self, scheme, pages, read_ns):
        rows = {(r["cache_pages"], r["read_ns"]): r
                for r in self._rows(scheme)}
        return rows[(pages, read_ns)]

    def test_acceptance_floor(self):
        for scheme in ("fast", "fastplus"):
            cell = self._cell(scheme, 64, 1200.0)
            assert cell["cache_hit_ratio"] >= 0.9
            assert cell["speedup_vs_uncached"] >= 3.5

    def test_uncached_rows_are_the_baseline(self):
        for scheme in ("fast", "fastplus"):
            for row in self._rows(scheme):
                if row["cache_pages"] == 0:
                    assert row["speedup_vs_uncached"] == 1.0
                    assert row["cache_hits"] == 0

    def test_undersized_cache_wins_least(self):
        """The fig15 crossover: an 8-page cache thrashes (fills are not
        amortized), so it trails the 64-page cache at every swept
        latency — but it no longer *loses* to the uncached run, at
        300 ns either (0.99x / 0.92x before writer contexts read
        through the tier, which hit frames and never fill one)."""
        for scheme in ("fast", "fastplus"):
            for read_ns in (300.0, 900.0, 1200.0):
                small = self._cell(scheme, 8, read_ns)
                sized = self._cell(scheme, 64, read_ns)
                assert 1.0 < small["speedup_vs_uncached"] < (
                    sized["speedup_vs_uncached"])
        assert self._cell("fast", 8, 300.0)["speedup_vs_uncached"] < 1.1
        assert self._cell("fastplus", 8, 300.0)["speedup_vs_uncached"] < 1.1

    def test_sparse_fills_left_the_frame_traffic_alone(self):
        """What a fill or a hit costs never decides which frames are
        filled and dropped: every cell's cache events are the same at
        every latency (the schedule does not depend on simulated time).
        Pinned as (hits, misses, evictions, invalidations); re-pinned
        once when the locked writer's context started to read through
        the tier.  Its hits are counted (64 pages: +87 / +81, and
        nothing else moves — it fills nothing, so misses, and with no
        capacity pressure evictions and invalidations, are the
        readers').  At 8 pages its hits also set reference bits, so
        the clock spares different frames: a few more reader misses and
        evictions, and invalidations follow which frames happen to be
        resident when the writer commits.  Re-pinned again when a
        locked descent stopped keeping the internal pages it only
        routes through: the writer reads the root through the tier once
        per operation instead of once per transaction, +10 hits in
        every cell and nothing else moves."""
        events = {
            ("fast", 8): (500, 135, 117, 12),
            ("fast", 64): (623, 34, 0, 25),
            ("fastplus", 8): (405, 218, 205, 5),
            ("fastplus", 64): (603, 48, 0, 23),
        }
        for (scheme, pages), expected in events.items():
            for read_ns in (300.0, 900.0, 1200.0):
                cell = self._cell(scheme, pages, read_ns)
                assert (cell["cache_hits"], cell["cache_misses"],
                        cell["cache_evicts"],
                        cell["cache_invalidates"]) == expected

    def test_cache_pays_for_itself_at_900ns(self):
        """The 64-page tier at 900 ns PM reads hits >= 0.8 and runs
        >= 3.0x the cache-off cell on the same commits."""
        for scheme in ("fast", "fastplus"):
            off = self._cell(scheme, 0, 900.0)
            on = self._cell(scheme, 64, 900.0)
            assert on["commits"] == off["commits"]
            assert on["cache_hit_ratio"] >= 0.8
            assert on["speedup_vs_uncached"] >= 3.0

    def test_win_grows_with_pm_latency(self):
        for scheme in ("fast", "fastplus"):
            speedups = [self._cell(scheme, 64, ns)["speedup_vs_uncached"]
                        for ns in (300.0, 900.0, 1200.0)]
            assert speedups == sorted(speedups)

    def test_reads_commit_identically_across_cells(self):
        for scheme in ("fast", "fastplus"):
            commits = {row["commits"] for row in self._rows(scheme)}
            assert len(commits) == 1


class TestWrapperExtraCounters:
    """Each cell shape reports the run's whole counter delta, its own
    counters and any other a caller wants beside them."""

    def test_isolation_cell(self):
        result = run_multi_client("fast", isolation="occ", clients=2,
                                  items=5)
        assert "sched.step" in result["counters"]
        assert "occ.validation" in result["counters"]

    def test_group_commit(self):
        result = run_grouped("fast", 2, clients=8, items=25)
        assert "sched.wait" in result["counters"]
        assert "group.close" in result["counters"]
        assert result["commits"] == 8 * 25

    def test_cache_cell(self):
        result = run_cached("fast", 8, clients=2, items=5, key_space=40)
        assert "sched.step" in result["counters"]
        assert "cache.hit" in result["counters"]


class TestOneReport:
    """The per-commit figures derive from the counter delta in one
    place, so every run reports them, sharded or not."""

    def test_ratios_match_the_counters(self):
        result = run_multi_client("fastplus", clients=4, items=10)
        counters = result["counters"]
        commits = result["commits"]
        assert result["fences_per_txn"] == counters["pm.fence"] / commits
        assert result["lock_acquires_per_commit"] == (
            counters["lock.acquire"] / commits)
        assert result["occ_abort_rate"] == 0.0
        assert all(value != 0 for value in counters.values())

    def test_sharded_run_reports_the_same_figures(self):
        result = run_sharded("fast", shards=2, clients=4, items=8,
                             cross_ratio=0.5)
        assert result["marks_per_txn"] > 0
        assert result["serial_throughput_tps"] <= result["throughput_tps"]
        assert sum(result["busy_ns"]) > 0


class TestCommittedFigures:
    """fig13-15 are renders of the committed grid's rows: rendered from
    ``BENCH_multiclient.json`` with no simulation, they are
    ``results/``'s tables byte for byte."""

    @pytest.mark.parametrize("figure,section", [
        (fig13, "mvcc_sweep"), (fig14, "occ_sweep"), (fig15, "cache_sweep"),
    ])
    def test_render_matches_results(self, monkeypatch, figure, section):
        def simulate(*args, **kwargs):
            raise AssertionError("a render ran a cell")

        monkeypatch.setattr("repro.bench.multiclient.run_multi_client",
                            simulate)
        table = figure(BASELINE[section])["table"]
        name = figure.__name__
        assert table + "\n" == (ROOT / "results" / (name + ".txt")).read_text()
        assert table_to_csv(table) == (
            ROOT / "results" / (name + ".csv")).read_text()
