"""The paper's evaluation claims, checked against the committed tables.

Each test is one ordering, trend or factor of the evaluation (the
paper's, or EXPERIMENTS.md's reading of a reconstructed figure), with
its bound, read from ``results/<stem>.csv``.  Nothing is simulated
here: ``python -m repro.bench all --out results`` makes the tables at
their committed size and CI diffs that output against ``results/``
byte for byte, so a change that moves a number regenerates the table
and must still pass these tests.  The cells are the tables' rounded
values (two decimals for microseconds).
"""

import csv
import pathlib

from repro.bench.figures import (
    LATENCY_POINTS,
    READ_RATIOS,
    RECORD_SIZES,
    SCHEMES,
    TXN_SIZES,
    WRITE_LATENCIES,
)

RESULTS = pathlib.Path(__file__).resolve().parents[2] / "results"
PM_SCHEMES = ("fast", "fastplus")


def column(stem, value, *keys):
    """``results/<stem>.csv``'s ``value`` column as a dict keyed by the
    ``keys`` columns (a tuple when there are several).  A cell that
    reads as a number, a trailing ``%`` dropped, is a float."""
    with open(RESULTS / (stem + ".csv"), newline="") as f:
        rows = list(csv.DictReader(f))
    return {
        (_cell(row[keys[0]]) if len(keys) == 1
         else tuple(_cell(row[key]) for key in keys)): _cell(row[value])
        for row in rows
    }


def _cell(text):
    try:
        return float(text.rstrip("%"))
    except ValueError:
        return text


def latency(read_ns, write_ns):
    return "%d/%d" % (read_ns, write_ns)


class TestFig01:
    """Figure 1 (motivation): bytes written per single-record txn."""

    def bytes_per_txn(self):
        return column("fig01", "bytes/txn", "scheme")

    def test_journaling_over_wal_over_fastplus(self):
        # Block-device journaling doubles WAL-mode traffic; both dwarf
        # the PM schemes (the "journaling of journal" anomaly).
        b = self.bytes_per_txn()
        assert (b["journaling (block dev)"] > b["wal (block dev)"]
                > b["fastplus (PM)"])

    def test_journaling_over_50x_fastplus(self):
        b = self.bytes_per_txn()
        assert b["journaling (block dev)"] > 50 * b["fastplus (PM)"]

    def test_inplace_commit_writes_no_more_than_fast(self):
        b = self.bytes_per_txn()
        assert b["fastplus (PM)"] <= b["fast (PM)"]


class TestFig06:
    """Figure 6: insertion time vs PM read/write latency."""

    def total(self):
        return column("fig06", "total", "latency", "scheme")

    def test_fastplus_below_fast_below_nvwal_at_every_latency(self):
        # The paper's headline ordering at every latency point.
        total = self.total()
        for point in LATENCY_POINTS:
            at = latency(*point)
            assert (total[at, "fastplus"] < total[at, "fast"]
                    < total[at, "nvwal"]), at

    def test_pm_schemes_slow_down_as_latency_grows(self):
        total = self.total()
        for scheme in PM_SCHEMES:
            series = [total[latency(*p), scheme] for p in LATENCY_POINTS]
            assert series == sorted(series), (scheme, series)

    def test_nvwal_over_1_4x_fastplus_at_1200ns(self):
        # FAST+ stays ahead even at 1.2 us (paper Section 5 claim).
        total = self.total()
        at = latency(1200, 1200)
        assert total[at, "nvwal"] > 1.4 * total[at, "fastplus"]


class TestFig07:
    """Figure 7: where the Page Update time goes."""

    @staticmethod
    def seg(label, latency_ns, scheme):
        at = latency(latency_ns, latency_ns)
        return column("fig07", label, "latency", "scheme")[at, scheme]

    def flush_series(self, scheme):
        return [self.seg("clflush(record)", ns, scheme)
                for ns in WRITE_LATENCIES]

    def test_record_flush_grows_with_latency(self):
        # The paper's main observation about persistent buffer caching.
        for scheme in PM_SCHEMES:
            series = self.flush_series(scheme)
            assert series == sorted(series), (scheme, series)

    def test_record_flush_at_1200ns_over_300ns(self):
        for scheme in PM_SCHEMES:
            series = self.flush_series(scheme)
            assert series[-1] > series[0], (scheme, series)

    def test_nvwal_pays_volatile_buffer_caching(self):
        assert self.seg("volatile buffer caching", 300, "nvwal") > 0

    def test_fast_never_copies_pages_to_dram(self):
        assert self.seg("volatile buffer caching", 300, "fast") == 0

    def test_fastplus_never_copies_pages_to_dram(self):
        assert self.seg("volatile buffer caching", 300, "fastplus") == 0

    def test_slot_header_copy_below_record_flush(self):
        # The slot-header copy into the log is nearly free (no flushes).
        assert (self.seg("update slot header", 1200, "fast")
                < self.seg("clflush(record)", 1200, "fast"))


class TestFig08:
    """Figure 8: commit-time breakdown vs PM write latency."""

    @staticmethod
    def seg(label, write_ns, scheme):
        return column("fig08", label, "write_ns", "scheme")[write_ns, scheme]

    def commit(self, write_ns, scheme):
        return self.seg("Commit total", write_ns, scheme)

    def test_fastplus_commit_below_fast(self):
        for w in WRITE_LATENCIES:
            assert self.commit(w, "fastplus") < self.commit(w, "fast"), w

    def test_fast_commit_below_nvwal(self):
        for w in WRITE_LATENCIES:
            assert self.commit(w, "fast") < self.commit(w, "nvwal"), w

    def test_nvwal_commit_over_4x_fastplus(self):
        # The headline factor (paper: logging overhead reduced to ~1/6).
        ratios = [
            self.commit(w, "nvwal") / max(1e-9, self.commit(w, "fastplus"))
            for w in WRITE_LATENCIES
        ]
        assert all(ratio > 4 for ratio in ratios), ratios

    def test_nvwal_diff_computation_2_to_8us(self):
        # The paper's ~4 us of differential-logging computation.
        assert 2.0 < self.seg("NVWAL Computation", 300, "nvwal") < 8.0

    def test_nvwal_heap_management_1_to_6us(self):
        # The paper's ~3 us of heap management.
        assert 1.0 < self.seg("Heap Mgmt", 300, "nvwal") < 6.0

    def test_pm_schemes_compute_no_diffs(self):
        for scheme in PM_SCHEMES:
            assert self.seg("NVWAL Computation", 300, scheme) == 0.0

    def test_pm_schemes_manage_no_heap(self):
        for scheme in PM_SCHEMES:
            assert self.seg("Heap Mgmt", 300, scheme) == 0.0

    def test_fastplus_checkpoints_less_than_fast(self):
        # The in-place commit skips most of the eager checkpoint
        # (paper: 0.72 vs 1.42 us).
        assert (self.seg("Checkpointing", 300, "fastplus")
                < self.seg("Checkpointing", 300, "fast"))


class TestFig09:
    """Figure 9: insertion time (a) and clflush count (b) vs record size."""

    def us(self):
        return column("fig09", "us/insert", "record B", "scheme")

    def flushes(self):
        return column("fig09", "clflush/insert", "record B", "scheme")

    def test_fastplus_beats_nvwal_at_every_size(self):
        us = self.us()
        for size in RECORD_SIZES:
            assert us[size, "fastplus"] < us[size, "nvwal"], size

    def test_fast_gap_to_nvwal_holds_to_256B(self):
        # The paper's gap widens with record size while records still
        # amortise over pages; here it stays roughly flat (EXPERIMENTS.md,
        # Figure 9 deviations), so the claim is that it does not collapse.
        us = self.us()
        gap_64 = us[64, "nvwal"] - us[64, "fast"]
        gap_256 = us[256, "nvwal"] - us[256, "fast"]
        assert gap_256 > 0.75 * gap_64

    def test_time_grows_with_record_size(self):
        us = self.us()
        for scheme in SCHEMES:
            series = [us[size, scheme] for size in RECORD_SIZES]
            assert series == sorted(series), (scheme, series)

    def test_flushes_grow_with_record_size(self):
        flushes = self.flushes()
        smallest, largest = RECORD_SIZES[0], RECORD_SIZES[-1]
        for scheme in SCHEMES:
            assert flushes[largest, scheme] > flushes[smallest, scheme], scheme

    def test_fastplus_flushes_no_more_than_fast(self):
        flushes = self.flushes()
        for size in RECORD_SIZES:
            assert flushes[size, "fastplus"] <= flushes[size, "fast"], size

    def test_fastplus_flushes_less_than_nvwal(self):
        # NVWAL pays WAL frames *and* checkpoint write-backs.
        flushes = self.flushes()
        for size in RECORD_SIZES:
            assert flushes[size, "fastplus"] < flushes[size, "nvwal"], size


class TestFig10:
    """Figure 10 (reconstructed): multi-record transactions."""

    def commit(self):
        return column("fig10", "commit us/insert", "records/txn", "scheme")

    def test_logged_commit_amortizes_as_txns_grow(self):
        commit = self.commit()
        smallest, largest = TXN_SIZES[0], TXN_SIZES[-1]
        for scheme in ("fast", "nvwal"):
            assert commit[largest, scheme] < commit[smallest, scheme], scheme

    def test_fastplus_commit_within_1_5x_of_fast(self):
        # With >= 2 records per txn FAST+ logs like FAST (Section 4.2).
        commit = self.commit()
        for n in TXN_SIZES[1:]:
            assert commit[n, "fastplus"] < 1.5 * commit[n, "fast"], n

    def test_fast_commit_within_1_5x_of_fastplus(self):
        commit = self.commit()
        for n in TXN_SIZES[1:]:
            assert commit[n, "fast"] < 1.5 * commit[n, "fastplus"], n

    def test_inplace_commit_under_0_7x_logged_at_one_record(self):
        commit = self.commit()
        assert commit[1, "fastplus"] < 0.7 * commit[1, "fast"]

    def test_fast_beats_nvwal_at_every_txn_size(self):
        us = column("fig10", "us/insert", "records/txn", "scheme")
        for per_txn in TXN_SIZES:
            assert us[per_txn, "fast"] < us[per_txn, "nvwal"], per_txn


class TestFig11:
    """Figure 11 (reconstructed): full query response time."""

    def us(self):
        return column("fig11", "us/statement", "statement", "scheme")

    def test_fastplus_beats_nvwal_on_every_write(self):
        us = self.us()
        for kind in ("insert", "update", "delete"):
            assert us[kind, "fastplus"] < us[kind, "nvwal"], kind

    def test_insert_improvement_10_to_70_percent(self):
        # The SQL layer dilutes the commit-time gain (paper: up to 33%).
        us = self.us()
        nvwal, fastplus = us["insert", "nvwal"], us["insert", "fastplus"]
        improvement = 100.0 * (nvwal - fastplus) / nvwal
        assert 10.0 < improvement < 70.0, improvement

    def test_select_within_2x_across_schemes(self):
        # Read-only statements never touch the commit path.
        us = self.us()
        selects = [us["select", scheme] for scheme in SCHEMES]
        assert max(selects) < 2.0 * min(selects), selects


class TestFig12:
    """Figure 12 (reconstructed): mixed read/insert throughput."""

    def us(self):
        us = column("fig12", "us/op", "read %", "scheme")
        return {(ratio, scheme): us[round(100 * ratio), scheme]
                for ratio in READ_RATIOS for scheme in SCHEMES}

    def test_fastplus_beats_nvwal_at_every_mix(self):
        us = self.us()
        for ratio in READ_RATIOS:
            assert us[ratio, "fastplus"] < us[ratio, "nvwal"], ratio

    def test_more_reads_cost_less_per_op(self):
        us = self.us()
        for scheme in SCHEMES:
            series = [us[ratio, scheme] for ratio in READ_RATIOS]
            assert series == sorted(series, reverse=True), (scheme, series)

    def test_gap_narrows_as_reads_grow(self):
        us = self.us()
        writes, reads = READ_RATIOS[0], READ_RATIOS[-1]
        gap_writes = us[writes, "nvwal"] - us[writes, "fastplus"]
        gap_reads = us[reads, "nvwal"] - us[reads, "fastplus"]
        assert gap_reads < gap_writes


class TestAblationAtomicity:
    """Ablation A1: crash-sweep violations by atomic-write granularity."""

    def violations(self, scheme, granularity):
        return column("ablation_atomicity", "violations", "scheme",
                      "atomic bytes")[scheme, granularity]

    def test_fast_safe_with_8_byte_writes(self):
        assert self.violations("fast", 8) == 0

    def test_nvwal_safe_with_8_byte_writes(self):
        assert self.violations("nvwal", 8) == 0

    def test_fastplus_unsafe_with_8_byte_writes(self):
        # The in-place commit needs line-atomic writeback (Section 3.2).
        assert self.violations("fastplus", 8) > 0

    def test_fastplus_safe_with_line_writes(self):
        assert self.violations("fastplus", 64) == 0

    def test_naive_unsafe_with_8_byte_writes(self):
        # A multi-line header update cannot be atomic without logging.
        assert self.violations("naive", 8) > 0

    def test_naive_unsafe_with_line_writes(self):
        assert self.violations("naive", 64) > 0


class TestAblationCheckpoint:
    """Ablation A2: eager checkpointing keeps recovery below NVWAL's."""

    def test_fast_recovers_faster_than_nvwal(self):
        us = column("ablation_checkpoint", "recovery us", "scheme")
        assert us["fast"] < us["nvwal"]

    def test_fastplus_recovers_faster_than_nvwal(self):
        us = column("ablation_checkpoint", "recovery us", "scheme")
        assert us["fastplus"] < us["nvwal"]


class TestAblationRtm:
    """Ablation A3: the in-place commit under injected RTM aborts."""

    def test_half_aborting_costs_under_2x(self):
        us = column("ablation_rtm", "us/insert", "abort prob")
        assert us[0.5] < 2.0 * us[0.0]

    def test_aborts_never_make_it_cheaper(self):
        us = column("ablation_rtm", "us/insert", "abort prob")
        assert us[0.0] <= us[0.5]


class TestAblationIndexMaintenance:
    """Ablation A4: SQL INSERT cost vs number of secondary indexes."""

    def us(self):
        return column("ablation_index_maintenance", "us/insert", "indexes",
                      "scheme")

    def test_fastplus_beats_nvwal_at_every_index_count(self):
        us = self.us()
        for nindexes in (0, 1, 2):
            assert us[nindexes, "fastplus"] < us[nindexes, "nvwal"], nindexes

    def test_fast_beats_nvwal_at_every_index_count(self):
        us = self.us()
        for nindexes in (0, 1, 2):
            assert us[nindexes, "fast"] < us[nindexes, "nvwal"], nindexes

    def test_nvwal_grows_fastest_with_indexes(self):
        # NVWAL logs dirty page ranges per structure touched.
        us = self.us()
        assert us[2, "nvwal"] - us[0, "nvwal"] > us[2, "fast"] - us[0, "fast"]


class TestAblationFlush:
    """Ablation A5: flush instruction, clflush vs clwb."""

    def test_clwb_beats_clflush(self):
        us = column("ablation_flush", "us/insert", "scheme", "instruction")
        for scheme in PM_SCHEMES:
            assert us[scheme, "clwb"] < us[scheme, "clflush"], scheme


class TestAblationDefrag:
    """Section 4.3: defragmentation's share of insertion time."""

    def share(self):
        return column("ablation_defrag", "share of total", "scheme",
                      "workload")

    def test_fixed_size_inserts_never_defragment(self):
        # The paper's configuration: "<0.02%".
        assert self.share()["fastplus", "fixed-64B"] < 0.02

    def test_replace_churn_stays_under_a_quarter(self):
        assert self.share()["fastplus", "replace-churn"] < 25.0


class TestExtensionRecovery:
    """Extension: recovery time vs database size, eager vs lazy GC."""

    def us(self):
        return column("extension_recovery", "recovery us", "records",
                      "scheme", "GC")

    def sizes(self):
        return sorted({size for size, _, _ in self.us()})

    def test_pm_lazy_recovery_is_size_independent(self):
        # The eagerly checkpointed log has nothing to replay.
        us = self.us()
        for scheme in PM_SCHEMES:
            lazy = [us[size, scheme, "lazy"] for size in self.sizes()]
            assert max(lazy) < 5.0, (scheme, lazy)

    def test_eager_gc_grows_with_the_tree(self):
        # Eager GC reads the internal pages and relinks the free pages
        # below the highest live one: it grows with the tree.
        us, sizes = self.us(), self.sizes()
        for scheme in PM_SCHEMES:
            assert (us[sizes[-1], scheme, "eager"]
                    > us[sizes[0], scheme, "eager"]), scheme

    def test_nvwal_lazy_recovery_over_10x_fast(self):
        # NVWAL must rebuild its WAL index either way.
        us, size = self.us(), self.sizes()[0]
        assert us[size, "nvwal", "lazy"] > 10 * us[size, "fast", "lazy"]

    def test_committed_eager_recovery_meets_its_floor(self):
        """FAST eager-GC recovery under 0.25 x 48.29 us at 200 records
        and 0.6 x 69.15 us at 1 200, its cost before the overflow latch
        and the free-page run link."""
        us = self.us()
        assert us[200, "fast", "eager"] < 0.25 * 48.29
        assert us[1200, "fast", "eager"] < 0.6 * 69.15
