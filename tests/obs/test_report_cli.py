"""End-to-end test of snapshot export + the ``python -m repro.obs`` CLI."""

import json

import pytest

from repro.core import SystemConfig, open_engine
from repro.obs.__main__ import main
from repro.obs.report import load_snapshot, render_report


def _small_engine(scheme="fastplus"):
    config = SystemConfig(
        scheme=scheme, npages=256, page_size=512, log_bytes=16384,
        heap_bytes=1 << 20, dram_bytes=64 * 512,
    )
    return open_engine(config, scheme=scheme)


@pytest.fixture
def snapshot_path(tmp_path):
    engine = _small_engine()
    for i in range(20):
        engine.insert(b"key%04d" % i, b"v" * 32)
    path = tmp_path / "snap.json"
    engine.obs.export_json(str(path))
    return path


def test_export_json_structure(snapshot_path):
    data = json.loads(snapshot_path.read_text())
    assert set(data) == {"now_ns", "registry", "trace"}
    assert data["now_ns"] > 0
    assert data["registry"]["counters"]["pm.flush"] > 0
    assert data["trace"]["recorded"] > 0
    assert "phase.commit" in data["registry"]["histograms"]


def test_cli_renders_report(snapshot_path, capsys):
    assert main([str(snapshot_path)]) == 0
    out = capsys.readouterr().out
    assert "pm.flush" in out
    assert "engine.txn.commit" in out
    assert "phase.commit" in out
    assert "trace" in out.lower()


def test_cli_title_override(snapshot_path, capsys):
    main([str(snapshot_path), "--title", "my-little-report"])
    assert "my-little-report" in capsys.readouterr().out


def test_cli_requires_snapshot_or_demo(capsys):
    with pytest.raises(SystemExit):
        main([])


def test_load_snapshot_accepts_bare_registry_dump(tmp_path):
    """``MetricsRegistry.export_json`` output (no clock/trace wrapper)
    must render too."""
    engine = _small_engine("fast")
    engine.insert(b"k", b"v")
    path = tmp_path / "registry.json"
    engine.registry.export_json(str(path))
    report = render_report(load_snapshot(str(path)), title="bare")
    assert "bare" in report
    assert "pm.flush" in report


def test_report_groups_counters_by_prefix(snapshot_path):
    report = render_report(load_snapshot(str(snapshot_path)))
    # One section per top-level counter family present in the run.
    for family in ("pm.", "engine.", "rtm."):
        assert family in report


def test_cache_section_reports_bytes_per_fill():
    """The DRAM-tier section says how much of a page a fill copies —
    the number sparse frames exist to shrink."""
    config = SystemConfig(
        scheme="fastplus", npages=32, page_size=4096, log_bytes=16384,
        heap_bytes=1 << 20, dram_bytes=64 * 512, dram_cache_pages=8,
    )
    engine = open_engine(config, scheme="fastplus")
    for i in range(10):
        engine.insert(b"key%04d" % i, b"v" * 32)
    engine.search(b"key0003")
    engine.search(b"key0004")
    report = render_report(engine.obs.snapshot())
    counters = engine.obs.registry.counters()
    copied = counters["cache.fill_bytes"]
    assert counters["cache.fill"] == 1 and copied < 4096
    assert copied + counters["cache.fill_skipped_bytes"] == 4096
    assert "dram page cache" in report
    assert "bytes per fill    %8d  (%.1f%% of a page" % (
        copied, 100.0 * copied / 4096) in report
    # The ten inserts each touched the (then frameless) root leaf: a
    # writer's lookup that finds no frame is a bypass, not a miss.
    assert counters["cache.bypass"] == 10
    assert counters["cache.miss"] == counters["cache.fill"]
    assert "bypasses          %8d  writer first touches" % 10 in report


def test_page_section_reports_free_list_checks_and_rebuilds():
    """"N checks, 0 rebuilds" is read from the report: one check per
    page mutated since the attach, however many transactions ran."""
    from repro.core import engine_class

    config = SystemConfig(
        scheme="fast", npages=32, page_size=4096, log_bytes=16384,
        heap_bytes=1 << 20, dram_bytes=64 * 512,
    )
    engine = open_engine(config, scheme="fast")
    engine.insert(b"key0", b"v" * 32)
    assert "slotted pages" not in render_report(engine.obs.snapshot())
    engine.pm.crash()
    engine = engine_class("fast").attach(config, engine.pm)
    for i in range(1, 10):
        engine.insert(b"key%d" % i, b"v" * 32)
    report = render_report(engine.obs.snapshot())
    assert "slotted pages" in report
    assert "free lists        %8d  validated" % 1 in report
    assert report.count(", 0 rebuilt") == 1


def test_scheduler_line_says_why_transactions_retried():
    """Waits and aborts per committed transaction, the aborts split by
    cause, read from the report of a contended scheduled run."""
    from repro.bench.multiclient import client_workload
    from repro.core.scheduler import Scheduler

    engine = _small_engine()
    assert "scheduler" not in render_report(engine.obs.snapshot())
    scheduler = Scheduler(engine)
    for index in range(4):
        scheduler.add_client(client_workload(index, items=12, key_space=20))
    scheduler.run()
    counters = engine.obs.registry.counters()
    commits = counters["engine.txn.commit"]
    assert counters["sched.wait"] and counters["sched.abort"]
    causes = ", ".join(
        "%s %.3f" % (cause, counters.get("sched.abort." + cause, 0) / commits)
        for cause in ("deadlock", "timeout", "occ")
    )
    assert (
        "  per committed txn %.3f waits, %.3f aborts (%s)"
        % (counters["sched.wait"] / commits,
           counters["sched.abort"] / commits, causes)
    ) in render_report(engine.obs.snapshot())
