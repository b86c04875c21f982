"""The top-level package surface."""

import dataclasses

import repro


def test_version_and_exports():
    assert repro.__version__
    assert set(repro.SCHEMES) == {"fast", "fastplus", "nvwal", "naive"}


def test_open_database_defaults():
    db = repro.open_database(scheme="fastplus")
    db.execute("CREATE TABLE t (k TEXT PRIMARY KEY, v TEXT)")
    db.execute("INSERT INTO t VALUES ('a', 'b')")
    assert db.query("SELECT v FROM t WHERE k = 'a'") == [("b",)]


def test_open_engine_roundtrip():
    engine = repro.open_engine(repro.SystemConfig(scheme="fast"))
    engine.insert(b"k", b"v")
    assert engine.search(b"k") == b"v"


def test_config_knobs_exported():
    config = repro.SystemConfig(
        latency=repro.LatencyProfile(read_ns=500, write_ns=700),
        cost=repro.CostModel(),
    )
    engine = repro.open_engine(config, scheme="fastplus")
    assert engine.pm.latency.read_ns == 500
    # Every knob is a configuration to test and bench: adding one must
    # be a visible diff here.
    assert {f.name for f in dataclasses.fields(repro.SystemConfig)} == {
        "scheme", "page_size", "npages", "log_bytes", "heap_bytes",
        "dram_bytes", "nvwal_checkpoint_bytes", "latency", "cost",
        "atomic_granularity", "cache_lines", "flush_instruction",
        "eager_recovery_gc", "base_offset", "twopc_bytes",
        "group_commit_size", "dram_cache_pages",
    }


def test_reopen_database_from_pm():
    db = repro.open_database(scheme="fast")
    db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY)")
    db.execute("INSERT INTO t VALUES (7)")
    pm = db.engine.pm
    pm.crash()
    again = repro.open_database(pm=pm)
    assert again.query("SELECT COUNT(*) FROM t") == [(1,)]


def test_isolation_modes_per_scheme():
    """Which session isolation modes each engine serves — the one
    declaration ``Session.open`` checks — is part of the surface."""
    from repro.core import engine_class
    from repro.storage.sharding import ShardRouter

    modes = {scheme: engine_class(scheme).isolation_modes
             for scheme in repro.SCHEMES}
    assert modes == {
        "fast": ("locked", "read_only", "occ"),
        "fastplus": ("locked", "read_only", "occ"),
        "nvwal": ("locked",),
        "naive": (),
    }
    assert ShardRouter.isolation_modes == ("locked", "read_only", "occ")
