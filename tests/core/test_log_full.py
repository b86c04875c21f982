"""A commit the slot-header log has no room for is refused cleanly.

The commit asks the log for room before its first store, so
``LogFullError`` comes before any MVCC publish or 2PC prepare record;
the transaction is rolled back, reported aborted, and the error
re-raised.  The engine is not wedged: the next commit succeeds, the
committed records are all there, no page leaked, and a crash recovers
exactly the committed prefix.
"""

import pytest

from repro.core import SystemConfig, engine_class, open_engine
from repro.obs import trace as ev
from repro.pm import PersistAll
from repro.storage.sharding import ShardRouter
from repro.wal import LogFullError

CASES = ["fast", "fastplus", "session", "occ", "sharded"]


def _config(scheme):
    return SystemConfig(
        scheme=scheme, npages=256, page_size=512, log_bytes=256,
        heap_bytes=1 << 20, dram_bytes=64 * 512,
    )


def _key(i):
    return b"k%04d" % i


def _open(case):
    scheme = "fastplus" if case == "fastplus" else "fast"
    if case == "sharded":
        return ShardRouter.create(_config(scheme), 2, scheme=scheme)
    return open_engine(_config(scheme))


def _transaction(case, host):
    if case == "occ":
        return host.session("s", isolation="occ").transaction()
    if case in ("session", "sharded"):
        return host.session("s").transaction()
    return host.transaction()


def _attach(case, host):
    host.pm.crash(PersistAll())
    if case == "sharded":
        return ShardRouter.attach(host.config, 2, host.pm)
    return engine_class(host.scheme).attach(host.config, host.pm)


def _no_page_leaked(host):
    for engine in getattr(host, "shards", [host]):
        assert (len(engine.reachable_pages())
                + engine.store.free_page_count()
                == engine.config.npages - 1)


@pytest.mark.parametrize("case", CASES)
def test_a_refused_commit_rolls_back_and_the_next_one_commits(case):
    host = _open(case)
    model = {}
    for i in range(0, 400, 4):
        host.insert(_key(i), b"v" * 20)
        model[_key(i)] = b"v" * 20
    registry = host.obs.registry
    commits = registry.value("engine.txn.commit")
    rollbacks = registry.value("engine.txn.rollback")
    prepares = len(host.trace.events(ev.TWOPC_PREPARE))

    txn = _transaction(case, host)
    for i in range(1, 400, 4):  # one record into every leaf
        txn.insert(_key(i), b"w" * 20)
    with pytest.raises(LogFullError):
        txn.commit()
    assert registry.value("engine.txn.commit") == commits
    assert registry.value("engine.txn.rollback") > rollbacks
    assert len(host.trace.events(ev.TWOPC_PREPARE)) == prepares
    if txn.session is not None:
        assert not txn.session.in_transaction
    assert dict(host.scan()) == model
    _no_page_leaked(host)

    txn = _transaction(case, host)
    for key in (_key(1), _key(2)):  # two shards when sharded
        txn.insert(key, b"x" * 20)
        model[key] = b"x" * 20
    txn.commit()
    assert dict(host.scan()) == model
    _no_page_leaked(host)
    assert dict(_attach(case, host).scan()) == model


def test_an_epoch_that_fills_the_log_closes_to_make_room():
    """Grouped commits whose frames outgrow the log before the epoch
    reaches its size close it early instead of refusing."""
    config = SystemConfig(
        scheme="fast", npages=256, page_size=512, log_bytes=256,
        heap_bytes=1 << 20, dram_bytes=64 * 512, group_commit_size=16,
    )
    engine = open_engine(config)
    model = {}
    for i in range(40):
        engine.insert(_key(i), b"v" * 20)
        model[_key(i)] = b"v" * 20
    assert engine.registry.value("group.close") > 0
    engine.drain_group_commit()
    assert dict(engine.scan()) == model
    _no_page_leaked(engine)
    assert dict(_attach("fast", engine).scan()) == model
