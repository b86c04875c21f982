"""Running out of pages in the middle of a split leaves the engine
usable and the arena a committed prefix.

A structure change allocates a page per split level (plus one per
copy-on-write and one for a new root), so on 512-byte pages an insert
that cascades asks the store for several pages in a row.  The store is
made to refuse the ``k``-th page of a transaction for ``k = 0, 1, ...``
until the transaction gets through, so every allocation of every
structure change fails once.  After each refusal:

* the operation raised ``OutOfPagesError`` and its transaction rolled
  back: no page leaked off the free list, and ``verify()`` passes and
  the scan equals the committed model (checked after every refusal
  past a transaction's first page, and every fourth at its first);
* a later delete and insert succeed;
* a crash recovers the committed model (sampled), and on FAST / FAST⁺
  ``PageInvariantChecker`` watches the live run and the recovered
  engine's first writes.
"""

import random

import pytest

from repro.core import SystemConfig, engine_class, open_engine
from repro.pm import RandomPersist
from repro.storage import OutOfPagesError
from repro.testing.invariants import PageInvariantChecker

SCHEMES = ["fast", "fastplus", "nvwal"]


def _key(i):
    return b"key-%036d" % i


def _config(scheme, npages=400):
    return SystemConfig(scheme=scheme, page_size=512, npages=npages)


def _checker(engine):
    if engine.scheme == "nvwal":
        return lambda: None
    return PageInvariantChecker(engine)


class _Refusing:
    """Wraps ``store.reserve_page_no``: with ``left = k`` armed, the
    ``k``-th next reservation raises ``OutOfPagesError``."""

    def __init__(self, store):
        self.reserve = store.reserve_page_no
        self.left = None
        store.reserve_page_no = self

    def __call__(self):
        if self.left is not None:
            if not self.left:
                self.left = None
                raise OutOfPagesError("refused for the test")
            self.left -= 1
        return self.reserve()


def _committed(engine, model):
    assert engine.verify() == len(model)
    assert dict(engine.scan()) == model


def _recovers(engine, config, model, seed, check_key):
    """Crash a fork of ``engine``'s memory, attach it, and check the
    committed model, then a delete and two inserts on the recovered
    engine under the page checker."""
    image = engine.pm.fork()
    image.crash(RandomPersist(rng=random.Random(seed)))
    recovered = engine_class(engine.scheme).attach(config, image)
    check = _checker(recovered)
    check()
    _committed(recovered, model)
    model = dict(model)
    victim = sorted(model)[seed % len(model)]
    assert recovered.delete(victim)
    check()
    recovered.insert(check_key, b"r" * 20, replace=True)
    check()
    recovered.insert(victim, b"q" * 30)
    check()
    model.update({check_key: b"r" * 20, victim: b"q" * 30})
    _committed(recovered, model)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_out_of_pages_mid_split_rolls_back(scheme):
    config = _config(scheme)
    engine = open_engine(config)
    refuse = _Refusing(engine.store)
    check = _checker(engine)
    session = engine.session("writer")
    rng = random.Random(3)
    model = {}
    refused = {}
    for n, i in enumerate(range(0, 520, 2)):
        items = {_key(i): bytes(16)}
        if n % 7 == 0:
            items[_key(i + 1)] = b"x" * 30
        k = 0
        while True:
            free = engine.store.free_page_count()
            refuse.left = k
            try:
                with session.transaction() as txn:
                    for key, value in items.items():
                        txn.insert(key, value)
                        check()
                break
            except OutOfPagesError:
                refused[k] = refused.get(k, 0) + 1
            finally:
                refuse.left = None
            check()
            assert engine.store.free_page_count() == free
            if k or refused[k] % 4 == 1:
                _committed(engine, model)
            if k and refused[k] % 6 == 1:
                _recovers(engine, config, model, n, _key(i))
            k += 1
        model.update(items)
        if n % 5 == 4:
            victim = rng.choice(sorted(model))
            assert engine.delete(victim)
            check()
            del model[victim]
            engine.insert(victim, b"y" * 24)
            check()
            model[victim] = b"y" * 24
    # Faults reached the second and third page of a cascade.
    assert refused.get(2, 0) > 0 and refused.get(3, 0) > 0, refused
    _committed(engine, model)
    _recovers(engine, config, model, 0, _key(1))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_exhausted_store_refuses_a_split_and_stays_usable(scheme):
    """No injection: a 24-page store runs dry."""
    config = _config(scheme, npages=24)
    engine = open_engine(config)
    check = _checker(engine)
    model = {}
    for i in range(0, 4000, 2):
        free = engine.store.free_page_count()
        try:
            engine.insert(_key(i), bytes(16))
        except OutOfPagesError:
            break
        check()
        model[_key(i)] = bytes(16)
    else:
        pytest.fail("the store never ran out")
    check()
    _committed(engine, model)
    assert engine.store.free_page_count() == free
    victim = sorted(model)[len(model) // 2]
    assert engine.delete(victim)
    check()
    engine.insert(victim, bytes(16))
    check()
    _committed(engine, model)
    _recovers(engine, config, model, 1, victim)
