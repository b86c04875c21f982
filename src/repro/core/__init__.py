"""The paper's contribution: failure-atomic slotted-paging engines.

``open_engine(config)`` builds a storage engine (pager + B-tree +
commit scheme) on a simulated persistent-memory arena:

* ``"fast"``   — Failure-Atomic Slot-Header logging for every commit
  (paper Section 4.1);
* ``"fastplus"`` — FAST plus the RTM in-place commit for
  single-page transactions (Section 4.2);
* ``"nvwal"``  — the NVWAL baseline: volatile buffer cache +
  differential write-ahead logging in PM (Kim et al., compared
  throughout Section 5);
* ``"naive"``  — unlogged in-place writes, the strawman the atomicity
  ablation uses to show why the paper's machinery is necessary.
"""

from repro.core.config import SystemConfig
from repro.core.base import Engine, ReadView, Transaction, TransactionError
from repro.core.fast import FASTEngine, FASTPlusEngine
from repro.core.locking import (
    LockConflict,
    LockError,
    LockManager,
)
from repro.core.naive import NaiveEngine
from repro.core.nvwal import NVWALEngine
from repro.core.scheduler import Scheduler, SchedulerError
from repro.core.session import Session

_ENGINES = {
    "fast": FASTEngine,
    "fastplus": FASTPlusEngine,
    "nvwal": NVWALEngine,
    "naive": NaiveEngine,
}

SCHEMES = tuple(sorted(_ENGINES))


def engine_class(scheme):
    """The engine class registered under ``scheme``."""
    try:
        return _ENGINES[scheme]
    except KeyError:
        raise ValueError(
            "unknown scheme %r (choose from %s)" % (scheme, ", ".join(SCHEMES))
        ) from None


def open_engine(config=None, *, scheme=None, pm=None):
    """Create (or re-attach to) an engine.

    With ``pm`` given, attaches to an existing formatted arena and runs
    crash recovery; otherwise a fresh arena is created and formatted.
    """
    config = config or SystemConfig()
    cls = engine_class(scheme or config.scheme)
    if pm is None:
        return cls.create(config)
    return cls.attach(config, pm)


__all__ = [
    "Engine",
    "FASTEngine",
    "FASTPlusEngine",
    "LockConflict",
    "LockError",
    "LockManager",
    "NVWALEngine",
    "NaiveEngine",
    "ReadView",
    "SCHEMES",
    "Scheduler",
    "SchedulerError",
    "Session",
    "SystemConfig",
    "Transaction",
    "TransactionError",
    "engine_class",
    "open_engine",
]
