"""Hardware transactional memory (Intel RTM) emulation.

The paper's in-place commit uses Restricted Transactional Memory to
update a slot-header (one cache line) atomically: stores inside the
transaction stay in the store buffer and become visible all at once at
``XEND``.  This package reproduces the three properties that matter:

* stores inside a transaction are invisible (and lost on crash) until
  commit;
* a transaction whose write set exceeds the hardware limit (here: one
  cache line, the paper's restriction) aborts;
* RTM is best-effort — transient aborts can happen at any time, so a
  software fallback/retry policy is mandatory.
"""

from repro.htm.rtm import RTM, RTMAbort

__all__ = ["RTM", "RTMAbort"]
