#!/usr/bin/env python3
"""Quickstart: a SQL database on failure-atomic slotted paging.

Opens a database backed by the FAST⁺ engine (in-place commit + slot
header logging) on a simulated persistent-memory arena, runs some SQL,
power-fails the machine mid-transaction, and recovers.

Run:  python examples/quickstart.py
"""

from repro.core import SystemConfig
from repro.db import Database


def main():
    config = SystemConfig(scheme="fastplus")
    db = Database.open(config)

    db.execute("CREATE TABLE notes (id INTEGER PRIMARY KEY, body TEXT)")
    db.execute("INSERT INTO notes VALUES (?, ?)", (1, "persistent memory"))
    db.execute("INSERT INTO notes VALUES (2, 'failure atomic'), (3, 'slotted')")

    print("All notes:")
    for row in db.query("SELECT * FROM notes ORDER BY id"):
        print("  ", row)

    print("Count:", db.execute("SELECT COUNT(*) FROM notes").scalar())

    # An explicit transaction that never commits...
    db.execute("BEGIN")
    db.execute("INSERT INTO notes VALUES (99, 'doomed')")
    print("Inside txn, note 99 visible:",
          db.query("SELECT body FROM notes WHERE id = 99"))

    # ... because the power fails.  Everything volatile is gone; any
    # unflushed data may or may not have reached persistence.
    pm = db.engine.pm
    pm.crash()

    # Re-attach to the same persistent arena: recovery runs.
    recovered = Database.open(config, pm=pm)
    print("After crash + recovery:")
    print("  committed notes:",
          recovered.execute("SELECT COUNT(*) FROM notes").scalar())
    print("  doomed note present:",
          bool(recovered.query("SELECT 1 FROM notes WHERE id = 99")))

    print("Simulated time spent: %.1f us" % (recovered.clock.now_ns / 1000))
    print("Cache-line flushes issued:",
          recovered.engine.registry.value("pm.flush"))


if __name__ == "__main__":
    main()
