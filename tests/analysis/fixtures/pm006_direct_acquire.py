"""Known-bad fixture for PM006: direct lock-manager acquisition.

The release-on-all-paths guarantee lives in
``repro.core.locking.TwoPhaseLocking`` / ``commit_scope``; any other
call site that invokes ``.acquire`` directly can leak the lock on an
exception path.
"""


def grab(session, resource):
    session.lock_manager.acquire(session.sid, resource, "X")


def grab_via_field(engine, resource):
    engine._locks.acquire(7, resource, "S")
