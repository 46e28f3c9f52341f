"""Fixture: TP302 — a handle released twice.

``append_record`` closes the journal at the end of the happy path and
again in the ``finally``, so the normal path releases the handle
twice.  The typestate pass must flag exactly the second ``close()``.
"""


def append_record(path, line):
    handle = open(path, "a", encoding="utf-8")
    try:
        handle.write(line)
        handle.close()
    finally:
        handle.close()
