"""Fixture: TP301 — a file handle that is never closed.

``append_record`` opens the journal and writes to it, but no path out
of the function — neither the normal return nor the exception edge the
may-raising ``encode`` opens — closes the handle.  The typestate pass
must flag exactly the ``open()`` site.
"""


def encode(record):
    if record is None:
        raise ValueError("empty record")
    return repr(record)


def append_record(path, record):
    handle = open(path, "a", encoding="utf-8")
    handle.write(encode(record))
