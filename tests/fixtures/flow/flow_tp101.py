"""TP101 fixture: the PR-4 channel-queue leak, reproduced.

Per-channel queue state (``_busy``) and the striping cursor
(``_cursor``) are initialized in ``__init__``, mutated on the dispatch
path, but the reset path re-initializes only ``_busy`` — exactly the
bug PR 4 fixed in the multi-channel device: a reused device inherited
the previous replay's cursor, skewing every subsequent run.

The flow pass must flag ``_cursor`` (mutated in ``_dispatch``, absent
from ``_reset_state``) and must NOT flag ``_busy`` (reset correctly)
or the fixed ``src/repro/ssd/device.py``.
"""


class LeakyChannelDevice:
    """A multi-channel device model whose reset path forgets state."""

    def __init__(self, channels):
        self.channels = channels
        self._busy = [0.0] * channels
        self._cursor = 0

    def _reset_state(self):
        self._busy = [0.0] * self.channels
        # BUG: self._cursor is not re-initialized here

    def run(self, trace):
        self._reset_state()
        for request in trace:
            self._dispatch(request)

    def _dispatch(self, request):
        channel = self._cursor
        self._cursor = (self._cursor + 1) % self.channels
        self._busy[channel] += request.service_us
