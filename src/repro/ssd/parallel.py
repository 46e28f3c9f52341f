"""Multi-channel device model (extension beyond the paper).

The paper's response-time model is a single-server queue — one flash
channel.  Real SSDs stripe blocks across several channels that operate
in parallel (Agrawal et al., the source of Table 3, models up to 8;
LFTL drives a parallel-IO flash card the same way).
:class:`ChannelSSDevice` refines the timing model: each flash operation
is dispatched to a channel, channels serve their own FIFO queues, and a
request completes when its last operation does.

Because the FTL layer is timing-agnostic (it reports operation *counts*
and the flash records *which* blocks were touched), the channel model
only needs the per-request operation trace; we approximate it by
striping operations over the channels with a round-robin cursor that
persists across requests — the limit behaviour of block-striped
allocation, under which consecutive single-page requests land on
different channels.  Intra-request ordering constraints (a translation
read preceding the data read it resolves) are ignored, so the model is
an optimistic bound on channel overlap.  The single-channel
:class:`~repro.ssd.device.SSDevice` remains the paper-faithful default,
and ``ChannelSSDevice(channels=1)`` reproduces it exactly — same
arithmetic, same per-request finish times, bit for bit.

All non-queueing behaviour (trace validation, warmup, GC-time and
service-time accounting, background GC, response sampling, per-run
queue reset) lives in the shared :class:`~repro.ssd.device.DeviceModel`
base and is therefore identical across device models.
"""

from __future__ import annotations

from typing import List, Tuple

from ..errors import ConfigError
from ..ftl.base import BaseFTL
from .device import DeviceModel, SSDevice


class ChannelSSDevice(DeviceModel):
    """An SSD with ``channels`` independently-queued flash channels."""

    def __init__(self, ftl: BaseFTL, channels: int = 4,
                 **kwargs) -> None:
        if channels < 1:
            raise ConfigError("channels must be >= 1")
        self.channels = channels
        super().__init__(ftl, **kwargs)

    # ------------------------------------------------------------------
    # Queueing hooks
    # ------------------------------------------------------------------
    def _reset_queues(self) -> None:
        self._busy: List[float] = [0.0] * self.channels
        #: round-robin striping cursor; persists across requests so
        #: consecutive small requests spread over all channels
        self._cursor = 0

    def _earliest_free(self) -> float:
        return min(self._busy)

    def _absorb_idle(self, service_us: float) -> None:
        # background GC occupies one channel; use the least busy one
        index = self._busy.index(min(self._busy))
        self._busy[index] += service_us

    def _dispatch(self, arrival: float, reads: int, writes: int,
                  erases: int, service_us: float) -> Tuple[float, float]:
        if self.channels == 1:
            # Exact SSDevice arithmetic (one multiply-accumulated
            # service time, not a per-op sum), so channels=1 replays
            # are bit-for-bit identical to the single-server model.
            start = max(arrival, self._busy[0])
            finish = start + service_us
            self._busy[0] = finish
            return start, finish
        ssd = self.ftl.ssd
        return self._dispatch_counts(arrival, reads, writes, erases,
                                     ssd.read_us, ssd.write_us,
                                     ssd.erase_us)

    def _parallel_service_us(self, reads: int, writes: int, erases: int,
                             service_us: float) -> float:
        """Striped makespan of the request on an otherwise-idle device.

        Fair-share dispatch places whole requests, so the channel
        model's contribution is the length of the request's own op
        schedule: ops round-robined from channel 0 (the striping
        pattern :meth:`_dispatch_counts` uses), makespan = the busiest
        channel's op-latency sum.  ``channels=1`` degenerates to the
        single-server op sum exactly.
        """
        if self.channels == 1:
            return service_us
        ssd = self.ftl.ssd
        per_channel = [0.0] * self.channels
        cursor = 0
        for latency, count in ((ssd.read_us, reads),
                               (ssd.write_us, writes),
                               (ssd.erase_us, erases)):
            for _ in range(count):
                per_channel[cursor] += latency
                cursor = (cursor + 1) % self.channels
        return max(per_channel)

    def _dispatch_counts(self, arrival: float, reads: int, writes: int,
                         erases: int, read_us: float, write_us: float,
                         erase_us: float) -> Tuple[float, float]:
        """Round-robin ``reads`` + ``writes`` + ``erases`` ops.

        Counted iteration over (latency, count) pairs — no per-request
        op-list materialization — with the same dispatch order (reads,
        then writes, then erases) and the same per-op float arithmetic
        as before, so replays stay bit-for-bit identical.
        """
        busy = self._busy
        cursor = self._cursor
        channels = self.channels
        start = None
        finish = arrival
        for latency, count in ((read_us, reads), (write_us, writes),
                               (erase_us, erases)):
            for _ in range(count):
                channel = cursor
                cursor = (cursor + 1) % channels
                op_start = max(arrival, busy[channel])
                busy[channel] = op_start + latency
                if start is None or op_start < start:
                    start = op_start
                if busy[channel] > finish:
                    finish = busy[channel]
        self._cursor = cursor
        return start, finish


def make_device(ftl: BaseFTL, channels: int = 1,
                **kwargs) -> DeviceModel:
    """Build the device model for a channel count.

    ``channels=1`` returns the paper-faithful :class:`SSDevice`; larger
    counts return a :class:`ChannelSSDevice`.  ``kwargs`` (sampling,
    response samples, background GC) are shared by both models.
    """
    if channels < 1:
        raise ConfigError("channels must be >= 1")
    if channels == 1:
        return SSDevice(ftl, **kwargs)
    return ChannelSSDevice(ftl, channels=channels, **kwargs)
