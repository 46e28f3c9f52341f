"""The device model: an FTL plus FIFO queueing and response times.

:class:`DeviceModel` is the shared timing subsystem (validation, warmup,
GC accounting, background GC, per-run queue reset); :class:`SSDevice` is
the paper-faithful single-channel queue and :class:`ChannelSSDevice`
(extension) overlaps operations across several flash channels.  Use
:func:`make_device` to pick a model by channel count.  There is one
replay loop, :meth:`DeviceModel.run`.
"""

from .device import (QOS_POLICIES, DeviceModel, FairShare, RunResult,
                     SSDevice, run_fast, simulate)
from .parallel import ChannelSSDevice, make_device

__all__ = ["DeviceModel", "SSDevice", "ChannelSSDevice", "RunResult",
           "simulate", "make_device", "run_fast", "FairShare",
           "QOS_POLICIES"]
