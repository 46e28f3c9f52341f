"""The device model: an FTL plus FIFO queueing and response times.

:class:`DeviceModel` is the one timing subsystem (validation, warmup,
GC accounting, per-run queue reset, the replay loop
:meth:`DeviceModel.run`); ``channels=1`` is the paper-faithful
single-server queue and ``channels=N`` (extension) overlaps operations
across N flash channels.  :func:`simulate` builds a device and replays
a trace in one call.
"""

from .device import (QOS_POLICIES, DeviceModel, FairShare, RunResult,
                     make_device, run_fast, simulate)

__all__ = ["DeviceModel", "RunResult", "FairShare", "QOS_POLICIES",
           "simulate", "make_device", "run_fast"]
