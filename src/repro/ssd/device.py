"""Trace-driven SSD device model.

Wraps an FTL and turns flash-operation counts into time using the Table 3
latencies.  There is one device model, :class:`DeviceModel`, and the
flash channel count is a parameter of it:

* ``channels=1`` (the default) is the paper-faithful single-server FIFO
  queue: a request's service starts at ``max(arrival, device free)`` and
  the *system response time* (Fig 6e) is queueing delay plus service
  time.  GC is charged to the request that triggered it, as in FlashSim.
* ``channels=N`` (extension; parallel-IO flash as in Agrawal et al., the
  source of Table 3, and LFTL) stripes a request's individual flash
  operations over N independently-queued channels with a round-robin
  cursor that persists across requests — the limit behaviour of
  block-striped allocation, under which consecutive single-page
  requests land on different channels.  A request completes when its
  last operation does.  Intra-request ordering (a translation read
  preceding the data read it resolves) is ignored, so the model is an
  optimistic bound on channel overlap.

The FTL layer is timing-agnostic (it reports operation *counts*), so
the channel count changes queueing only: hit ratios, write
amplification and GC counts are identical at every ``channels``.

Timing semantics (identical at every channel count):

* A request that touches no flash at all (e.g. a TRIM whose mapping is
  cached — invalidation is out-of-band bookkeeping) completes at its
  arrival time: it never joins a queue and is charged no queueing delay.
* A request's ``start`` is the instant the device *first dispatches*
  work for it, so ``queue_delay = start - arrival`` measures real
  contention.
* Warmup requests age the FTL but are not timed; queue state is reset at
  the start of every ``run()`` so a reused device never inherits the
  previous replay's makespan.

There is one replay loop, :meth:`DeviceModel.run`.  Bit-for-bit
reproducibility of its floating point is a hard invariant (the golden
digests in ``tests/golden_digests.json`` pin it): a request's service
time is ``reads * read_us + writes * write_us + erases * erase_us`` in
exactly that association, and the accumulators, the queue recurrence and
the Welford response statistics are order-dependent folds over the
requests in arrival order.  That is why ``channels == 1`` keeps its own
branch in :meth:`DeviceModel.run`, the queue recurrence inline: it adds
the one multiply-accumulated service time to the queue horizon, where
the striping loop would add the same operations one latency at a time
and round differently.  For the same reason the fair path memoises each
request shape's idle-device stripe by its ``(reads, writes, erases)``
rather than computing it in closed form.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigError, WorkloadError
from ..ftl.base import BaseFTL
from ..metrics import CacheSampler, FTLMetrics, ResponseStats
from ..types import Trace

#: dispatch policies understood by :class:`DeviceModel`
QOS_POLICIES = ("fifo", "fair")


class FairShare:
    """Weighted fair-share dispatch state (the ``qos="fair"`` policy).

    A quasi-stationary approximation of generalized processor sharing:
    every tenant owns a FIFO *lane*, and a request's service is
    stretched by the reciprocal of its tenant's weight share among the
    tenants backlogged at its arrival instant.  A lone backlogged
    tenant therefore receives the full device (share 1 — the arithmetic
    degenerates to the single-server FIFO recurrence exactly), while
    under contention each tenant's queue grows only with its *own*
    offered load: one tenant driven into overload cannot starve the
    others.  Unattributed requests (``tenant=None``) share one
    default lane with weight 1.
    """

    def __init__(self, weights: Optional[Dict[str, float]] = None
                 ) -> None:
        self.weights: Dict[str, float] = dict(weights or {})
        for tenant, weight in self.weights.items():
            if not (math.isfinite(weight) and weight > 0):
                raise ConfigError(
                    f"tenant weight must be positive: {tenant}={weight}")
        #: per-tenant lane horizon (simulated us); reset per run
        self.lanes: Dict[Optional[str], float] = {}

    def reset(self) -> None:
        """Forget all lane state (start of a run)."""
        self.lanes = {}

    def dispatch(self, arrival: float, service_us: float,
                 tenant: Optional[str]) -> Tuple[float, float]:
        """Place one request on its tenant's lane; ``(start, finish)``.

        The effective share is evaluated once, at the arrival instant
        (quasi-stationary): tenants whose lane horizon extends past
        ``arrival`` are backlogged and dilute each other's shares in
        weight proportion.
        """
        weights = self.weights
        lanes = self.lanes
        lane = lanes.get(tenant, 0.0)
        own = 1.0 if tenant is None else weights.get(tenant, 1.0)
        total = own
        for other, busy in lanes.items():
            if other != tenant and busy > arrival:
                total += 1.0 if other is None else weights.get(other, 1.0)
        share = own / total
        start = arrival if arrival > lane else lane
        finish = start + service_us / share
        lanes[tenant] = finish
        return start, finish


@dataclasses.dataclass
class RunResult:
    """Everything measured over one trace replay."""

    ftl_name: str
    trace_name: str
    requests: int
    metrics: FTLMetrics
    response: ResponseStats
    sampler: Optional[CacheSampler]
    #: simulated time at which the last request finished (us)
    makespan: float
    #: flash time spent on GC operations (us), a part of
    #: ``service_time_us``
    gc_time_us: float = 0.0
    #: total flash service time (us) across measured requests
    service_time_us: float = 0.0
    #: flash channels of the device model that produced this result
    channels: int = 1
    #: reliability counters from FlashStats.fault_summary() (injected
    #: faults, ECC retries, retired blocks); all zero on a healthy run
    faults: dict = dataclasses.field(default_factory=dict)
    #: per-tenant response statistics, keyed by tenant name; empty for
    #: single-stream (unattributed) traces
    tenants: Dict[str, ResponseStats] = dataclasses.field(
        default_factory=dict)
    #: dispatch policy that produced this result ("fifo" = paper model)
    qos: str = "fifo"

    @property
    def gc_time_fraction(self) -> float:
        """GC's share of total flash service time (always <= 1: GC is
        served inside the requests that trigger it)."""
        if not self.service_time_us:
            return 0.0
        return self.gc_time_us / self.service_time_us

    def summary(self) -> dict:
        """Headline numbers as a flat dict (handy in tests/benches)."""
        data = self.metrics.summary()
        data.update({
            "ftl": self.ftl_name,
            "trace": self.trace_name,
            "requests": self.requests,
            "mean_response_us": self.response.mean,
            "mean_queue_delay_us": self.response.mean_queue_delay,
            "makespan_us": self.makespan,
            "gc_time_fraction": self.gc_time_fraction,
            "channels": self.channels,
            "qos": self.qos,
        })
        if self.tenants:
            data["tenants"] = {
                name: {"requests": stats.count,
                       "mean_response_us": stats.mean,
                       "mean_queue_delay_us": stats.mean_queue_delay}
                for name, stats in sorted(self.tenants.items())}
        data.update(self.faults)
        return data


class DeviceModel:
    """A simulated SSD: one FTL under ``channels`` FIFO flash queues."""

    def __init__(self, ftl: BaseFTL, channels: int = 1,
                 sample_interval: int = 0,
                 keep_response_samples: bool = False,
                 qos: str = "fifo",
                 tenant_weights: Optional[Dict[str, float]] = None
                 ) -> None:
        if channels < 1:
            raise ConfigError("channels must be >= 1")
        self.ftl = ftl
        #: independently-queued flash channels (1 = the paper's model)
        self.channels = channels
        self.sample_interval = sample_interval
        self.keep_response_samples = keep_response_samples
        if qos not in QOS_POLICIES:
            raise ConfigError(
                f"unknown qos policy {qos!r}; choose from "
                f"{', '.join(QOS_POLICIES)}")
        if tenant_weights is not None and qos != "fair":
            raise ConfigError(
                f"tenant_weights only apply under qos='fair' (got "
                f"qos={qos!r}); drop them or select the fair policy")
        #: dispatch policy; "fifo" (the default) is the paper's model
        #: and leaves every timing untouched, "fair" routes requests
        #: through weighted per-tenant lanes (:class:`FairShare`)
        self.qos = qos
        self._fair = (FairShare(tenant_weights) if qos == "fair"
                      else None)
        #: (reads, writes, erases) -> :meth:`_parallel_service_us`; a
        #: pure function of the key, as channels and latencies are fixed
        self._idle_stripes: Dict[Tuple[int, int, int], float] = {}
        self._reset_state()

    # ------------------------------------------------------------------
    # Queueing
    # ------------------------------------------------------------------
    def _reset_state(self) -> None:
        """Forget queue *and* QoS lane state (start of every run)."""
        #: per-channel horizon: when each channel next falls idle (us)
        self._busy: List[float] = [0.0] * self.channels
        #: round-robin striping cursor; persists across requests so
        #: consecutive small requests spread over all channels
        self._cursor = 0
        if self._fair is not None:
            self._fair.reset()

    def _parallel_service_us(self, reads: int, writes: int, erases: int,
                             service_us: float) -> float:
        """A request's service time with the device to itself.

        Fair-share dispatch places whole *requests*, so the channel
        count's contribution is the length of the request's own op
        schedule: ops striped from channel 0 over idle channels,
        makespan = the busiest channel's latency sum.  ``channels=1``
        is the plain op sum ``service_us``.
        """
        if self.channels == 1:
            return service_us
        key = (reads, writes, erases)
        parallel = self._idle_stripes.get(key)
        if parallel is None:
            parallel = self._idle_stripes[key] = self._stripe(
                [0.0] * self.channels, 0, 0.0, reads, writes, erases)[1]
        return parallel

    def _stripe(self, busy: List[float], cursor: int, arrival: float,
                reads: int, writes: int, erases: int
                ) -> Tuple[float, float]:
        """Round-robin ``reads`` + ``writes`` + ``erases`` ops over the
        channel horizons ``busy`` (updated in place) from ``cursor``.

        Returns the earliest op start and the latest op finish.
        Counted iteration in a fixed order (reads, then writes, then
        erases) with one float add per op, so replays are bit-for-bit
        reproducible.
        """
        ssd = self.ftl.ssd
        channels = len(busy)
        start = None
        finish = arrival
        for latency, count in ((ssd.read_us, reads),
                               (ssd.write_us, writes),
                               (ssd.erase_us, erases)):
            for _ in range(count):
                free = busy[cursor]
                op_start = arrival if arrival > free else free
                busy[cursor] = op_finish = op_start + latency
                cursor = (cursor + 1) % channels
                if start is None or op_start < start:
                    start = op_start
                if op_finish > finish:
                    finish = op_finish
        return start, finish

    # ------------------------------------------------------------------
    # Trace validation
    # ------------------------------------------------------------------
    def _validate_trace(self, trace: Trace) -> None:
        """Reject traces the queue math cannot time truthfully.

        Beyond the address-space bound, arrivals must be non-decreasing:
        the FIFO recurrence charges ``start - arrival`` as queueing
        delay, so an out-of-order arrival would silently *under-report*
        delay for every request it jumped ahead of.  The trace parsers
        sort defensively and the synthetic/traffic generators emit
        ordered schedules, so an unordered trace here is a caller bug.
        Both facts were computed once, when the trace's columns were
        built, so a replay pays nothing per request for them.
        """
        pages = self.ftl.ssd.logical_pages
        if trace.end_lpn > pages:
            raise WorkloadError(
                f"trace touches LPN {trace.end_lpn - 1} but the device has "
                f"only {pages} logical pages")
        if trace.unordered is not None:
            index, arrival, previous = trace.unordered
            raise WorkloadError(
                f"trace arrivals are not non-decreasing: request "
                f"{index} arrives at {arrival} after {previous}; sort "
                f"the trace (the parsers do) or fix the generator")

    # ------------------------------------------------------------------
    # The replay loop
    # ------------------------------------------------------------------
    def run(self, trace: Trace, warmup_requests: int = 0) -> RunResult:
        """Replay a trace and return the measured results.

        ``warmup_requests`` leading requests are served first to age the
        device (fragment the physical mapping, populate the cache, reach
        GC steady state) and then every statistic is reset, so the
        measurement reflects steady-state behaviour — the regime the
        paper's multi-million-request traces operate in.  Warmup service
        is not timed and queue state is reset per run, so neither a
        warmup phase nor a previous replay ever leaks into the measured
        timings.  A negative warmup, or a positive one that leaves no
        request to measure, raises :class:`~repro.errors.ConfigError`
        before anything is served; an empty trace with no warmup is a
        valid replay of zero requests.
        """
        warmup = warmup_requests
        if warmup < 0 or (warmup and warmup >= len(trace)):
            raise ConfigError(
                f"warmup must lie in [0, {len(trace)}) so that at least "
                f"one request is measured (got {warmup})")
        self._validate_trace(trace)
        self._reset_state()
        busy = self._busy
        channels = self.channels
        ftl = self.ftl
        read_us = ftl.ssd.read_us
        write_us = ftl.ssd.write_us
        erase_us = ftl.ssd.erase_us
        if warmup:
            for request in trace.rows(0, warmup):
                ftl.serve_request(request)
            ftl.metrics = FTLMetrics()
            ftl.flash.stats.reset()
        metrics = ftl.metrics
        keep = self.keep_response_samples
        samples: List[float] = []
        # the aggregate ``ResponseStats.record_timing`` fold, inline:
        # the same Welford steps in the same order, on locals
        count = 0
        mean = m2 = peak = queue_total = service_wall = 0.0
        tenants: Dict[str, ResponseStats] = {}
        sampler = (CacheSampler(interval=self.sample_interval)
                   if self.sample_interval > 0 else None)
        fair = self._fair
        gc_time = 0.0
        service_total = 0.0
        makespan = 0.0
        for request in trace.rows(warmup):
            arrival = request.arrival
            cost = ftl.serve_request(request)
            reads = cost.data_reads + cost.translation_reads
            writes = cost.data_writes + cost.translation_writes
            erases = cost.erases
            service = (reads * read_us + writes * write_us
                       + erases * erase_us)
            gc_reads = cost.gc_data_reads + cost.gc_translation_reads
            if gc_reads or erases:
                # (a collection that migrates nothing still erases, and
                # one whose erase failed still read what it migrated)
                gc_time += (
                    gc_reads * read_us
                    + (cost.gc_data_writes + cost.gc_translation_writes)
                    * write_us + erases * erase_us)
            service_total += service
            tenant = request.tenant
            if not (reads or writes or erases):
                # No flash touched (pure cache hit / cached TRIM): the
                # request completes at arrival and is charged no
                # queueing delay for flash work it never issued.
                start = finish = arrival
            elif fair is not None:
                start, finish = fair.dispatch(
                    arrival,
                    self._parallel_service_us(reads, writes, erases,
                                              service),
                    tenant)
            elif channels == 1:
                # The single-server recurrence on the one multiply-
                # accumulated service time (not a per-op sum): the
                # arithmetic the golden digests pin.
                free = busy[0]
                start = arrival if arrival > free else free
                busy[0] = finish = start + service
            else:
                start, finish = self._stripe(busy, self._cursor, arrival,
                                             reads, writes, erases)
                self._cursor = ((self._cursor + reads + writes + erases)
                                % channels)
            if finish > makespan:
                makespan = finish
            value = finish - arrival
            count += 1
            delta = value - mean
            mean += delta / count
            m2 += delta * (value - mean)
            if value > peak:
                peak = value
            queue_total += start - arrival
            service_wall += finish - start
            if keep:
                samples.append(value)
            if tenant is not None:
                per_tenant = tenants.get(tenant)
                if per_tenant is None:
                    per_tenant = tenants[tenant] = ResponseStats(
                        keep_samples=keep)
                per_tenant.record_timing(arrival, start, finish)
            if sampler is not None and sampler.due(
                    metrics.user_page_accesses):
                # the snapshot walks every cached TP node: build it
                # only when a sample is actually due
                sampler.maybe_sample(metrics.user_page_accesses,
                                     ftl.cache_snapshot())
        return RunResult(
            ftl_name=ftl.name,
            trace_name=trace.name,
            requests=len(trace) - warmup,
            metrics=metrics,
            response=ResponseStats(
                count=count, mean=mean, m2=m2, max=peak,
                total_queue_delay=queue_total,
                total_service_time=service_wall, keep_samples=keep,
                samples=samples),
            sampler=sampler,
            makespan=makespan,
            gc_time_us=gc_time,
            service_time_us=service_total,
            channels=self.channels,
            faults=ftl.flash.stats.fault_summary(),
            tenants=tenants,
            qos=self.qos,
        )


def make_device(ftl: BaseFTL, channels: int = 1,
                **kwargs) -> DeviceModel:
    """``DeviceModel(ftl, channels=channels, **kwargs)`` under its
    pre-PR-14 name, kept while ``benchmarks/perf`` still imports it."""
    return DeviceModel(ftl, channels=channels, **kwargs)


def run_fast(device: DeviceModel, trace: Trace,
             warmup_requests: int = 0) -> RunResult:
    """``device.run(trace, warmup_requests)`` under its pre-PR-12 name,
    kept while ``benchmarks/perf`` still imports it."""
    return device.run(trace, warmup_requests=warmup_requests)


def simulate(ftl: BaseFTL, trace: Trace, sample_interval: int = 0,
             keep_response_samples: bool = False,
             warmup_requests: int = 0, channels: int = 1,
             qos: str = "fifo",
             tenant_weights: Optional[Dict[str, float]] = None
             ) -> RunResult:
    """One-shot convenience: build a device around ``ftl`` and replay.

    ``channels=1`` (the default) is the paper's single-server queue;
    larger counts stripe operations over that many flash channels.
    ``qos="fair"`` switches dispatch to weighted per-tenant fair-share
    lanes (the paper-default ``"fifo"`` leaves every timing untouched).
    """
    device = DeviceModel(ftl, channels=channels,
                         sample_interval=sample_interval,
                         keep_response_samples=keep_response_samples,
                         qos=qos, tenant_weights=tenant_weights)
    return device.run(trace, warmup_requests=warmup_requests)
