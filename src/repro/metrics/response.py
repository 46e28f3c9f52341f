"""Aggregated response-time statistics under the FIFO queueing model.

Means what the paper calls "system response time" (Fig 6e): queueing delay
plus service time per request.  Aggregation is streaming (Welford) so long
traces do not hold per-request lists unless the caller asks for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

from ..errors import MetricsError


@dataclass
class ResponseStats:
    """Streaming mean/variance/max of request response times (us)."""

    count: int = 0
    mean: float = 0.0
    #: Welford's running sum of squared deviations from the mean
    m2: float = 0.0
    max: float = 0.0
    total_queue_delay: float = 0.0
    #: summed wall time requests spent in service (first dispatch to
    #: completion); under a multi-channel device this counts elapsed
    #: time, not flash-busy time, so overlapped operations shrink it
    total_service_time: float = 0.0
    keep_samples: bool = False
    samples: List[float] = field(default_factory=list)

    def record_timing(self, arrival: float, start: float,
                      finish: float) -> None:
        """Fold one request's timing into the running statistics.

        ``start`` is the first dispatch time: the response time is
        ``finish - arrival``, the queueing delay ``start - arrival``
        and the time in service ``finish - start``.
        """
        value = finish - arrival
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)
        if value > self.max:
            self.max = value
        self.total_queue_delay += start - arrival
        self.total_service_time += finish - start
        if self.keep_samples:
            self.samples.append(value)

    @property
    def variance(self) -> float:
        """Sample variance of response times."""
        if self.count < 2:
            return 0.0
        return self.m2 / (self.count - 1)

    @property
    def stddev(self) -> float:
        """Sample standard deviation of response times."""
        return math.sqrt(self.variance)

    @property
    def mean_queue_delay(self) -> float:
        """Mean time spent waiting for the device."""
        return self.total_queue_delay / self.count if self.count else 0.0

    @property
    def mean_service_time(self) -> float:
        """Mean wall time in service (response minus queueing delay)."""
        return (self.total_service_time / self.count if self.count
                else 0.0)

    def percentile(self, p: float) -> Optional[float]:
        """Nearest-rank percentile; requires ``keep_samples=True``.

        Raises :class:`~repro.errors.MetricsError` when samples were
        never collected (a caller asking would otherwise silently read
        "no data" where the truth is "not measured").  Returns ``None``
        only for the legitimately empty case: sampling was on but no
        request was recorded.  Each call sorts the current samples, so
        no cached order can go stale when ``samples`` is replaced.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self.keep_samples and not self.samples:
            raise MetricsError(
                "percentiles need per-request samples; this run was "
                "aggregated with keep_samples=False (pass "
                "keep_response_samples=True to the device)")
        if not self.samples:
            return None
        ordered = sorted(self.samples)
        rank = max(1, math.ceil(p / 100.0 * len(ordered)))
        return ordered[rank - 1]

    def merge(self, other: "ResponseStats") -> None:
        """Fold another instance's statistics into this one, in place.

        Combines the streaming moments with the pairwise (Chan et al.)
        update, so merging per-tenant statistics reproduces the numbers
        a single instance recording every request would hold (mean and
        max exactly; variance up to floating-point reassociation).
        Samples are concatenated when both sides kept them; a merge
        that mixes a sampled side with an unsampled-but-populated side
        drops ``keep_samples`` so percentiles fail loudly instead of
        silently reporting a subset.
        """
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self.m2 = other.m2
            self.max = other.max
            self.total_queue_delay = other.total_queue_delay
            self.total_service_time = other.total_service_time
            self.keep_samples = other.keep_samples
            self.samples = list(other.samples)
            return
        merged = self.count + other.count
        delta = other.mean - self.mean
        self.m2 = (self.m2 + other.m2
                    + delta * delta * self.count * other.count / merged)
        self.mean += delta * other.count / merged
        self.count = merged
        if other.max > self.max:
            self.max = other.max
        self.total_queue_delay += other.total_queue_delay
        self.total_service_time += other.total_service_time
        if self.keep_samples and other.keep_samples:
            self.samples.extend(other.samples)
        elif self.keep_samples or other.keep_samples:
            # one side aggregated without samples: a percentile over
            # the surviving subset would be silently wrong
            self.keep_samples = False
            self.samples = []
