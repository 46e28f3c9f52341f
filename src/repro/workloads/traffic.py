"""Open-loop, multi-tenant traffic frontend ("millions of users").

Every workload the paper replays is *closed-loop*: one stream whose
arrival times came frozen with the trace.  A production device instead
serves many independent tenants whose requests arrive from an open-loop
process — the arrival rate is an input, not a consequence of service —
which is the regime where queueing delay, overload and per-tenant tail
latency become meaningful (LFTL studies FTL behaviour under exactly this
kind of parallel multi-stream IO).  This module composes N tenant
streams into one schedule a device model can replay:

* each :class:`TenantSpec` names a synthetic preset (Table 4 character),
  a request budget, a namespace size and an :class:`ArrivalModel`;
* tenant LPN namespaces are **disjoint slices** of the device's logical
  space, carved in spec order — tenant i's pages are offset by the sum
  of the preceding tenants' sizes, so streams never alias each other's
  data and per-tenant working sets stay intact;
* per-tenant arrivals are regenerated from the arrival model
  (Poisson, bursty, or diurnal rate modulation), replacing the preset's
  closed-loop clock;
* the merged schedule is ordered by ``(arrival, tenant index, sequence
  number)`` — a *stable, deterministic* tie-break, so equal-arrival
  interleavings are identical across runs and processes (the device
  model rejects unordered schedules outright);
* every request carries its tenant's name, which the device layer uses
  to keep per-tenant :class:`~repro.metrics.ResponseStats` and to drive
  the weighted fair-share dispatch policy.

Composition is fully deterministic for a given spec: tenant traces come
from the seeded preset generators and arrival processes use a dedicated
``random.Random`` derived from ``(spec.seed, tenant index, tenant
seed)``.
"""

from __future__ import annotations

import dataclasses
import math
import operator
import random
from array import array
from dataclasses import dataclass
from itertools import repeat
from typing import Any, Dict, List, Tuple

from ..errors import WorkloadError
from ..types import MAX_TENANTS, Trace, WORD_LIMIT, WORD_TYPECODE
from .presets import PRESET_NAMES, make_preset

#: arrival-process kinds understood by :class:`ArrivalModel`
ARRIVAL_KINDS = ("poisson", "bursty", "diurnal")


@dataclass(frozen=True)
class ArrivalModel:
    """An open-loop arrival process for one tenant stream.

    ``mean_interarrival_us`` fixes the long-run offered rate for every
    kind; the kinds differ in how arrivals cluster around that mean:

    * ``poisson`` — memoryless exponential inter-arrivals;
    * ``bursty`` — an on/off train: bursts of geometrically many
      requests arrive ``burst_factor`` times faster than the mean,
      separated by compensating idle gaps (same long-run rate);
    * ``diurnal`` — a non-homogeneous Poisson process whose rate swings
      sinusoidally by ``amplitude`` around the mean with period
      ``period_us`` (generated by Lewis-Shedler thinning).
    """

    kind: str = "poisson"
    mean_interarrival_us: float = 1_000.0
    #: bursty: intra-burst rate multiplier and mean burst length
    burst_factor: float = 10.0
    mean_burst_requests: float = 8.0
    #: diurnal: modulation period and relative amplitude in [0, 1)
    period_us: float = 1_000_000.0
    amplitude: float = 0.8

    def __post_init__(self) -> None:
        if self.kind not in ARRIVAL_KINDS:
            raise WorkloadError(
                f"unknown arrival kind {self.kind!r}; choose from "
                f"{', '.join(ARRIVAL_KINDS)}")
        if not (math.isfinite(self.mean_interarrival_us)
                and self.mean_interarrival_us > 0):
            raise WorkloadError("mean_interarrival_us must be positive")
        if self.burst_factor <= 1.0:
            raise WorkloadError("burst_factor must be > 1")
        if self.mean_burst_requests < 1.0:
            raise WorkloadError("mean_burst_requests must be >= 1")
        if not (math.isfinite(self.period_us) and self.period_us > 0):
            raise WorkloadError("period_us must be positive")
        if not 0.0 <= self.amplitude < 1.0:
            raise WorkloadError("amplitude must be in [0, 1)")

    def arrivals(self, count: int, rng: random.Random) -> List[float]:
        """Generate ``count`` non-decreasing arrival times (us)."""
        if self.kind == "poisson":
            return self._poisson(count, rng)
        if self.kind == "bursty":
            return self._bursty(count, rng)
        return self._diurnal(count, rng)

    def _poisson(self, count: int, rng: random.Random) -> List[float]:
        rate = 1.0 / self.mean_interarrival_us
        clock = 0.0
        out: List[float] = []
        for _ in range(count):
            clock += rng.expovariate(rate)
            out.append(clock)
        return out

    def _bursty(self, count: int, rng: random.Random) -> List[float]:
        # Intra-burst gaps are burst_factor times shorter than the
        # mean; the off-gap between bursts restores the long-run rate:
        # a burst of B requests "owes" B * mean of wall time and spends
        # B * mean / factor inside the burst.
        intra_rate = self.burst_factor / self.mean_interarrival_us
        p_end = 1.0 / self.mean_burst_requests
        gap_mean = (self.mean_burst_requests * self.mean_interarrival_us
                    * (1.0 - 1.0 / self.burst_factor))
        clock = 0.0
        out: List[float] = []
        remaining = 0
        for _ in range(count):
            if remaining <= 0:
                # geometric burst length (>= 1) and the off gap owed
                remaining = 1
                while rng.random() >= p_end:
                    remaining += 1
                clock += rng.expovariate(1.0 / gap_mean)
            clock += rng.expovariate(intra_rate)
            remaining -= 1
            out.append(clock)
        return out

    def _diurnal(self, count: int, rng: random.Random) -> List[float]:
        base_rate = 1.0 / self.mean_interarrival_us
        max_rate = base_rate * (1.0 + self.amplitude)
        two_pi = 2.0 * math.pi
        clock = 0.0
        out: List[float] = []
        while len(out) < count:
            clock += rng.expovariate(max_rate)
            rate = base_rate * (1.0 + self.amplitude
                                * math.sin(two_pi * clock / self.period_us))
            if rng.random() * max_rate <= rate:
                out.append(clock)
        return out


@dataclass(frozen=True)
class TenantSpec:
    """One tenant stream: a workload character plus an arrival process.

    ``workload`` names a synthetic preset (Table 4); the tenant's trace
    is generated over its own ``pages``-sized namespace and offset into
    the device's logical space by the composer.  ``weight`` is the
    tenant's share under the fair-share dispatch policy (ignored by
    FIFO).
    """

    name: str
    workload: str
    num_requests: int
    pages: int
    arrival: ArrivalModel = ArrivalModel()
    weight: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise WorkloadError("tenant name must be non-empty")
        if self.workload.lower() not in PRESET_NAMES:
            raise WorkloadError(
                f"unknown tenant workload {self.workload!r}; choose "
                f"from {', '.join(PRESET_NAMES)}")
        if self.num_requests <= 0:
            raise WorkloadError("num_requests must be positive")
        if self.pages <= 0:
            raise WorkloadError("pages must be positive")
        if not (math.isfinite(self.weight) and self.weight > 0):
            raise WorkloadError("weight must be positive")


@dataclass(frozen=True)
class TrafficSpec:
    """A multi-tenant traffic mix: tenants plus a composition seed.

    The spec is picklable, hashable and JSON-canonicalisable, so a
    traffic cell can be content-addressed by the experiment runner
    exactly like a single-stream cell.
    """

    name: str
    tenants: Tuple[TenantSpec, ...]
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.tenants:
            raise WorkloadError("a traffic spec needs >= 1 tenant")
        if len(self.tenants) > MAX_TENANTS:
            raise WorkloadError(
                f"a traffic spec holds at most {MAX_TENANTS} tenants")
        if not isinstance(self.tenants, tuple):
            object.__setattr__(  # tp: allow=TP004 - __post_init__ normalisation
                self, "tenants", tuple(self.tenants))
        names = [tenant.name for tenant in self.tenants]
        if len(set(names)) != len(names):
            raise WorkloadError(f"tenant names must be unique: {names}")
        if self.logical_pages >= WORD_LIMIT:
            raise WorkloadError(
                f"the tenant namespaces must total below {WORD_LIMIT} "
                "pages (32-bit words)")

    @property
    def logical_pages(self) -> int:
        """Total device address space: the sum of tenant namespaces."""
        return sum(tenant.pages for tenant in self.tenants)

    def namespaces(self) -> Dict[str, Tuple[int, int]]:
        """Tenant name -> ``(base_lpn, pages)`` namespace slices."""
        out: Dict[str, Tuple[int, int]] = {}
        base = 0
        for tenant in self.tenants:
            out[tenant.name] = (base, tenant.pages)
            base += tenant.pages
        return out

    def weights(self) -> Dict[str, float]:
        """Tenant name -> fair-share weight."""
        return {tenant.name: tenant.weight for tenant in self.tenants}

    def canonical(self) -> Dict[str, Any]:
        """The spec as a JSON-safe dict (stable keys, for digests)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "TrafficSpec":
        """Rebuild a spec from :meth:`canonical` output."""
        tenants = tuple(
            TenantSpec(
                name=t["name"], workload=t["workload"],
                num_requests=t["num_requests"], pages=t["pages"],
                arrival=ArrivalModel(**t["arrival"]),
                weight=t["weight"], seed=t["seed"])
            for t in payload["tenants"])
        return cls(name=payload["name"], tenants=tenants,
                   seed=payload["seed"])


def _arrival_order(arrivals: array) -> array:
    """A stable arg-sort of non-negative arrival times.

    A non-negative double's IEEE-754 bit pattern orders like its value,
    so ``bits << k | index`` is an int key that sorts by arrival and then
    by index: one ``sorted`` without a key function gives the order of
    ``sorted(range(n), key=arrivals.__getitem__)`` in two thirds of its
    memory (no boxed float key beside each boxed index).
    """
    count = len(arrivals)
    shift = count.bit_length()
    bits = memoryview(arrivals).cast("B").cast("q")
    keys = sorted(map(operator.or_, map(operator.lshift, bits, repeat(shift)),
                      range(count)))
    return array("q", map(operator.and_, keys, repeat((1 << shift) - 1)))


def compose(spec: TrafficSpec) -> Trace:
    """Compose a traffic spec into one merged, arrival-ordered trace.

    Tenant streams are generated independently (preset workload over
    the tenant's namespace, arrivals from its arrival model), offset
    into disjoint LPN slices and laid end to end in (tenant index,
    per-tenant sequence) order; one stable arg-sort on arrival merges
    them, so requests with equal arrivals interleave in spec order,
    deterministically.

    Memory is what orders the steps: the arrivals are drawn and sorted
    before any stream exists, so the sort's keys sit beside one column,
    not five, and each column is replaced by its sorted copy in turn.
    """
    columns = [_arrivals(spec)]
    order = _arrival_order(columns[0])
    columns.extend(_streams(spec))
    for index, column in enumerate(columns):
        columns[index] = array(column.typecode,
                               map(column.__getitem__, order))
    return Trace.from_columns(
        *columns,
        tenant_names=(None, *(tenant.name for tenant in spec.tenants)),
        logical_pages=spec.logical_pages, name=spec.name)


def _arrivals(spec: TrafficSpec) -> array:
    """Every tenant's arrival times, tenant after tenant."""
    arrivals = array("d")
    for index, tenant in enumerate(spec.tenants):
        # string seeding is deterministic across processes (sha512 of
        # the bytes), unlike hashing a tuple
        rng = random.Random(f"{spec.seed}:{index}:{tenant.seed}")
        arrivals.extend(tenant.arrival.arrivals(tenant.num_requests, rng))
    return arrivals


def _streams(spec: TrafficSpec) -> Tuple[array, array, array, array]:
    """The ``ops``, ``lpns``, ``npages`` and ``tenants`` columns of every
    tenant's preset stream, offset into its namespace, tenant after
    tenant."""
    ops = array("B")
    lpns = array(WORD_TYPECODE)
    npages = array(WORD_TYPECODE)
    tenants = array("B")
    base = 0
    for code, tenant in enumerate(spec.tenants, start=1):
        stream = make_preset(tenant.workload,
                             logical_pages=tenant.pages,
                             num_requests=tenant.num_requests,
                             seed=tenant.seed)
        if stream.end_lpn > tenant.pages:
            raise WorkloadError(
                f"tenant {tenant.name!r} escapes its {tenant.pages}-page "
                f"namespace: it touches LPN {stream.end_lpn - 1}")
        ops.extend(stream.ops)
        lpns.extend(map(operator.add, stream.lpns, repeat(base)))
        npages.extend(stream.npages)
        tenants.extend(repeat(code, len(stream)))
        base += tenant.pages
    return ops, lpns, npages, tenants
