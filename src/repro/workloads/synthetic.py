"""Synthetic enterprise-workload generator.

Generates traces with the three properties the paper's FTLs respond to:

* **temporal locality** — random accesses draw page *ranks* from a
  power-law (Zipf-like) distribution, then scatter the ranks across the
  address space with a fixed coprime stride so the hot set is spread over
  many translation pages (hot data in real OLTP traces is not spatially
  contiguous);
* **spatial locality** — a configurable fraction of requests belong to
  sequential streams that advance through the address space, interspersed
  with random accesses exactly as §3.2/Fig 2(a) observes ("sequential
  accesses are often interspersed with random accesses").  Stream choice
  is sticky, so bursts of consecutive requests continue the same run;
* **request-size structure** — geometric page counts matching a target
  mean request size, so multi-page requests exercise request-level
  prefetching.

Generation is fully deterministic for a given seed.
"""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass

from ..errors import WorkloadError
from ..types import OPS, Op, Trace, WORD_LIMIT, WORD_TYPECODE


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of one synthetic workload."""

    name: str
    logical_pages: int
    num_requests: int
    write_ratio: float
    #: fraction of requests that are TRIMs (extension; drawn first,
    #: the remainder split read/write by ``write_ratio``)
    trim_fraction: float = 0.0
    #: fraction of read / write requests issued from sequential streams
    seq_read_fraction: float = 0.0
    seq_write_fraction: float = 0.0
    #: mean request length in pages (geometric distribution)
    mean_read_pages: float = 1.0
    mean_write_pages: float = 1.0
    #: temporal-locality skew for random accesses: the page *rank* is
    #: drawn as floor(N * u**zipf_alpha); 1.0 is uniform, larger values
    #: concentrate accesses onto a smaller hot set (e.g. with alpha=12
    #: the hottest 1% of pages receives ~68% of random accesses)
    zipf_alpha: float = 1.0
    #: number of concurrent sequential streams and their mean run length
    streams: int = 4
    mean_stream_pages: int = 128
    #: sequential runs start at multiples of this many pages; >1 makes
    #: re-visited runs overlap exactly (server workloads rewrite the same
    #: extents), which drives GC victims toward fully-invalid blocks
    stream_align: int = 1
    #: temporal-locality skew of run *start* positions: 1.0 scatters runs
    #: uniformly; larger values keep re-using the same few extents
    stream_start_alpha: float = 1.0
    #: mean inter-arrival time in microseconds (exponential)
    mean_interarrival_us: float = 500.0
    seed: int = 42

    def __post_init__(self) -> None:
        if self.logical_pages <= 0:
            raise WorkloadError("logical_pages must be positive")
        if self.logical_pages >= WORD_LIMIT:
            raise WorkloadError(
                f"logical_pages must be below {WORD_LIMIT} (32-bit words)")
        if self.num_requests < 0:
            raise WorkloadError("num_requests must be non-negative")
        if not 0.0 <= self.write_ratio <= 1.0:
            raise WorkloadError("write_ratio must be in [0, 1]")
        if not 0.0 <= self.trim_fraction <= 1.0:
            raise WorkloadError("trim_fraction must be in [0, 1]")
        for frac in (self.seq_read_fraction, self.seq_write_fraction):
            if not 0.0 <= frac <= 1.0:
                raise WorkloadError("fractions must be in [0, 1]")
        if self.zipf_alpha < 1.0:
            raise WorkloadError("zipf_alpha must be >= 1.0")
        if self.mean_read_pages < 1.0 or self.mean_write_pages < 1.0:
            raise WorkloadError("mean request length must be >= 1 page")
        if self.streams < 1 or self.mean_stream_pages < 1:
            raise WorkloadError("stream parameters must be >= 1")
        if self.stream_align < 1 or self.stream_align > self.logical_pages:
            raise WorkloadError(
                "stream_align must be in [1, logical_pages]")
        if self.stream_start_alpha < 1.0:
            raise WorkloadError("stream_start_alpha must be >= 1.0")
        if self.mean_interarrival_us < 0:
            raise WorkloadError("mean_interarrival_us must be >= 0")


@dataclass
class _Stream:
    """One sequential stream's cursor and remaining run length."""

    position: int = 0
    remaining: int = 0


def _scatter_stride(pages: int) -> int:
    """An odd stride coprime with ``pages``, near the golden ratio.

    Multiplying ranks by this stride spreads the hot head of the rank
    distribution across the whole address space.
    """
    stride = int(pages * 0.6180339887) | 1
    while math.gcd(stride, pages) != 1:
        stride += 2
    return stride


def generate(spec: SyntheticSpec) -> Trace:
    """Generate a deterministic trace from ``spec``.

    What a request cannot change is bound once, before the loop, and its
    draws are written out in place, so a request costs no helper call;
    the four columns are allocated at full length up front and each
    request's fields are stored at its index.  The RNG is consulted in
    a fixed order per request (trim?, write?, length, sequential?,
    placement, arrival), pinned request for request by the ``traces/``
    cells of ``tests/golden_digests.json``.
    """
    rng = random.Random(spec.seed)
    rand = rng.random
    randrange = rng.randrange
    log = math.log
    pages = spec.logical_pages
    stride = _scatter_stride(pages)
    base = randrange(pages)
    align = spec.stream_align
    slots = max(1, pages // align)
    slot_stride = _scatter_stride(slots)
    slot_base = randrange(slots)
    last_slot = slots - 1
    trim_fraction = spec.trim_fraction
    write_ratio = spec.write_ratio
    zipf_alpha = spec.zipf_alpha
    start_alpha = spec.stream_start_alpha
    run_rate = 1.0 / spec.mean_stream_pages
    # 0.0 = the clock stands still, no draw
    arrival_rate = (1.0 / spec.mean_interarrival_us
                    if spec.mean_interarrival_us > 0 else 0.0)
    # Per-direction tables, indexed by ``is_write``: read- and write-
    # sequentiality are separately controllable (as Table 4 reports them).
    seq_fractions = (spec.seq_read_fraction, spec.seq_write_fraction)
    # log(1 - p) of the geometric request length, p = 1 / mean (0.0 =
    # mean <= 1, always one page, no draw), and the largest draw whose
    # length is one page, so a short request skips its log
    log_misses = tuple(log(1.0 - 1.0 / mean) if mean > 1.0 else 0.0
                       for mean in (spec.mean_read_pages,
                                    spec.mean_write_pages))
    one_page_max = tuple(_one_page_threshold(log_miss) if log_miss
                           else 0.0 for log_miss in log_misses)
    streams = tuple([_Stream() for _ in range(spec.streams)]
                    for _ in range(2))
    current = [0, 0]
    count = spec.num_requests
    arrivals = array("d", [0.0]) * count
    ops = array("B", [0]) * count
    lpns = array(WORD_TYPECODE, [0]) * count
    sizes = array(WORD_TYPECODE, [0]) * count
    trim = OPS.index(Op.TRIM)
    clock = 0.0
    for index in range(count):
        if trim_fraction and rand() < trim_fraction:
            op = trim
            is_write = True  # trims follow the write placement model
        else:
            is_write = rand() < write_ratio
            op = is_write  # OPS[False] is READ, OPS[True] WRITE
        npages = 1
        log_miss = log_misses[is_write]
        if log_miss:
            # inverse-CDF geometric on (0, 1]; both logs are <= 0: k >= 1
            draw = rand()
            if draw > one_page_max[is_write]:
                npages = int(log(1.0 - draw) / log_miss) + 1
                if npages > pages:
                    npages = pages
        seq_fraction = seq_fractions[is_write]
        if seq_fraction and rand() < seq_fraction:
            pool = streams[is_write]
            stream = pool[current[is_write]]
            if stream.remaining < npages:
                # Rotate to another stream, preferring one whose live
                # run can absorb this request; a stream is only
                # restarted (position/remaining reset) when it cannot —
                # an unconditional reset here would clobber the other
                # streams' in-progress runs and collapse the documented
                # concurrent sticky streams into one effective stream.
                eligible = [i for i, s in enumerate(pool)
                            if s.remaining >= npages]
                if eligible:
                    chosen = eligible[randrange(len(eligible))]
                else:
                    chosen = randrange(len(pool))
                current[is_write] = chosen
                stream = pool[chosen]
                if stream.remaining < npages:
                    rank = int(slots * (rand() ** start_alpha))
                    if rank > last_slot:
                        rank = last_slot
                    stream.position = ((rank * slot_stride + slot_base)
                                       % slots * align)
                    run = int(rng.expovariate(run_rate)) + 1
                    stream.remaining = run if run > npages else npages
            lpn = stream.position
            if lpn + npages > pages:
                lpn = 0
            stream.position = lpn + npages
            stream.remaining -= npages
        else:
            rank = int(pages * (rand() ** zipf_alpha))
            if rank >= pages:
                rank = pages - 1
            lpn = (rank * stride + base) % pages
            if lpn + npages > pages:
                lpn = pages - npages
        if arrival_rate:
            # random.expovariate's own expression
            clock += -log(1.0 - rand()) / arrival_rate
        arrivals[index] = clock
        ops[index] = op
        lpns[index] = lpn
        sizes[index] = npages
    return Trace.from_columns(arrivals, ops, lpns, sizes,
                              logical_pages=pages, name=spec.name)


def _one_page_threshold(log_miss: float) -> float:
    """The largest draw ``u`` in [0, 1) for which the geometric length
    ``int(log(1.0 - u) / log_miss) + 1`` is one page (``log_miss < 0``).

    The length never falls as ``u`` grows (each step of the expression
    is monotone), so the one-page draws are a prefix of [0, 1): a
    bisection over the doubles finds its end.  A draw at or below it
    yields exactly what the full expression yields, without the log.
    """
    low, high = 0.0, 1.0  # one page at ``low``; more, or outside, at high
    while True:
        middle = low + (high - low) / 2
        if middle <= low or middle >= high:
            return low
        if int(math.log(1.0 - middle) / log_miss) == 0:
            low = middle
        else:
            high = middle
