"""Shared value types for the TPFTL reproduction.

These small types flow through every layer of the simulator, so they live
in one module that depends on :mod:`repro.errors` alone.  Addresses are
plain ``int``s (logical page number, physical page number,
virtual/physical translation page number, block number); the type
aliases below only document intent.
"""

from __future__ import annotations

import enum
import itertools
import operator
from array import array
from dataclasses import dataclass
from typing import (Dict, Final, Iterable, Iterator, List, NamedTuple,
                    Optional, Tuple)

from .errors import WorkloadError

# Type aliases used throughout the package (documentation only).
LPN = int  # logical page number
PPN = int  # physical page number
VTPN = int  # virtual translation-page number
PTPN = int  # physical translation-page number (a PPN holding mappings)
BlockId = int

#: Sentinel physical address meaning "not mapped yet".
UNMAPPED: int = -1
#: ``array`` typecode of every page and request word: a trace's LPNs and
#: page counts, the flash array's metadata (LPN/VTPN) and the on-flash
#: mapping table (PPN).  A C ``int``, 32 bits: half the footprint of
#: ``'q'``, and wide enough for any geometry the configs accept.
WORD_TYPECODE: Final = "i"
#: the first value a word cannot hold (2**31 for a 32-bit ``int``)
WORD_LIMIT = 1 << (8 * array(WORD_TYPECODE).itemsize - 1)


class Op(enum.Enum):
    """I/O type of a request or page access.

    TRIM (ATA discard / NVMe deallocate) is an extension beyond the
    paper: it unmaps pages so GC can reclaim them without migration.
    """

    READ = "read"
    WRITE = "write"
    TRIM = "trim"

    @property
    def is_write(self) -> bool:
        """True for write operations."""
        return self is Op.WRITE


class PageState(enum.Enum):
    """Lifecycle of a physical flash page.

    NAND pages move strictly FREE -> VALID -> INVALID and only an erase of
    the whole block returns them to FREE.  A page whose program failed is
    marked BAD; erases skip it and it never returns to FREE.
    """

    FREE = 0
    VALID = 1
    INVALID = 2
    BAD = 3


class PageKind(enum.Enum):
    """What a programmed physical page stores."""

    DATA = "data"
    TRANSLATION = "translation"


class BlockKind(enum.Enum):
    """Role a block is currently playing.

    Blocks are typed when allocated from the free list and return to FREE
    after an erase, mirroring how FlashSim partitions data and translation
    blocks dynamically.
    """

    FREE = "free"
    DATA = "data"
    TRANSLATION = "translation"
    #: permanently out of service (erase failure or bad-page wear-out);
    #: never allocated, never collected, skipped by recovery scans.
    RETIRED = "retired"


class _RequestFields(NamedTuple):
    """The fields of a :class:`Request`, in row order."""

    arrival: float
    op: Op
    lpn: LPN
    npages: int
    #: tenant stream this request belongs to (None = unattributed)
    tenant: Optional[str] = None


class Request(_RequestFields):
    """One host I/O request, 4KB-page aligned.

    ``arrival`` is in simulated microseconds from trace start.  ``lpn`` is
    the first logical page touched and ``npages`` the run length, so the
    request spans ``[lpn, lpn + npages)``.  ``tenant`` names the traffic
    stream the request belongs to (multi-tenant traces, see
    :mod:`repro.workloads.traffic`); ``None`` — the default for every
    single-stream trace — means the request is unattributed and the
    device keeps no per-tenant statistics for it.

    A named tuple: immutable, equal to a request with equal fields, and
    cheap to build, because a :class:`Trace` makes one per request it
    yields.  The constructor validates; a trace's rows come from columns
    already validated and skip it (``tuple.__new__``).
    """

    __slots__ = ()

    def __new__(cls, arrival: float, op: Op, lpn: LPN, npages: int,
                tenant: Optional[str] = None) -> "Request":
        if npages <= 0:
            raise ValueError(f"npages must be positive, got {npages}")
        if lpn < 0:
            raise ValueError(f"lpn must be non-negative, got {lpn}")
        return tuple.__new__(cls, (arrival, op, lpn, npages, tenant))

    @property
    def is_write(self) -> bool:
        """True for write operations."""
        return self.op is Op.WRITE

    @property
    def end_lpn(self) -> LPN:
        """One past the last logical page touched."""
        return self.lpn + self.npages

    def pages(self) -> Iterator[LPN]:
        """Iterate over the logical pages this request touches, in order."""
        return iter(range(self.lpn, self.lpn + self.npages))


@dataclass(slots=True)
class AccessResult:
    """Cost breakdown of serving one page access (or whole request).

    All counts are numbers of *flash operations*; the device model turns
    them into time using the configured latencies.  Results are additive so
    per-page results can be merged into a per-request result.
    """

    data_reads: int = 0
    data_writes: int = 0
    translation_reads: int = 0
    translation_writes: int = 0
    erases: int = 0
    #: flash operations performed by GC (already included in the counts
    #: above); kept for reporting GC's share of the service time.
    gc_data_reads: int = 0
    gc_data_writes: int = 0
    gc_translation_reads: int = 0
    gc_translation_writes: int = 0

    def merge(self, other: "AccessResult") -> None:
        """Accumulate another result into this one, in place."""
        self.data_reads += other.data_reads
        self.data_writes += other.data_writes
        self.translation_reads += other.translation_reads
        self.translation_writes += other.translation_writes
        self.erases += other.erases
        self.gc_data_reads += other.gc_data_reads
        self.gc_data_writes += other.gc_data_writes
        self.gc_translation_reads += other.gc_translation_reads
        self.gc_translation_writes += other.gc_translation_writes

    @property
    def total_reads(self) -> int:
        """All page reads, across kinds."""
        return self.data_reads + self.translation_reads

    @property
    def total_writes(self) -> int:
        """All page programs, across kinds."""
        return self.data_writes + self.translation_writes


#: the ``ops`` column's codes: ``OPS[code]`` is the request's :class:`Op`
OPS = (Op.READ, Op.WRITE, Op.TRIM)
# The members bound once, for every per-op path to compare against: on
# CPython <= 3.11 ``Op.READ`` runs ``EnumMeta.__getattr__``'s slot, 161 ns
# on 3.10 and 126 ns on 3.11 against 12-19 ns for a module global, and
# no profiler call count shows it.
READ, WRITE, TRIM = OPS
DATA_PAGE, TRANSLATION_PAGE = PageKind
FREE_BLOCK, DATA_BLOCK, TRANSLATION_BLOCK, RETIRED_BLOCK = BlockKind
_OP_CODES = {op: code for code, op in enumerate(OPS)}
#: tenant names a trace can hold (the ``tenants`` column is one byte and
#: code 0 is the unattributed ``None``)
MAX_TENANTS = 255


class Trace:
    """An ordered sequence of requests plus its address-space size.

    Stored as five parallel columns and nothing else, 18 B per
    request:

    * ``arrivals`` — ``array('d')``, simulated microseconds;
    * ``ops`` — ``array('B')``, an index into :data:`OPS`;
    * ``lpns`` / ``npages`` — ``array(WORD_TYPECODE)``, 32-bit words
      (a request whose LPN or length does not fit one is refused with
      :class:`~repro.errors.WorkloadError`);
    * ``tenants`` — ``array('B')``, an index into ``tenant_names``,
      whose slot 0 is ``None`` (unattributed).

    :class:`Request` rows exist only while iterating (:meth:`rows`,
    ``iter``, ``trace[i]``).  Two facts the device checks before a
    replay are computed once, when the columns are adopted: ``end_lpn``,
    one past the last LPN touched (0 when empty), and ``unordered``, the
    first request arriving before the one ahead of it as ``(index,
    arrival, previous)``, or ``None``.  The columns are not to be
    changed afterwards.
    """

    __slots__ = ("arrivals", "ops", "lpns", "npages", "tenants",
                 "tenant_names", "logical_pages", "name", "end_lpn",
                 "unordered")

    def __init__(self, requests: Iterable[Request] = (),
                 logical_pages: int = 0, name: str = "") -> None:
        arrivals = array("d")
        ops = array("B")
        lpns = array(WORD_TYPECODE)
        npages = array(WORD_TYPECODE)
        tenants = array("B")
        codes: Dict[Optional[str], int] = {None: 0}
        for request in requests:
            arrivals.append(request.arrival)
            ops.append(_OP_CODES[request.op])
            try:
                lpns.append(request.lpn)
                npages.append(request.npages)
            except OverflowError:
                raise WorkloadError(
                    f"request {len(ops) - 1} (LPN {request.lpn}, "
                    f"{request.npages} pages) does not fit 32-bit page "
                    "words") from None
            code = codes.get(request.tenant)
            if code is None:
                if len(codes) > MAX_TENANTS:
                    raise ValueError(
                        f"a trace holds at most {MAX_TENANTS} tenants")
                code = codes[request.tenant] = len(codes)
            tenants.append(code)
        self._adopt(arrivals, ops, lpns, npages, tenants, tuple(codes),
                    logical_pages, name)

    @classmethod
    def from_columns(cls, arrivals: array, ops: array, lpns: array,
                     npages: array, tenants: Optional[array] = None,
                     tenant_names: Tuple[Optional[str], ...] = (None,),
                     logical_pages: int = 0, name: str = "") -> "Trace":
        """A trace over columns a generator built (see the class
        docstring for their types); ``tenants=None`` leaves every
        request unattributed.  The values are trusted: no request is
        validated."""
        count = len(arrivals)
        if tenants is None:
            tenants = array("B", [0]) * count
        if not (len(ops) == len(lpns) == len(npages) == len(tenants)
                == count):
            raise ValueError("trace columns differ in length")
        trace = cls.__new__(cls)
        trace._adopt(arrivals, ops, lpns, npages, tenants, tenant_names,
                     logical_pages, name)
        return trace

    def _adopt(self, arrivals: array, ops: array, lpns: array,
               npages: array, tenants: array,
               tenant_names: Tuple[Optional[str], ...],
               logical_pages: int, name: str) -> None:
        self.arrivals = arrivals
        self.ops = ops
        self.lpns = lpns
        self.npages = npages
        self.tenants = tenants
        self.tenant_names = tenant_names
        #: number of logical pages addressed by the trace's device
        self.logical_pages = logical_pages
        self.name = name
        self.end_lpn: LPN = max(map(operator.add, lpns, npages), default=0)
        # each arrival against the one before it (0.0 before the first)
        late = itertools.compress(itertools.count(), map(
            operator.lt, arrivals, itertools.chain((0.0,), arrivals)))
        index = next(late, None)
        self.unordered: Optional[Tuple[int, float, float]] = (
            None if index is None else
            (index, arrivals[index], arrivals[index - 1] if index else 0.0))

    def rows(self, start: int = 0,
             stop: Optional[int] = None) -> Iterator[Request]:
        """The requests ``[start, stop)`` as rows, built one at a time."""
        names = self.tenant_names
        columns: Iterator[tuple] = zip(
            self.arrivals, map(OPS.__getitem__, self.ops), self.lpns,
            self.npages,
            map(names.__getitem__, self.tenants) if len(names) > 1
            else itertools.repeat(None))
        if start or stop is not None:
            columns = itertools.islice(columns, start, stop)
        return map(tuple.__new__, itertools.repeat(Request), columns)

    @property
    def requests(self) -> List[Request]:
        """Every request as a list of rows (a convenience for tests)."""
        return list(self.rows())

    def __len__(self) -> int:
        return len(self.arrivals)

    def __iter__(self) -> Iterator[Request]:
        return self.rows()

    def __getitem__(self, index: int) -> Request:
        return tuple.__new__(Request, (
            self.arrivals[index], OPS[self.ops[index]], self.lpns[index],
            self.npages[index], self.tenant_names[self.tenants[index]]))

    def max_lpn(self) -> Optional[LPN]:
        """Largest LPN touched, or None for an empty trace."""
        return self.end_lpn - 1 if len(self) else None
