"""Shared value types for the TPFTL reproduction.

These small types flow through every layer of the simulator, so they live
in one dependency-free module.  Addresses are plain ``int``s (logical page
number, physical page number, virtual/physical translation page number,
block number); the type aliases below only document intent.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, List, Optional

# Type aliases used throughout the package (documentation only).
LPN = int  # logical page number
PPN = int  # physical page number
VTPN = int  # virtual translation-page number
PTPN = int  # physical translation-page number (a PPN holding mappings)
BlockId = int

#: Sentinel physical address meaning "not mapped yet".
UNMAPPED: int = -1


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


@dataclass(frozen=True, slots=True)
class Request:
    """One host I/O request, 4KB-page aligned.

    ``arrival`` is in simulated microseconds from trace start.  ``lpn`` is
    the first logical page touched and ``npages`` the run length, so the
    request spans ``[lpn, lpn + npages)``.  ``tenant`` names the traffic
    stream the request belongs to (multi-tenant traces, see
    :mod:`repro.workloads.traffic`); ``None`` — the default for every
    single-stream trace — means the request is unattributed and the
    device keeps no per-tenant statistics for it.
    """

    arrival: float
    op: Op
    lpn: LPN
    npages: int
    #: tenant stream this request belongs to (None = unattributed)
    tenant: Optional[str] = None

    def __post_init__(self) -> None:
        if self.npages <= 0:
            raise ValueError(f"npages must be positive, got {self.npages}")
        if self.lpn < 0:
            raise ValueError(f"lpn must be non-negative, got {self.lpn}")

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

    def service_time(self, read_us: float, write_us: float,
                     erase_us: float) -> float:
        """Total flash time implied by this result, in microseconds."""
        return (self.total_reads * read_us
                + self.total_writes * write_us
                + self.erases * erase_us)


@dataclass
class Trace:
    """An ordered sequence of requests plus its address-space size."""

    requests: List[Request] = field(default_factory=list)
    #: number of logical pages addressed by the trace's device
    logical_pages: int = 0
    name: str = ""

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self) -> Iterator[Request]:
        return iter(self.requests)

    def __getitem__(self, index: int) -> Request:
        return self.requests[index]

    def max_lpn(self) -> Optional[LPN]:
        """Largest LPN touched, or None for an empty trace."""
        if not self.requests:
            return None
        return max(r.end_lpn - 1 for r in self.requests)
