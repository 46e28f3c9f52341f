"""Configuration objects for the simulated SSD and its mapping cache.

The defaults follow Table 3 of the paper (Agrawal et al. SSD parameters):
4KB pages, 256KB blocks (64 pages), 25us read / 200us write / 1.5ms erase,
15% over-provisioning.  The mapping-cache sizing rule follows §5.1: the
cache is as large as a block-level FTL's mapping table (4B per block) plus
the Global Translation Directory (4B per translation page), i.e. 1/128 of
the full page-level table for these geometries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .errors import ConfigError
from .faults import FaultPlan
from .types import WORD_LIMIT

#: Bytes per mapping entry in a flat page-level table (4B LPN + 4B PPN).
FULL_ENTRY_BYTES = 8
#: Bytes per PPN stored inside a translation page (LPN implied by offset).
PPN_BYTES = 4
#: Bytes per cached entry in DFTL's CMT (LPN + PPN).
DFTL_ENTRY_BYTES = 8
#: Bytes per cached entry node in TPFTL (10-bit offset + PPN, rounded: 6B).
TPFTL_ENTRY_BYTES = 6
#: Bytes of cache overhead per TPFTL TP node (VTPN + bookkeeping).
TPFTL_NODE_BYTES = 8
#: Bytes per GTD slot (a PTPN).
GTD_SLOT_BYTES = 4
#: Bytes per slot of a block-level mapping table (used only to size caches).
BLOCK_TABLE_SLOT_BYTES = 4
#: GC starts when the free-block count drops to this many blocks above
#: the reserve.
GC_THRESHOLD_BLOCKS = 2
#: Always-free blocks reserved so GC can never deadlock.
GC_RESERVE_BLOCKS = 3
#: At most this many victim blocks are collected per page access
#: (amortised GC, as in FlashSim); the limit is ignored when the pool
#: falls to the reserve.  Keeps GC cost spread across requests instead
#: of multi-millisecond bursts.
GC_MAX_COLLECTIONS_PER_ACCESS = 2


@dataclass(frozen=True)
class SSDConfig:
    """Geometry, timing and provisioning of the simulated SSD.

    ``logical_pages`` is the exported (host-visible) capacity in pages.
    Physical capacity is derived from it: enough blocks for user data plus
    ``over_provision`` extra, plus blocks for the translation pages, plus a
    small reserve so GC always has scratch blocks.
    """

    logical_pages: int = 8192
    page_size: int = 4096
    pages_per_block: int = 64
    read_us: float = 25.0
    write_us: float = 200.0
    erase_us: float = 1500.0
    over_provision: float = 0.15
    # -- fault injection (all off by default: an ideal device) ---------
    #: probability a single read attempt needs an ECC retry.
    read_error_rate: float = 0.0
    #: probability a program attempt fails (the page goes bad).
    program_fail_rate: float = 0.0
    #: probability an erase fails (the block is retired).
    erase_fail_rate: float = 0.0
    #: seed of the fault injector's RNG (faults are deterministic).
    fault_seed: int = 0
    #: ECC retries allowed before a read raises ReadError.
    max_read_retries: int = 8

    def __post_init__(self) -> None:
        if self.logical_pages <= 0:
            raise ConfigError("logical_pages must be positive")
        if self.page_size <= 0 or self.page_size % PPN_BYTES:
            raise ConfigError("page_size must be a positive multiple of 4")
        if self.pages_per_block <= 0:
            raise ConfigError("pages_per_block must be positive")
        if not 0.0 <= self.over_provision < 1.0:
            raise ConfigError("over_provision must be in [0, 1)")
        if min(self.read_us, self.write_us, self.erase_us) < 0:
            raise ConfigError("latencies must be non-negative")
        if self.physical_pages >= WORD_LIMIT:
            raise ConfigError(
                f"{self.physical_pages} physical pages: a PPN must fit a "
                f"32-bit word (below {WORD_LIMIT})")
        # rate/budget validation is shared with FaultPlan
        self.fault_plan()

    # ------------------------------------------------------------------
    # Derived geometry
    # ------------------------------------------------------------------
    @property
    def entries_per_translation_page(self) -> int:
        """Mapping entries stored per translation page (PPNs only)."""
        return self.page_size // PPN_BYTES

    @property
    def translation_pages(self) -> int:
        """Translation pages needed to map the whole logical space."""
        return max(1, math.ceil(self.logical_pages
                                / self.entries_per_translation_page))

    @property
    def logical_blocks(self) -> int:
        """Blocks needed to hold the logical space exactly once."""
        return math.ceil(self.logical_pages / self.pages_per_block)

    @property
    def translation_blocks_budget(self) -> int:
        """Blocks budgeted for translation pages (with over-provisioning)."""
        raw = math.ceil(self.translation_pages / self.pages_per_block)
        return max(2, math.ceil(raw * (1.0 + self.over_provision)) + 1)

    @property
    def physical_blocks(self) -> int:
        """Total physical blocks in the device."""
        data = math.ceil(self.logical_blocks * (1.0 + self.over_provision))
        return (data + self.translation_blocks_budget
                + GC_RESERVE_BLOCKS + GC_THRESHOLD_BLOCKS)

    @property
    def physical_pages(self) -> int:
        """Total physical pages in the device."""
        return self.physical_blocks * self.pages_per_block

    @property
    def gc_trigger_blocks(self) -> int:
        """Free-pool level at which amortised GC starts.

        Kept small (threshold + reserve): triggering earlier would keep
        the pool artificially large, shrinking the effective
        over-provisioning and inflating Vd/write amplification.
        """
        return GC_THRESHOLD_BLOCKS + GC_RESERVE_BLOCKS

    @property
    def capacity_bytes(self) -> int:
        """Host-visible capacity in bytes."""
        return self.logical_pages * self.page_size

    # ------------------------------------------------------------------
    # Reliability / fault model
    # ------------------------------------------------------------------
    @property
    def min_required_blocks(self) -> int:
        """Blocks the device cannot operate below: the logical space,
        the translation pages, and the GC reserve/trigger headroom."""
        translation = math.ceil(self.translation_pages
                                / self.pages_per_block)
        return (self.logical_blocks + translation
                + GC_RESERVE_BLOCKS + GC_THRESHOLD_BLOCKS)

    @property
    def spare_blocks(self) -> int:
        """Blocks the device can lose to retirement before wearing out.

        The over-provisioned capacity beyond :attr:`min_required_blocks`;
        once more blocks than this retire, the flash raises
        :class:`~repro.errors.DeviceWornOutError`.
        """
        return self.physical_blocks - self.min_required_blocks

    def fault_plan(self) -> FaultPlan:
        """The fault plan implied by this config's fault-rate knobs."""
        return FaultPlan(
            seed=self.fault_seed,
            read_error_rate=self.read_error_rate,
            program_fail_rate=self.program_fail_rate,
            erase_fail_rate=self.erase_fail_rate,
            max_read_retries=self.max_read_retries,
        )

    # ------------------------------------------------------------------
    # Mapping-table sizes
    # ------------------------------------------------------------------
    @property
    def full_table_bytes(self) -> int:
        """Size of a flat page-level mapping table at 8B per entry."""
        return self.logical_pages * FULL_ENTRY_BYTES

    @property
    def gtd_bytes(self) -> int:
        """Size of the Global Translation Directory."""
        return self.translation_pages * GTD_SLOT_BYTES

    @property
    def block_table_bytes(self) -> int:
        """Size of a block-level FTL's mapping table (cache sizing rule)."""
        return self.logical_blocks * BLOCK_TABLE_SLOT_BYTES

    def paper_cache_bytes(self) -> int:
        """Mapping-cache size used by the paper's §5.1 rule.

        Equal to the block-level mapping table plus the GTD; for the
        paper's geometries this is 1/128 of the full page-level table
        (e.g. 8.5KB for a 512MB device, 272KB for 16GB).
        """
        return self.block_table_bytes + self.gtd_bytes

    def cache_bytes_for_fraction(self, fraction: float) -> int:
        """Cache size equal to ``fraction`` of the full mapping table.

        Used by the cache-size sweeps (Fig 8c/9/10), where sizes are
        normalised to the full table; the GTD is carved out of this
        budget just as in the paper's baseline configuration.
        """
        if not 0.0 < fraction <= 1.0:
            raise ConfigError("cache fraction must be in (0, 1]")
        return max(1, math.ceil(self.full_table_bytes * fraction))


@dataclass(frozen=True)
class CacheConfig:
    """Byte budget of the mapping cache.

    ``budget_bytes`` is the *total* RAM given to address translation; the
    GTD (sized by the SSD geometry) is always resident and is subtracted
    before entries are admitted, per §5.1.  Entries cost the fixed
    §5.1 sizes (``DFTL_ENTRY_BYTES``, ``TPFTL_ENTRY_BYTES`` plus
    ``TPFTL_NODE_BYTES`` per TP node).
    """

    budget_bytes: int
    #: fraction of an S-FTL cache reserved as its dirty buffer.
    sftl_dirty_buffer_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.budget_bytes <= 0:
            raise ConfigError("cache budget must be positive")
        if not 0.0 <= self.sftl_dirty_buffer_fraction < 1.0:
            raise ConfigError("dirty buffer fraction must be in [0, 1)")

    def entry_budget_bytes(self, gtd_bytes: int) -> int:
        """Bytes left for cached entries after the resident GTD."""
        remaining = self.budget_bytes - gtd_bytes
        if remaining <= 0:
            raise ConfigError(
                f"cache budget {self.budget_bytes}B cannot even hold the "
                f"GTD ({gtd_bytes}B)")
        return remaining


@dataclass(frozen=True)
class TPFTLConfig:
    """Feature switches and tuning knobs of TPFTL (§4).

    The four technique flags correspond to the paper's ablation monograms:
    ``r`` request-level prefetching, ``s`` selective prefetching,
    ``b`` batch-update replacement, ``c`` clean-first replacement.
    ``rsbc`` (all on) is the complete TPFTL; all off is the `--` variant.
    """

    request_prefetch: bool = True
    selective_prefetch: bool = True
    batch_update: bool = True
    clean_first: bool = True
    #: |counter| that toggles selective prefetching (paper: 3).
    selective_threshold: int = 3

    def __post_init__(self) -> None:
        if self.selective_threshold < 1:
            raise ConfigError("selective_threshold must be >= 1")

    @classmethod
    def from_monogram(cls, monogram: str) -> "TPFTLConfig":
        """Build a config from a paper-style monogram like ``"bc"``.

        The special value ``"-"`` (or empty string) disables everything.
        """
        text = monogram.strip().lower()
        if text in ("-", "--", ""):
            text = ""
        allowed = set("rsbc")
        bad = set(text) - allowed
        if bad:
            raise ConfigError(f"unknown technique letters: {sorted(bad)}")
        return cls(
            request_prefetch="r" in text,
            selective_prefetch="s" in text,
            batch_update="b" in text,
            clean_first="c" in text,
        )

    @property
    def monogram(self) -> str:
        """Paper-style monogram for this configuration."""
        text = "".join(letter for letter, on in (
            ("r", self.request_prefetch),
            ("s", self.selective_prefetch),
            ("b", self.batch_update),
            ("c", self.clean_first),
        ) if on)
        return text or "-"


@dataclass(frozen=True)
class SanitizerConfig:
    """Switches for FTLSan, the runtime invariant sanitizer.

    When ``enabled``, every FTL installs a
    :class:`~repro.analysis.sanitizer.FTLSan` instance that checks the
    paper's structural invariants (§4.2/§4.4/§4.5 plus the flash state
    machine and shadow-map consistency) as the workload runs.  Checks
    fire every ``interval`` host page operations; the expensive
    whole-state checkers additionally run only every ``full_every``-th
    check (``1`` = every check).  An enabled sanitizer runs every SAN
    rule.
    """

    enabled: bool = False
    #: run sampled checks every this many host page operations
    interval: int = 1
    #: run whole-state (O(device)) checkers every this many checks
    full_every: int = 64

    def __post_init__(self) -> None:
        if self.interval < 1:
            raise ConfigError("sanitizer interval must be >= 1")
        if self.full_every < 1:
            raise ConfigError("sanitizer full_every must be >= 1")


@dataclass(frozen=True)
class SimulationConfig:
    """Top-level bundle handed to the device model."""

    ssd: SSDConfig = field(default_factory=SSDConfig)
    cache: Optional[CacheConfig] = None
    tpftl: TPFTLConfig = field(default_factory=TPFTLConfig)
    #: independently-queued flash channels of the device model
    #: (1 = the paper's single-server queue; >1 overlaps operations)
    channels: int = 1
    #: runtime invariant checking (off by default: zero overhead)
    sanitizer: SanitizerConfig = field(default_factory=SanitizerConfig)

    def __post_init__(self) -> None:
        if self.channels < 1:
            raise ConfigError("channels must be >= 1")

    def resolved_cache(self) -> CacheConfig:
        """The cache config, defaulting to the paper's §5.1 sizing rule."""
        if self.cache is not None:
            return self.cache
        return CacheConfig(budget_bytes=self.ssd.paper_cache_bytes())
