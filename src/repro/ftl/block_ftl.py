"""A block-level FTL: the coarse-grained comparator from §2.1.

Maps logical *blocks* to physical blocks with fixed page offsets, so the
whole mapping table is tiny (4B per block — this table's size is exactly
what the paper's §5.1 rule grants the page-level FTLs as cache budget).
The price is rigid placement: overwriting any page forces a copy-merge of
the whole block.  Runnable as an extension to demonstrate *why* page-level
mapping wins; not part of the paper's measured figures.
"""

from __future__ import annotations

from typing import List, Optional

from ..config import SimulationConfig
from ..errors import ConfigError, FTLError
from ..gc import VictimPolicy, WearLeveler
from ..types import AccessResult, Op, PageKind, Request
from .base import BaseFTL


class BlockFTL(BaseFTL):
    """Block-granularity mapping with copy-merge updates."""

    name = "block"
    uses_translation_pages = False

    def __init__(self, config: SimulationConfig,
                 victim_policy: Optional[VictimPolicy] = None,
                 wear_leveler: Optional[WearLeveler] = None,
                 prefill: bool = True) -> None:
        if config.ssd.logical_pages % config.ssd.pages_per_block:
            raise ConfigError(
                f"{type(self).__name__} needs logical_pages to be a "
                "multiple of pages_per_block")
        if config.ssd.program_fail_rate > 0:
            raise ConfigError(
                f"{type(self).__name__} cannot run under program-fault "
                "injection: block-mapped data needs full, offset-aligned "
                "blocks, which bad pages break (read/erase faults and "
                "power loss are supported)")
        #: logical block -> physical block id
        self.block_map: List[int] = []
        super().__init__(config, victim_policy=victim_policy,
                         wear_leveler=wear_leveler, prefill=prefill)

    def prefill(self) -> None:
        """The sequential fill lands each logical block in one physical
        block, which establishes the rigid block mapping."""
        super().prefill()
        ppb = self.ssd.pages_per_block
        self.block_map = [self.flash.block_id_of(ppn)
                          for ppn in self.flash_table[::ppb]]

    # ------------------------------------------------------------------
    # Data path (overridden wholesale: no out-of-place page writes, and
    # so no garbage to collect — every merge erases what it supersedes)
    # ------------------------------------------------------------------
    def _serve_page(self, lpn: int, op: Op, request: Request,
                    result: AccessResult) -> None:
        if op is Op.TRIM:
            raise FTLError(
                f"{type(self).__name__} does not support TRIM "
                "(block-mapped data has no per-page unmap)")
        metrics = self.metrics
        metrics.lookups += 1
        metrics.hits += 1  # the mapping tables are fully RAM-resident
        if op is Op.READ:
            metrics.user_page_reads += 1
            self.flash.read(self._current_ppn(lpn), PageKind.DATA)
            result.data_reads += 1
        else:
            metrics.user_page_writes += 1
            self._write(lpn, result)

    def _current_ppn(self, lpn: int) -> int:
        """Where the block table places ``lpn``."""
        lbn, offset = divmod(lpn, self.ssd.pages_per_block)
        return self.flash.ppn_of(self.block_map[lbn], offset)

    def _write(self, lpn: int, result: AccessResult) -> None:
        """Copy-merge: rewrite the whole block, new page in place."""
        ppb = self.ssd.pages_per_block
        lbn, offset = divmod(lpn, ppb)
        old_block = self.block_map[lbn]
        base_lpn = lbn * ppb
        for i in range(ppb):
            src_ppn = self.flash.ppn_of(old_block, i)
            if i != offset:
                self.flash.read(src_ppn, PageKind.DATA)
                result.data_reads += 1
                result.gc_data_reads += 1
                self.metrics.data_reads_migration += 1
            new_ppn = self.flash.program(PageKind.DATA, base_lpn + i)
            result.data_writes += 1
            if i != offset:
                result.gc_data_writes += 1
                self.metrics.data_writes_migration += 1
            self.flash.invalidate(src_ppn)
            self.flash_table[base_lpn + i] = new_ppn
        self.block_map[lbn] = self.flash.block_id_of(
            self.flash_table[base_lpn])
        # the old block is now fully invalid: reclaim it immediately
        # (False means an injected erase failure retired it instead)
        if self.flash.erase(old_block):
            result.erases += 1
            self.metrics.erases_data += 1
        self.metrics.gc_data_collections += 1
