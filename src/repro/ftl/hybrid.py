"""A FAST-style log-buffer hybrid FTL (background comparator, §2.1).

Data blocks are block-mapped; a small shared pool of page-mapped *log
blocks* absorbs updates.  When the pool overflows, the oldest log block is
merged: each logical block with pages in it is rebuilt from the newest
versions (log first, then the old data block) into a fresh block — a
*full merge* — unless the log block happens to contain exactly one
logical block's pages in perfect order, in which case it is promoted in a
cheap *switch merge*.

Hybrids beat block mapping and need far less RAM than page mapping, but
random writes scatter updates across many logical blocks and make every
merge a full merge — the §2.1 failure mode that motivates demand-based
page-level FTLs.  Mapping tables are RAM-resident (no translation pages),
as in FlashSim's hybrid comparators.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Set

from ..config import SimulationConfig
from ..errors import ConfigError, SimInvariantError
from ..flash.block import Block
from ..gc import VictimPolicy, WearLeveler
from ..types import AccessResult, BlockKind, PageKind
from .block_ftl import BlockFTL

#: number of shared log blocks (FAST uses a handful)
DEFAULT_LOG_BLOCKS = 8


class HybridFTL(BlockFTL):
    """Block-mapped data area plus a shared page-mapped log buffer: a
    :class:`BlockFTL` whose writes go to the log and whose lookups try
    the log first."""

    name = "hybrid"

    def __init__(self, config: SimulationConfig,
                 victim_policy: Optional[VictimPolicy] = None,
                 wear_leveler: Optional[WearLeveler] = None,
                 prefill: bool = True,
                 log_blocks: int = DEFAULT_LOG_BLOCKS) -> None:
        if log_blocks < 1:
            raise ConfigError("log_blocks must be >= 1")
        self.max_log_blocks = log_blocks
        #: LPN -> PPN for pages whose newest version lives in the log
        self.log_map: Dict[int, int] = {}
        #: log block ids, oldest first
        self.log_fifo: Deque[int] = deque()
        #: current partially filled log block
        self._log_frontier: Optional[Block] = None
        super().__init__(config, victim_policy=victim_policy,
                         wear_leveler=wear_leveler, prefill=prefill)
        self.merges_full = 0
        self.merges_switch = 0

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def _current_ppn(self, lpn: int) -> int:
        ppn = self.log_map.get(lpn)
        return super()._current_ppn(lpn) if ppn is None else ppn

    def _write(self, lpn: int, result: AccessResult) -> None:
        """Append the new version to the log, merging first if full."""
        frontier = self._log_frontier
        if frontier is None or frontier.is_full:
            if frontier is not None:
                self.log_fifo.append(frontier.block_id)
            if len(self.log_fifo) >= self.max_log_blocks:
                self._merge_oldest(result)
            frontier = self.flash.allocate_block(BlockKind.DATA)
            self._log_frontier = frontier
        # program the new version first, then invalidate the superseded
        # copy: a power cut between the two cannot split the pair (the
        # invalidation is out-of-band bookkeeping, not a flash op), and
        # the reverse order would lose the page if power died after the
        # invalidate but before the program.
        old = self._current_ppn(lpn)
        ppn = self.flash.program_into(frontier, PageKind.DATA, lpn)
        result.data_writes += 1
        self.flash.invalidate(old)
        self.log_map[lpn] = ppn
        self.flash_table[lpn] = ppn

    # ------------------------------------------------------------------
    # Merges
    # ------------------------------------------------------------------
    def _merge_oldest(self, result: AccessResult) -> None:
        victim_id = self.log_fifo.popleft()
        victim = self.flash.blocks[victim_id]
        ppb = self.ssd.pages_per_block
        if self._is_switchable(victim):
            # switch merge: the log block IS the new data block
            first_lpn = victim.meta(0)
            if first_lpn is None:  # pragma: no cover - switchable => full
                raise SimInvariantError("switch-merge victim lost meta")
            lbn = first_lpn // ppb
            old_data = self.block_map[lbn]
            # _write invalidated each of its pages when the newer copy
            # reached the log; erase raises EraseError if one is left
            if self.flash.erase(old_data):
                result.erases += 1
                self.metrics.erases_data += 1
            self.block_map[lbn] = victim_id
            for offset in range(ppb):
                self.log_map.pop(lbn * ppb + offset, None)
            self.merges_switch += 1
            return
        # full merge of every logical block present in the victim
        lbns: Set[int] = set()
        for offset in victim.valid_offsets():
            lpn = victim.meta(offset)
            if lpn is None:  # pragma: no cover - valid pages carry meta
                raise SimInvariantError("valid log page without metadata")
            lbns.add(lpn // ppb)
        for lbn in sorted(lbns):
            self._full_merge(lbn, result)
        # all its pages are now invalid
        if self.flash.erase(victim_id):
            result.erases += 1
            self.metrics.erases_data += 1
        self.metrics.gc_data_collections += 1
        self.merges_full += 1

    def _is_switchable(self, victim: Block) -> bool:
        ppb = self.ssd.pages_per_block
        if victim.valid_count != ppb:
            return False
        first = victim.meta(0)
        if first is None or first % ppb != 0:
            return False
        for offset in range(ppb):
            lpn = victim.meta(offset)
            if lpn != first + offset:
                return False
            # every page must still be the newest version
            if self.log_map.get(lpn) != self.flash.ppn_of(
                    victim.block_id, offset):
                return False
        return True

    def _full_merge(self, lbn: int, result: AccessResult) -> None:
        ppb = self.ssd.pages_per_block
        base = lbn * ppb
        new_block = self.flash.allocate_block(BlockKind.DATA)
        old_data = self.block_map[lbn]
        for offset in range(ppb):
            lpn = base + offset
            src = self.log_map.get(lpn)
            if src is None:
                src = self.flash.ppn_of(old_data, offset)
            self.flash.read(src, PageKind.DATA)
            result.data_reads += 1
            result.gc_data_reads += 1
            self.metrics.data_reads_migration += 1
            # program before invalidating, as in _write: the old
            # copy must stay valid until the new one exists on flash.
            ppn = self.flash.program_into(new_block, PageKind.DATA, lpn)
            result.data_writes += 1
            self.flash.invalidate(src)
            result.gc_data_writes += 1
            self.metrics.data_writes_migration += 1
            self.flash_table[lpn] = ppn
            self.log_map.pop(lpn, None)
        self.block_map[lbn] = new_block.block_id
        if self.flash.blocks[old_data].valid_count == 0:
            if self.flash.erase(old_data):
                result.erases += 1
                self.metrics.erases_data += 1
