"""Greedy victim selection: reclaim the block with the most invalid pages.

This is the policy FlashSim's DFTL module uses and the one the paper's
evaluation holds fixed across FTLs.  Ties break toward the lower erase
count, then toward the first candidate.  A policy looks only at the
candidate blocks of the array; the FTL performs the migrations and
mapping updates for whatever block it chooses.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..flash.block import Block


class GreedyPolicy:
    """Pick the candidate with the most invalid pages."""

    def select(self, candidates: Iterable[Block]) -> Optional[Block]:
        """Return the victim block, or None if none is collectible.

        ``candidates`` exclude the active write frontiers; a block is
        collectible if erasing it gains at least one page.
        """
        best: Optional[Block] = None
        for block in candidates:
            if not block.invalid_count:
                continue
            if (best is None
                    or block.invalid_count > best.invalid_count
                    or (block.invalid_count == best.invalid_count
                        and block.erase_count < best.erase_count)):
                best = block
        return best
