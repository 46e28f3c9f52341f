"""A NAND flash block: the unit of erase.

Each block tracks per-page state and the metadata written alongside each
page (the LPN for data pages, the VTPN for translation pages) — the
simulator's stand-in for the out-of-band area real FTLs use to rebuild
mappings.  Programming is enforced to be sequential within a block and
erase is only legal once no valid pages remain, so GC bugs surface as
exceptions instead of silent corruption.
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import EraseError, ProgramError
from ..types import BlockKind, PageState


class Block:
    """One erase block of ``pages_per_block`` pages."""

    __slots__ = ("block_id", "pages_per_block", "kind", "erase_count",
                 "last_program_seq", "_states", "_meta", "_write_ptr",
                 "valid_count", "invalid_count", "bad_count")

    def __init__(self, block_id: int, pages_per_block: int) -> None:
        self.block_id = block_id
        self.pages_per_block = pages_per_block
        self.kind = BlockKind.FREE
        self.erase_count = 0
        #: global operation sequence of the most recent program into this
        #: block; lets cost-benefit GC estimate block age without wall time.
        self.last_program_seq = 0
        self._states: List[PageState] = [PageState.FREE] * pages_per_block
        #: per-page metadata (LPN or VTPN of the content), None when free.
        self._meta: List[Optional[int]] = [None] * pages_per_block
        self._write_ptr = 0
        self.valid_count = 0
        self.invalid_count = 0
        #: pages permanently lost to program failures (survive erases).
        self.bad_count = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def free_count(self) -> int:
        """Programmable pages left in this block (bad pages excluded)."""
        return sum(1 for state in self._states[self._write_ptr:]
                   if state is PageState.FREE)

    @property
    def is_full(self) -> bool:
        """True once no programmable page remains."""
        return self._write_ptr >= self.pages_per_block

    @property
    def is_free(self) -> bool:
        """True while the block sits in the free pool."""
        return self.kind is BlockKind.FREE

    def state(self, offset: int) -> PageState:
        """Lifecycle state of the page at ``offset``."""
        return self._states[offset]

    def meta(self, offset: int) -> Optional[int]:
        """LPN/VTPN recorded when the page at ``offset`` was programmed."""
        return self._meta[offset]

    def valid_offsets(self) -> List[int]:
        """Offsets of currently valid pages (ascending)."""
        valid = PageState.VALID
        return [offset for offset, state in enumerate(self._states)
                if state is valid]

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def _advance(self) -> None:
        """Move the write pointer to the next FREE page (skipping BAD).

        Maintains the invariant that ``_write_ptr`` either indexes a
        programmable page or equals ``pages_per_block`` — which is what
        makes :attr:`is_full` a plain comparison.
        """
        while (self._write_ptr < self.pages_per_block
               and self._states[self._write_ptr] is not PageState.FREE):
            self._write_ptr += 1

    def program(self, meta: int, seq: int = 0) -> int:
        """Program the next free page; returns its offset in the block.

        ``seq`` is the flash array's global operation sequence number.
        Raises :class:`ProgramError` if the block is full or not owned
        (programming a FREE-kind block indicates an allocator bug).
        """
        if self.kind is BlockKind.FREE:
            raise ProgramError(
                f"block {self.block_id} programmed before allocation")
        if self.is_full:
            raise ProgramError(f"block {self.block_id} is full")
        offset = self._write_ptr
        if self._states[offset] is not PageState.FREE:
            raise ProgramError(
                f"page {offset} of block {self.block_id} is not free")
        self._states[offset] = PageState.VALID
        self._meta[offset] = meta
        self._write_ptr += 1
        self.valid_count += 1
        self.last_program_seq = seq
        self._advance()
        return offset

    def mark_bad(self) -> int:
        """Mark the next programmable page BAD (a program failure).

        The page is consumed permanently: erases leave it BAD and the
        write pointer skips over it.  Returns the offset marked.
        """
        if self.kind is BlockKind.FREE:
            raise ProgramError(
                f"block {self.block_id} marked bad before allocation")
        if self.is_full:
            raise ProgramError(f"block {self.block_id} is full")
        offset = self._write_ptr
        self._states[offset] = PageState.BAD
        self._meta[offset] = None
        self.bad_count += 1
        self._advance()
        return offset

    def invalidate(self, offset: int) -> None:
        """Mark a valid page invalid (its content was superseded)."""
        if self._states[offset] is not PageState.VALID:
            raise ProgramError(
                f"page {offset} of block {self.block_id} is "
                f"{self._states[offset].name}, cannot invalidate")
        self._states[offset] = PageState.INVALID
        self._meta[offset] = None
        self.valid_count -= 1
        self.invalid_count += 1

    def erase(self) -> None:
        """Erase the block, returning every page to FREE.

        Valid pages must have been migrated first; erasing data that is
        still live is the cardinal FTL sin and raises :class:`EraseError`.
        """
        if self.valid_count:
            raise EraseError(
                f"block {self.block_id} still has {self.valid_count} "
                "valid pages")
        self._meta = [None] * self.pages_per_block
        self._write_ptr = 0
        if self.bad_count:
            # bad pages survive the erase (their metadata is already
            # None) and the write pointer skips any leading ones
            self._states = [state if state is PageState.BAD
                            else PageState.FREE for state in self._states]
            self._advance()
        else:
            self._states = [PageState.FREE] * self.pages_per_block
        self.valid_count = 0
        self.invalid_count = 0
        self.erase_count += 1
        self.kind = BlockKind.FREE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Block(id={self.block_id}, kind={self.kind.value}, "
                f"valid={self.valid_count}, invalid={self.invalid_count}, "
                f"free={self.free_count}, bad={self.bad_count}, "
                f"erases={self.erase_count})")
