"""A NAND flash block: the unit of erase.

Page state lives in two flat arrays indexed by PPN and owned by the flash
array: one state byte per physical page (the ``PageState`` values: 0 FREE,
1 VALID, 2 INVALID, 3 BAD) and one metadata word (the LPN for data pages,
the VTPN for translation pages) — the simulator's stand-in for the
out-of-band area real FTLs use to rebuild mappings.  A ``Block`` is a
window onto them at ``block_id * pages_per_block`` and keeps only its
counters and write pointer; built on its own it allocates two block-sized
arrays.  The word is never blanked: only a VALID page has metadata, so
:meth:`Block.meta` derives "none" from the state byte and no value is
reserved.  Programming is enforced to be sequential within a block and
erase is only legal once no valid pages remain, so GC bugs surface as
exceptions instead of silent corruption.
"""

from __future__ import annotations

from array import array
from itertools import compress
from typing import List, Optional

from ..errors import EraseError, ProgramError
from ..types import BlockKind, PageState

#: the state bytes (one definition: ``PageState``, whose values index it)
_PAGE_STATES = tuple(PageState)
FREE, VALID, INVALID, BAD = (state.value for state in _PAGE_STATES)
#: ``bytes.translate`` table of an erase: every page FREE, BAD stays BAD
_ERASED = bytes(BAD if value == BAD else FREE for value in range(256))


class Block:
    """One erase block of ``pages_per_block`` pages."""

    __slots__ = ("block_id", "pages_per_block", "kind", "erase_count",
                 "last_program_seq", "_states", "_meta", "_base",
                 "_write_ptr", "valid_count", "invalid_count", "bad_count")

    def __init__(self, block_id: int, pages_per_block: int,
                 states: Optional[bytearray] = None,
                 metas: Optional["array[int]"] = None) -> None:
        self.block_id = block_id
        self.pages_per_block = pages_per_block
        self.kind = BlockKind.FREE
        self.erase_count = 0
        #: global operation sequence (``FlashMemory.op_seq``) of the most
        #: recent program into this block; no policy reads it, but the
        #: golden fault digests hash it, so it pins program order.
        self.last_program_seq = 0
        #: the arrays this block is a window onto, at pages ``[_base,
        #: _base + pages_per_block)``; a fresh array is all 0, all FREE
        self._base = 0 if states is None else block_id * pages_per_block
        self._states: bytearray = (bytearray(pages_per_block)
                                   if states is None else states)
        self._meta: "array[int]" = (array("q", [0]) * pages_per_block
                                    if metas is None else metas)
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
        return self._states.count(FREE, self._base + self._write_ptr,
                                  self._base + self.pages_per_block)

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
        if not 0 <= offset < self.pages_per_block:
            # the arrays are shared: past the block is a neighbour's page
            raise IndexError(
                f"offset {offset} outside block {self.block_id}")
        return _PAGE_STATES[self._states[self._base + offset]]

    def meta(self, offset: int) -> Optional[int]:
        """LPN/VTPN recorded when the page at ``offset`` was programmed;
        None unless the page is still VALID."""
        if self.state(offset) is not PageState.VALID:
            return None
        return self._meta[self._base + offset]

    def valid_offsets(self) -> List[int]:
        """Offsets of currently valid pages (ascending)."""
        window = self._states[self._base:self._base + self.pages_per_block]
        return list(compress(range(self.pages_per_block),
                             map(VALID.__eq__, window)))

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
               and self._states[self._base + self._write_ptr] != FREE):
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
        index = self._base + offset
        if self._states[index] != FREE:
            raise ProgramError(
                f"page {offset} of block {self.block_id} is not free")
        self._states[index] = VALID
        self._meta[index] = meta
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
        self._states[self._base + offset] = BAD
        self.bad_count += 1
        self._advance()
        return offset

    def invalidate(self, offset: int) -> None:
        """Mark a valid page invalid (its content was superseded)."""
        state = self.state(offset)
        if state is not PageState.VALID:
            raise ProgramError(
                f"page {offset} of block {self.block_id} is "
                f"{state.name}, cannot invalidate")
        self._states[self._base + offset] = INVALID
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
        base = self._base
        end = base + self.pages_per_block
        # bad pages survive the erase and the write pointer skips any
        # leading ones
        self._states[base:end] = self._states[base:end].translate(_ERASED)
        self._write_ptr = 0
        if self.bad_count:
            self._advance()
        self.valid_count = 0
        self.invalid_count = 0
        self.erase_count += 1
        self.kind = BlockKind.FREE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Block(id={self.block_id}, kind={self.kind.value}, "
                f"valid={self.valid_count}, invalid={self.invalid_count}, "
                f"free={self.free_count}, bad={self.bad_count}, "
                f"erases={self.erase_count})")
