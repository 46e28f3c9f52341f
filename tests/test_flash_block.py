"""Unit tests for the NAND block model and its invariants."""

import pytest

from repro.config import SSDConfig
from repro.errors import EraseError, ProgramError
from repro.flash import FlashMemory
from repro.flash.block import Block
from repro.types import BlockKind, PageKind, PageState


@pytest.fixture
def block() -> Block:
    blk = Block(block_id=3, pages_per_block=4)
    blk.kind = BlockKind.DATA
    return blk


class TestProgramming:
    def test_program_is_sequential(self, block):
        assert block.program(meta=100) == 0
        assert block.program(meta=101) == 1
        assert block.program(meta=102) == 2

    def test_program_records_meta_and_state(self, block):
        offset = block.program(meta=42)
        assert block.meta(offset) == 42
        assert block.state(offset) is PageState.VALID

    def test_program_updates_counts(self, block):
        block.program(meta=1)
        assert block.valid_count == 1
        assert block.free_count == 3

    def test_program_full_block_fails(self, block):
        for i in range(4):
            block.program(meta=i)
        assert block.is_full
        with pytest.raises(ProgramError):
            block.program(meta=99)

    def test_program_unallocated_block_fails(self):
        blk = Block(block_id=0, pages_per_block=4)
        with pytest.raises(ProgramError):
            blk.program(meta=1)

    def test_program_stamps_sequence(self, block):
        block.program(meta=1, seq=77)
        assert block.last_program_seq == 77


class TestInvalidation:
    def test_invalidate_flips_state(self, block):
        offset = block.program(meta=9)
        block.invalidate(offset)
        assert block.state(offset) is PageState.INVALID
        assert block.valid_count == 0
        assert block.invalid_count == 1
        assert block.meta(offset) is None

    def test_invalidate_free_page_fails(self, block):
        with pytest.raises(ProgramError):
            block.invalidate(0)

    def test_double_invalidate_fails(self, block):
        offset = block.program(meta=9)
        block.invalidate(offset)
        with pytest.raises(ProgramError):
            block.invalidate(offset)


class TestErase:
    def test_erase_requires_no_valid_pages(self, block):
        block.program(meta=1)
        with pytest.raises(EraseError):
            block.erase()

    def test_erase_resets_everything(self, block):
        for i in range(4):
            block.program(meta=i)
        for i in range(4):
            block.invalidate(i)
        block.erase()
        assert block.kind is BlockKind.FREE
        assert block.erase_count == 1
        assert block.free_count == 4
        assert block.valid_count == 0
        assert block.invalid_count == 0
        assert all(block.state(i) is PageState.FREE for i in range(4))

    def test_erase_count_accumulates(self, block):
        for round_ in range(3):
            block.kind = BlockKind.DATA
            offset = block.program(meta=round_)
            block.invalidate(offset)
            block.erase()
        assert block.erase_count == 3


class TestQueries:
    def test_valid_offsets_ascending(self, block):
        block.program(meta=1)
        block.program(meta=2)
        block.program(meta=3)
        block.invalidate(1)
        assert block.valid_offsets() == [0, 2]

    def test_fresh_block_is_free_kind(self):
        assert Block(0, 4).is_free

    def test_meta_is_none_unless_the_page_is_valid(self, block):
        block.mark_bad()
        gone = block.program(meta=7)
        kept = block.program(meta=-1)  # no value of the word is reserved
        block.invalidate(gone)
        assert [block.meta(offset) for offset in range(4)] == [
            None, None, -1, None]  # BAD, INVALID, VALID, FREE
        block.invalidate(kept)
        block.erase()
        assert [block.meta(offset) for offset in range(4)] == [None] * 4


class TestWindowedBlock:
    """A block of a ``FlashMemory`` shares the array's page arrays: an
    offset outside it must be refused, not served from a neighbour."""

    @pytest.fixture
    def window(self) -> Block:
        flash = FlashMemory(SSDConfig(logical_pages=64, pages_per_block=4))
        flash.program_batch(PageKind.DATA, range(12))  # blocks 0, 1, 2
        return flash.blocks[1]

    @pytest.mark.parametrize("offset", [-1, 4])
    def test_offset_outside_the_block_is_an_index_error(self, window,
                                                        offset):
        with pytest.raises(IndexError):
            window.state(offset)
        with pytest.raises(IndexError):
            window.meta(offset)
