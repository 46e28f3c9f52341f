"""Unit tests for the flash array: frontiers, stats, space accounting."""

import pytest

from repro.config import GC_RESERVE_BLOCKS, GC_THRESHOLD_BLOCKS, SSDConfig
from repro.errors import (DeviceWornOutError, FlashError, OutOfSpaceError,
                          ProgramError)
from repro.flash import FlashMemory
from repro.types import BlockKind, PageKind, PageState


@pytest.fixture
def flash() -> FlashMemory:
    config = SSDConfig(logical_pages=256, page_size=256,
                       pages_per_block=8)
    return FlashMemory(config)


class TestAddressing:
    def test_ppn_round_trip(self, flash):
        ppn = flash.ppn_of(3, 5)
        assert flash.block_id_of(ppn) == 3
        assert flash.offset_of(ppn) == 5
        assert flash.block_of(ppn).block_id == 3


class TestProgramming:
    def test_program_fills_active_block_sequentially(self, flash):
        first = flash.program(PageKind.DATA, meta=10)
        second = flash.program(PageKind.DATA, meta=11)
        assert flash.block_id_of(first) == flash.block_id_of(second)
        assert flash.offset_of(second) == flash.offset_of(first) + 1

    def test_full_block_rolls_to_new_block(self, flash):
        ppns = [flash.program(PageKind.DATA, meta=i) for i in range(9)]
        assert flash.block_id_of(ppns[8]) != flash.block_id_of(ppns[0])

    def test_regions_use_separate_frontiers(self, flash):
        data = flash.program(PageKind.DATA, meta=1)
        trans = flash.program(PageKind.TRANSLATION, meta=2)
        assert flash.block_id_of(data) != flash.block_id_of(trans)
        assert flash.block_of(data).kind is BlockKind.DATA
        assert flash.block_of(trans).kind is BlockKind.TRANSLATION

    def test_program_counts_stats_by_kind(self, flash):
        flash.program(PageKind.DATA, meta=1)
        flash.program(PageKind.TRANSLATION, meta=2)
        flash.program(PageKind.DATA, meta=3)
        assert flash.stats.data_writes == 2
        assert flash.stats.translation_writes == 1

    def test_op_seq_monotonic(self, flash):
        flash.program(PageKind.DATA, meta=1)
        first = flash.op_seq
        flash.program(PageKind.DATA, meta=2)
        assert flash.op_seq == first + 1


class TestSupersede:
    """``program(kind, meta, supersedes=p)``: the out-of-place write's
    program and the invalidation of the copy it replaces, in one body."""

    def test_superseded_page_goes_invalid_and_its_block_up_a_bucket(
            self, flash):
        old = flash.program(PageKind.DATA, meta=4)
        block = flash.block_of(old)
        new = flash.program(PageKind.DATA, meta=4, supersedes=old)
        assert flash.block_of(new).meta(flash.offset_of(new)) == 4
        assert block.state(flash.offset_of(old)) is PageState.INVALID
        assert (block.valid_count, block.invalid_count) == (1, 1)
        assert flash.victim_index[1] == {block.block_id}
        assert flash.stats.data_writes == 2

    @pytest.mark.parametrize("state", ("FREE", "INVALID"))
    def test_a_page_that_is_not_valid_is_refused(self, flash, state):
        page = flash.program(PageKind.DATA, meta=1)
        if state == "FREE":
            page += 1
        else:
            flash.invalidate(page)
        seq, writes = flash.op_seq, flash.stats.data_writes
        with pytest.raises(ProgramError,
                           match=f"page {page % 8} of block "
                                 f"{page // 8} is {state}"):
            flash.program(PageKind.DATA, meta=2, supersedes=page)
        # refused before anything was programmed
        assert (flash.op_seq, flash.stats.data_writes) == (seq, writes)
        assert flash.block_of(page).valid_count == (state == "FREE")


class TestReads:
    def test_read_returns_meta_and_counts(self, flash):
        ppn = flash.program(PageKind.DATA, meta=77)
        assert flash.read(ppn, PageKind.DATA) == 77
        assert flash.stats.data_reads == 1

    def test_read_invalid_page_fails(self, flash):
        ppn = flash.program(PageKind.DATA, meta=1)
        flash.invalidate(ppn)
        with pytest.raises(FlashError):
            flash.read(ppn, PageKind.DATA)

    def test_read_free_page_fails(self, flash):
        with pytest.raises(FlashError):
            flash.read(0, PageKind.DATA)


class TestErase:
    def test_erase_returns_block_to_free_pool(self, flash):
        ppn = flash.program(PageKind.DATA, meta=1)
        block_id = flash.block_id_of(ppn)
        before = flash.free_block_count
        flash.invalidate(ppn)
        flash.erase(block_id)
        assert flash.free_block_count == before + 1
        assert flash.stats.erases[BlockKind.DATA] == 1

    def test_erase_free_block_fails(self, flash):
        with pytest.raises(FlashError):
            flash.erase(flash.blocks[-1].block_id)

    def test_erasing_active_block_clears_frontier(self, flash):
        ppn = flash.program(PageKind.DATA, meta=1)
        block_id = flash.block_id_of(ppn)
        flash.invalidate(ppn)
        flash.erase(block_id)
        assert flash.active_block(BlockKind.DATA) is None


class TestSpaceAccounting:
    def test_gc_needed_threshold(self, flash):
        # the pool level serve_request compares against the trigger
        threshold = GC_THRESHOLD_BLOCKS + GC_RESERVE_BLOCKS
        assert flash.config.gc_trigger_blocks == threshold
        assert flash.free_block_count > threshold
        while flash.free_block_count > threshold:
            flash.program(PageKind.DATA, meta=0)
        assert flash.free_block_count == threshold

    def test_out_of_space_raises(self, flash):
        pages = len(flash.blocks) * flash.pages_per_block
        with pytest.raises(OutOfSpaceError):
            for _ in range(pages + 1):
                flash.program(PageKind.DATA, meta=0)

    def test_worn_array_out_of_space_raises_worn_out(self, flash):
        """A pool drained after a retirement is wear, not misconfiguration:
        the array raises what ``_run_gc`` raises for the same state."""
        ppn = flash.program(PageKind.DATA, meta=0)
        flash.invalidate(ppn)
        flash.injector.erase_fails = lambda: True
        assert not flash.erase(flash.block_id_of(ppn))
        assert flash.is_worn
        with pytest.raises(DeviceWornOutError):
            while True:
                flash.program(PageKind.DATA, meta=0)

    def test_total_erase_count(self, flash):
        ppn = flash.program(PageKind.DATA, meta=1)
        flash.invalidate(ppn)
        flash.erase(flash.block_id_of(ppn))
        assert flash.total_erase_count() == 1


class TestStatsSnapshotReset:
    def test_snapshot_is_independent(self, flash):
        flash.program(PageKind.DATA, meta=1)
        snap = flash.stats.snapshot()
        flash.program(PageKind.DATA, meta=2)
        assert snap.data_writes == 1
        assert flash.stats.data_writes == 2

    def test_reset_zeroes_counters(self, flash):
        flash.program(PageKind.DATA, meta=1)
        flash.stats.reset()
        assert flash.stats.total_writes == 0
        assert flash.stats.total_reads == 0
        assert flash.stats.total_erases == 0
