"""Tests of the shared FTL machinery via the optimal FTL (no cache
policy in the way) — prefill, write path, GC of both block kinds."""

import copy
import random

import pytest

from repro.config import GC_RESERVE_BLOCKS, GC_THRESHOLD_BLOCKS
from repro.errors import FTLError, TranslationError
from repro.ftl import DFTL, FTL_NAMES, OptimalFTL, make_ftl
from repro.types import AccessResult, Op, Request, UNMAPPED


@pytest.fixture
def optimal(tiny_config) -> OptimalFTL:
    return OptimalFTL(tiny_config)


class TestPrefill:
    def test_every_lpn_mapped(self, optimal):
        assert all(ppn != UNMAPPED for ppn in optimal.flash_table)

    def test_prefill_resets_stats(self, optimal):
        assert optimal.flash.stats.total_writes == 0
        assert optimal.metrics.user_page_accesses == 0

    def test_consistency_after_prefill(self, optimal):
        optimal.check_consistency()

    def test_prefill_with_translation_pages(self, tiny_config):
        ftl = DFTL(tiny_config)
        for vtpn in range(ftl.geometry.translation_pages):
            assert ftl.gtd.is_mapped(vtpn)
        ftl.check_consistency()


class TestReadWritePath:
    def test_read_costs_one_data_read(self, optimal):
        result = optimal.read_page(7)
        assert result.data_reads == 1
        assert result.data_writes == 0
        assert optimal.metrics.user_page_reads == 1

    def test_write_remaps_and_invalidates(self, optimal):
        old_ppn = optimal.flash_table[7]
        result = optimal.write_page(7)
        assert result.data_writes == 1
        new_ppn = optimal.flash_table[7]
        assert new_ppn != old_ppn
        old_block = optimal.flash.block_of(old_ppn)
        assert old_block.meta(optimal.flash.offset_of(old_ppn)) is None

    def test_read_reflects_latest_write(self, optimal):
        optimal.write_page(3)
        ppn = optimal.flash_table[3]
        assert optimal.flash.read(ppn, __import__(
            "repro.types", fromlist=["PageKind"]).PageKind.DATA) == 3

    def test_out_of_range_lpn_rejected(self, optimal):
        with pytest.raises(TranslationError):
            optimal.read_page(optimal.ssd.logical_pages)

    def test_serve_request_spans_pages(self, optimal):
        request = Request(arrival=0.0, op=Op.WRITE, lpn=10, npages=4)
        result = optimal.serve_request(request)
        assert result.data_writes == 4
        assert optimal.metrics.user_page_writes == 4


def unvalidated_request(op, lpn, npages):
    """A ``Request`` that skipped its constructor's check, built the way
    a trace builds its rows from trusted columns."""
    return tuple.__new__(Request, (0.0, op, lpn, npages, None))


#: entry point -> how it asks for ``npages`` pages from ``lpn`` on
ENTRY_POINTS = {
    "serve_request": lambda ftl, lpn, npages: ftl.serve_request(
        unvalidated_request(Op.WRITE, lpn, npages)),
    "read_page": lambda ftl, lpn, npages: ftl.read_page(lpn),
    "write_page": lambda ftl, lpn, npages: ftl.write_page(lpn),
}
#: range -> (first LPN on a device of ``pages`` logical pages, npages)
BAD_RANGES = {"lpn-minus-1": (lambda pages: -1, 1),
              "lpn-at-end": (lambda pages: pages, 1),
              "straddles-end": (lambda pages: pages - 2, 4)}
#: only ``serve_request`` can ask for more than one page
BAD_CALLS = [(entry, bad) for entry in ENTRY_POINTS for bad in BAD_RANGES
             if entry == "serve_request" or BAD_RANGES[bad][1] == 1]


class TestLpnRangeCheckedOnce:
    """``serve_request`` refuses a request that leaves the device before
    serving or counting any of its pages, for every FTL and through
    every entry point."""

    @pytest.mark.parametrize("entry,bad", BAD_CALLS)
    @pytest.mark.parametrize("name", FTL_NAMES)
    def test_bad_range_is_refused_untouched(self, roomy_config, name,
                                            entry, bad):
        first_lpn, npages = BAD_RANGES[bad]
        ftl = make_ftl(name, roomy_config)
        ftl.write_page(3)  # counters off zero, cache populated
        lpn = first_lpn(ftl.ssd.logical_pages)
        metrics = copy.deepcopy(ftl.metrics)
        stats = copy.deepcopy(ftl.flash.stats)
        with pytest.raises(TranslationError):
            ENTRY_POINTS[entry](ftl, lpn, npages)
        assert ftl.metrics == metrics
        assert ftl.flash.stats == stats
        ftl.check_consistency()


class TestGarbageCollection:
    def overwrite(self, ftl, rounds=30):
        """Hammer a few pages so GC must trigger."""
        for round_ in range(rounds):
            for lpn in range(16):
                ftl.write_page(lpn)

    def test_gc_triggers_and_recovers_space(self, optimal):
        self.overwrite(optimal)
        assert optimal.metrics.gc_data_collections > 0
        threshold = GC_THRESHOLD_BLOCKS + GC_RESERVE_BLOCKS
        assert optimal.flash.free_block_count >= threshold

    def test_gc_preserves_consistency(self, optimal):
        self.overwrite(optimal)
        optimal.check_consistency()

    def test_gc_migrations_counted(self, optimal):
        self.overwrite(optimal)
        metrics = optimal.metrics
        assert (metrics.data_writes_migration
                == metrics.data_reads_migration)
        assert (metrics.gc_data_valid_migrated
                == metrics.data_writes_migration)

    def test_optimal_never_touches_translation_pages(self, optimal):
        self.overwrite(optimal)
        assert optimal.metrics.translation_page_reads == 0
        assert optimal.metrics.translation_page_writes == 0
        assert optimal.metrics.erases_translation == 0

    def test_translation_blocks_collected_for_dftl(self, tiny_config):
        ftl = DFTL(tiny_config)
        # write across the whole space repeatedly: dirty evictions write
        # translation pages until translation blocks need GC too
        for round_ in range(12):
            for lpn in range(0, ftl.ssd.logical_pages, 3):
                ftl.write_page(lpn)
        assert ftl.metrics.trans_writes_writeback > 0
        assert ftl.metrics.erases_translation > 0
        ftl.check_consistency()

    def test_gc_hit_updates_cache_not_flash(self, tiny_config):
        ftl = DFTL(tiny_config)
        self_writes = 40
        for _ in range(self_writes):
            ftl.write_page(0)  # stays cached: GC updates should hit
        assert ftl.metrics.gc_update_hits >= 0  # smoke: no crash
        ftl.check_consistency()


    def test_forced_rewrite_refuses_a_corrupt_gtd_slot(self, tiny_config):
        """The batch hands the flash array PTPNs and gets the pages'
        own VTPNs back: a GTD slot pointing at another page is caught
        before any slot is repointed."""
        ftl = DFTL(tiny_config)
        table = ftl.gtd._table
        table[2], table[5] = table[5], table[2]
        corrupt = list(table)
        first = ftl.geometry.first_lpn
        missed = {first(vtpn): ftl.flash_table[first(vtpn)]
                  for vtpn in (5, 3, 2)}
        with pytest.raises(FTLError, match=r"VTPNs \[2, 3, 5\] hold "
                                           r"pages \[5, 3, 2\]"):
            ftl._gc_update_mappings(missed, AccessResult())
        assert table == corrupt

    def test_update_for_another_pages_lpn_is_refused(self, tiny_config):
        ftl = DFTL(tiny_config)
        writes = ftl.flash.stats.translation_writes
        for stray in (ftl.geometry.last_lpn(3) + 1,
                      ftl.geometry.first_lpn(3) - 1):
            with pytest.raises(FTLError, match=f"LPN {stray} does not "
                                               "belong to VTPN 3"):
                ftl.write_translation_page(3, {stray: 0}, AccessResult())
        assert ftl.flash.stats.translation_writes == writes


class TestGCUpdateCached:
    """The GC hook's contract, for every FTL: the cached entries among a
    victim's moved pages take the new PPN in place and turn dirty, the
    rest come back as the misses, and neither flash nor ``flash_table``
    is touched (the table-in-RAM default folds everything instead)."""

    @pytest.mark.parametrize("name", FTL_NAMES)
    def test_hits_updated_in_place_misses_returned(self, roomy_config,
                                                   name):
        ftl = make_ftl(name, roomy_config)
        rng = random.Random(11)
        first = ftl.geometry.first_lpn
        # clean and dirty entries across translation pages 0-2; pages
        # 5-7 are never loaded, so their LPNs miss in every cache
        touched = [first(vtpn) + offset for vtpn in (0, 1, 2)
                   for offset in rng.sample(range(8), 4)]
        written = set(touched[::2])
        for lpn in touched:
            if lpn in written:
                ftl.write_page(lpn)
            else:
                ftl.read_page(lpn)
        cached = touched[1::3]
        uncached = [first(vtpn) + rng.randrange(8) for vtpn in (5, 6, 7)]
        lpns = cached + uncached
        rng.shuffle(lpns)
        ppns = [100_000 + i for i in range(len(lpns))]
        new_ppn = dict(zip(lpns, ppns))
        table = ftl.flash_table.tolist()
        op_seq = ftl.flash.op_seq

        missed = ftl._gc_update_cached(lpns, ppns)

        assert ftl.flash.op_seq == op_seq
        if name == "optimal":
            assert missed == {}
            assert all(ftl.flash_table[lpn] == new_ppn[lpn] for lpn in lpns)
            return
        assert missed == {lpn: new_ppn[lpn] for lpn in uncached}
        for lpn in cached:
            assert ftl.cache_peek(lpn) == new_ppn[lpn]
        assert sum(dirty for _, dirty in ftl.cache_snapshot()) == len(
            written | set(cached))
        assert ftl.flash_table.tolist() == table


class TestFlush:
    def test_flush_empties_dirty_set(self, tiny_config):
        ftl = DFTL(tiny_config)
        for lpn in range(8):
            ftl.write_page(lpn)
        assert sum(dirty for _, dirty in ftl.cache_snapshot()) == 8
        ftl.flush()
        assert sum(dirty for _, dirty in ftl.cache_snapshot()) == 0
        assert ftl._take_dirty_entries() == {}

    def test_flush_makes_cache_agree_with_flash(self, tiny_config):
        ftl = DFTL(tiny_config)
        for lpn in range(8):
            ftl.write_page(lpn)
        ftl.flush()
        for lpn in range(ftl.ssd.logical_pages):
            cached = ftl.cache_peek(lpn)
            if cached is not None:
                assert cached == ftl.flash_table[lpn]

    def test_flush_counts_writebacks(self, tiny_config):
        ftl = DFTL(tiny_config)
        ftl.write_page(0)
        before = ftl.metrics.trans_writes_writeback
        ftl.flush()
        assert ftl.metrics.trans_writes_writeback > before
