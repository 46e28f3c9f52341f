"""Unit tests for translation-page geometry and the GTD.

``SSDConfig`` owns the geometry (entries per translation page, the
translation-page count, the GTD's byte size); an FTL keeps the GTD as a
plain list with one checked read, ``ptpn_of``.
"""

import pytest

from repro.config import CacheConfig, SimulationConfig, SSDConfig
from repro.errors import ConfigError, TranslationError
from repro.ftl import DFTL, FTL_NAMES, SFTL, TPFTL, OptimalFTL, make_ftl
from repro.types import AccessResult, PageState, UNMAPPED

#: 300 logical pages at 64 entries per translation page: five pages, the
#: last one short (44 entries)
SSD = SSDConfig(logical_pages=300, page_size=256, pages_per_block=8)


def _config(budget_bytes: int = 2048) -> SimulationConfig:
    return SimulationConfig(ssd=SSD,
                            cache=CacheConfig(budget_bytes=budget_bytes))


class TestGeometry:
    def test_translation_pages_rounds_up(self):
        assert SSD.entries_per_translation_page == 64
        assert SSD.translation_pages == 5
        assert len(DFTL(_config()).gtd) == 5

    def test_first_last_lpn(self):
        """S-FTL reports a cached page's entries from the page bounds:
        a full page holds 64, the short last page LPNs 256-299."""
        ftl = SFTL(_config())
        ftl.read_page(64)
        ftl.read_page(299)
        assert ftl.cache_snapshot() == [(44, 0), (64, 0)]

    def test_out_of_range_rejected(self):
        for ftl in (TPFTL(_config()), SFTL(_config())):
            for lpn in (300, -1):
                with pytest.raises(ValueError, match="outside logical"):
                    ftl.cache_peek(lpn)
        # -1 would otherwise read LPN 299's mapping
        for cls in (DFTL, TPFTL, SFTL, OptimalFTL):
            ftl = cls(_config())
            for lpn in (300, -1):
                with pytest.raises(ValueError, match="outside logical"):
                    ftl.lookup_current(lpn)

    @pytest.mark.parametrize("name", FTL_NAMES)
    def test_cache_peek_refuses_lpn_outside_device(self, name):
        """Every FTL's ``cache_peek`` runs the one base-class check."""
        ftl = make_ftl(name, _config())
        for lpn in (-1, SSD.logical_pages):
            with pytest.raises(ValueError, match="outside logical"):
                ftl.cache_peek(lpn)

    def test_invalid_construction(self):
        with pytest.raises(ConfigError, match="logical_pages"):
            SSDConfig(logical_pages=0, page_size=256)
        with pytest.raises(ConfigError, match="page_size"):
            SSDConfig(logical_pages=10, page_size=0)


class TestGTD:
    def test_lookup_after_update(self):
        ftl = DFTL(_config())
        reads = ftl.flash.stats.translation_reads
        ftl.write_translation_page(2, {}, AccessResult())
        assert ftl.ptpn_of(2) == ftl.gtd[2]
        ftl.read_translation_page(2, "load", AccessResult())
        assert ftl.flash.stats.translation_reads == reads + 1
        ftl.check_consistency()

    def test_unmapped_lookup_raises(self):
        ftl = DFTL(_config(), prefill=False)
        with pytest.raises(TranslationError, match="translation page 0"):
            ftl.ptpn_of(0)
        with pytest.raises(TranslationError, match="translation page 3"):
            ftl.read_translation_page(3, "load", AccessResult())

    def test_get_returns_sentinel(self):
        assert DFTL(_config(), prefill=False).gtd == [UNMAPPED] * 5

    def test_update_returns_previous(self):
        """A translation-page write supersedes the copy its slot named."""
        ftl = DFTL(_config())
        old = ftl.gtd[1]
        ftl.write_translation_page(1, {}, AccessResult())
        assert ftl.gtd[1] != old
        block = ftl.flash.block_of(old)
        assert block.state(ftl.flash.offset_of(old)) is PageState.INVALID

    def test_update_all_is_update_per_pair(self):
        """GC repoints exactly the slots of the pages it moved."""
        ftl = DFTL(_config(), prefill=False)
        ftl.gtd[3] = 9
        ftl._translation_pages_moved([3, 1], [5, 6], AccessResult())
        assert ftl.gtd == [UNMAPPED, 6, UNMAPPED, 5, UNMAPPED]

    def test_size_bytes(self):
        """4 B per slot, carved out of the cache budget."""
        ssd = SSDConfig(logical_pages=1024, page_size=256)
        assert ssd.translation_pages == 16
        assert ssd.gtd_bytes == 64
        ftl = DFTL(SimulationConfig(
            ssd=ssd, cache=CacheConfig(budget_bytes=1024)))
        assert ftl.capacity_entries == (1024 - 64) // 8

    def test_len(self):
        for pages in (1, 64, 65, 300):
            ssd = SSDConfig(logical_pages=pages, page_size=256,
                            pages_per_block=8)
            ftl = DFTL(SimulationConfig(
                ssd=ssd, cache=CacheConfig(budget_bytes=2048)))
            assert len(ftl.gtd) == ssd.translation_pages
