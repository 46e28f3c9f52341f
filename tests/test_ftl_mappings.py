"""Unit tests for translation-page geometry and the GTD."""

import pytest

from repro.errors import TranslationError
from repro.ftl import GlobalTranslationDirectory, TranslationGeometry
from repro.types import UNMAPPED


class TestGeometry:
    @pytest.fixture
    def geo(self):
        return TranslationGeometry(logical_pages=300, entries_per_page=64)

    def test_translation_pages_rounds_up(self, geo):
        assert geo.translation_pages == 5

    def test_locate(self, geo):
        assert geo.locate(0) == (0, 0)
        assert geo.locate(63) == (0, 63)
        assert geo.locate(64) == (1, 0)
        assert geo.locate(299) == (4, 43)

    def test_vtpn_offset_consistent_with_locate(self, geo):
        for lpn in (0, 1, 63, 64, 150, 299):
            assert geo.locate(lpn) == (geo.vtpn_of(lpn),
                                       geo.offset_of(lpn))

    def test_first_last_lpn(self, geo):
        assert geo.first_lpn(1) == 64
        assert geo.last_lpn(1) == 127
        # last page is short (300 entries total)
        assert geo.last_lpn(4) == 299
        assert geo.entries_in(4) == 44

    def test_lpns_of_page(self, geo):
        lpns = list(geo.lpns_of(4))
        assert lpns[0] == 256
        assert lpns[-1] == 299

    def test_same_page(self, geo):
        assert geo.same_page(64, 127)
        assert not geo.same_page(63, 64)

    def test_out_of_range_rejected(self, geo):
        with pytest.raises(ValueError):
            geo.vtpn_of(300)
        with pytest.raises(ValueError):
            geo.offset_of(-1)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            TranslationGeometry(logical_pages=0, entries_per_page=64)
        with pytest.raises(ValueError):
            TranslationGeometry(logical_pages=10, entries_per_page=0)


class TestGTD:
    def test_lookup_after_update(self):
        gtd = GlobalTranslationDirectory(4)
        gtd.update(2, 99)
        assert gtd.lookup(2) == 99
        assert gtd.is_mapped(2)

    def test_unmapped_lookup_raises(self):
        gtd = GlobalTranslationDirectory(4)
        with pytest.raises(TranslationError):
            gtd.lookup(0)

    def test_get_returns_sentinel(self):
        gtd = GlobalTranslationDirectory(4)
        assert gtd.get(1) == UNMAPPED

    def test_update_returns_previous(self):
        gtd = GlobalTranslationDirectory(4)
        assert gtd.update(0, 5) == UNMAPPED
        assert gtd.update(0, 7) == 5

    def test_update_all_is_update_per_pair(self):
        gtd = GlobalTranslationDirectory(4)
        gtd.update(3, 9)
        gtd.update_all([3, 1], [5, 6])
        assert [gtd.get(vtpn) for vtpn in range(4)] == [UNMAPPED, 6,
                                                        UNMAPPED, 5]

    def test_size_bytes(self):
        assert GlobalTranslationDirectory(16).size_bytes == 64

    def test_len(self):
        assert len(GlobalTranslationDirectory(7)) == 7

    def test_zero_pages_rejected(self):
        with pytest.raises(TranslationError):
            GlobalTranslationDirectory(0)
