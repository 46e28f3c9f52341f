"""Address-domain contracts of ``lookup_current``/``cache_peek``.

The TP2xx domain pass pins these APIs to the LPN->PPN contract in its
signature map; these tests pin the *runtime* side of the same
contract across every demand-cached FTL:

* ``cache_peek(lpn)`` returns the cached PPN (or None) without
  touching recency or counting a lookup;
* ``lookup_current(lpn)`` prefers the cache over ``flash_table``
  (cache wins while an entry is dirty), and what it returns is always
  the *authoritative* PPN — the flash page it names is VALID and its
  metadata reads back as exactly ``lpn``;
* after ``flush()``, ``flash_table`` agrees with ``lookup_current``
  for every LPN, even after mixed read/write/GC histories.
"""

import pytest

from repro.ftl import DFTL, TPFTL
from repro.types import PageKind


@pytest.fixture(params=[DFTL, TPFTL], ids=["dftl", "tpftl"])
def ftl(request, roomy_config):
    return request.param(roomy_config)


def _hammer(ftl, rounds=30, span=16):
    """Overwrite a few LPNs until data GC must have run."""
    for _ in range(rounds):
        for lpn in range(span):
            ftl.write_page(lpn)
    assert ftl.metrics.gc_data_collections > 0


class TestCachePeek:
    def test_uncached_lpn_peeks_none(self, ftl):
        assert ftl.cache_peek(123) is None

    def test_peek_is_metrics_neutral(self, ftl):
        ftl.read_page(5)
        lookups = ftl.metrics.lookups
        hits = ftl.metrics.hits
        for _ in range(3):
            ftl.cache_peek(5)
            ftl.cache_peek(123)
        assert ftl.metrics.lookups == lookups
        assert ftl.metrics.hits == hits

    def test_peek_matches_recorded_mapping(self, ftl):
        ftl.write_page(7)
        ppn = ftl.cache_peek(7)
        assert ppn is not None
        assert ftl.flash.read(ppn, PageKind.DATA) == 7


class TestLookupCurrent:
    def test_cache_wins_over_stale_flash_table(self, ftl):
        """A write dirties the cached entry; until writeback the
        cache — not flash_table — holds the authoritative PPN."""
        ftl.write_page(9)
        cached = ftl.cache_peek(9)
        assert cached is not None
        assert ftl.lookup_current(9) == cached
        assert ftl.flash.read(cached, PageKind.DATA) == 9

    def test_reads_do_not_remap(self, ftl):
        ftl.write_page(11)
        before = ftl.lookup_current(11)
        ftl.read_page(11)
        assert ftl.lookup_current(11) == before

    def test_authoritative_after_mixed_history_with_gc(self, ftl):
        _hammer(ftl)
        for lpn in range(16):
            ftl.read_page(lpn)
        for lpn in range(16):
            ppn = ftl.lookup_current(lpn)
            assert ftl.flash.read(ppn, PageKind.DATA) == lpn
        ftl.check_consistency()


class TestFlashTableAfterFlush:
    def test_flush_syncs_flash_table(self, ftl):
        for lpn in (0, 1, 7):
            ftl.write_page(lpn)
        ftl.flush()
        for lpn in (0, 1, 7):
            assert ftl.flash_table[lpn] == ftl.lookup_current(lpn)

    def test_flush_after_gc_keeps_lpn_to_ppn_authoritative(self, ftl):
        _hammer(ftl)
        ftl.flush()
        for lpn in range(16):
            ppn = ftl.flash_table[lpn]
            assert ppn == ftl.lookup_current(lpn)
            assert ftl.flash.read(ppn, PageKind.DATA) == lpn
        ftl.check_consistency()
