"""Property-based tests: every FTL is a correct block device under
arbitrary operation sequences, and TPFTL's structural invariants hold."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import (GTD_SLOT_BYTES, TPFTL_ENTRY_BYTES,
                          TPFTL_NODE_BYTES, CacheConfig, SanitizerConfig,
                          SimulationConfig, SSDConfig, TPFTLConfig)
from repro.ftl import make_ftl
from repro.types import Op, Request, UNMAPPED

PAGES = 256

ops = st.lists(
    st.tuples(st.booleans(), st.integers(min_value=0,
                                         max_value=PAGES - 1)),
    min_size=1, max_size=120)

monograms = st.sampled_from(["-", "b", "c", "bc", "r", "s", "rs",
                             "rsbc"])


def build(name: str, monogram: str = "rsbc"):
    ssd = SSDConfig(logical_pages=PAGES, page_size=256,
                    pages_per_block=8)
    cache = (CacheConfig(budget_bytes=1536)
             if name == "sftl" else None)
    config = SimulationConfig(
        ssd=ssd, cache=cache,
        tpftl=TPFTLConfig.from_monogram(monogram))
    return make_ftl(name, config)


@pytest.mark.parametrize("name", ["dftl", "sftl", "optimal"])
@given(sequence=ops)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_ftl_serves_any_sequence_consistently(name, sequence):
    ftl = build(name)
    for is_write, lpn in sequence:
        if is_write:
            ftl.write_page(lpn)
        else:
            ftl.read_page(lpn)
    ftl.flush()
    ftl.check_consistency()


@given(sequence=ops, monogram=monograms)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_tpftl_invariants_under_any_sequence(sequence, monogram):
    ftl = build("tpftl", monogram)
    for is_write, lpn in sequence:
        if is_write:
            ftl.write_page(lpn)
        else:
            ftl.read_page(lpn)
        ftl.assert_invariants()
    ftl.flush()
    ftl.check_consistency()
    ftl.assert_invariants()


@given(sequence=ops)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_all_ftls_agree_on_final_content_identity(sequence):
    """Whatever the FTL, a read of LPN x lands on a flash page whose
    out-of-band identity is x — across the whole logical space."""
    ftls = [build(name) for name in ("dftl", "tpftl", "optimal")]
    for is_write, lpn in sequence:
        for ftl in ftls:
            if is_write:
                ftl.write_page(lpn)
            else:
                ftl.read_page(lpn)
    from repro.types import PageKind
    for ftl in ftls:
        for lpn in range(0, PAGES, 13):
            ppn = ftl.lookup_current(lpn)
            assert ftl.flash.read(ppn, PageKind.DATA) == lpn


@given(sequence=ops)
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_metrics_never_go_inconsistent(sequence):
    """Derived ratios stay in range whatever happens."""
    ftl = build("tpftl")
    for is_write, lpn in sequence:
        if is_write:
            ftl.write_page(lpn)
        else:
            ftl.read_page(lpn)
        m = ftl.metrics
        assert 0.0 <= m.hit_ratio <= 1.0
        assert 0.0 <= m.p_replace_dirty <= 1.0
        assert m.hits <= m.lookups
        assert m.dirty_replacements <= m.replacements
        assert m.write_amplification >= 1.0


SSD = SSDConfig(logical_pages=PAGES, page_size=256, pages_per_block=8)
#: the smallest budget ``make_ftl`` accepts: the GTD plus one TP node
#: and one entry
MIN_BUDGET = (SSD.translation_pages * GTD_SLOT_BYTES + TPFTL_NODE_BYTES
              + TPFTL_ENTRY_BYTES)
#: first LPNs a few pages short of each translation-page boundary
NEAR_BOUNDARY = [boundary - back
                 for boundary in range(SSD.entries_per_translation_page,
                                       PAGES,
                                       SSD.entries_per_translation_page)
                 for back in range(1, 8)]

requests = st.lists(
    st.tuples(st.booleans(),
              st.one_of(st.integers(min_value=0, max_value=PAGES - 1),
                        st.sampled_from(NEAR_BOUNDARY)),
              st.integers(min_value=1, max_value=8)),
    min_size=1, max_size=40)


def _identity(ftl, lpn):
    """The out-of-band identity of the page ``lpn`` maps to."""
    ppn = ftl.lookup_current(lpn)
    if ppn == UNMAPPED:
        return None
    return ftl.flash.block_of(ppn).meta(ftl.flash.offset_of(ppn))


@given(sequence=requests, monogram=monograms,
       extra=st.integers(min_value=0, max_value=640))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_tpftl_multi_page_requests_match_the_optimal_ftl(sequence,
                                                         monogram, extra):
    """Multi-page reads and writes, some crossing a translation-page
    boundary, reach request-level prefetch and the §4.5 one-victim-node
    rule at any budget from the smallest one up: FTLSan checks every
    page, the structure holds after every request, and every LPN ends
    on a page of the same identity as under the table-in-RAM FTL."""
    ftl = make_ftl("tpftl", SimulationConfig(
        ssd=SSD, cache=CacheConfig(budget_bytes=MIN_BUDGET + extra),
        tpftl=TPFTLConfig.from_monogram(monogram),
        sanitizer=SanitizerConfig(enabled=True, interval=1)))
    optimal = make_ftl("optimal", SimulationConfig(ssd=SSD))
    for arrival, (is_write, lpn, npages) in enumerate(sequence):
        request = Request(arrival=float(arrival),
                          op=Op.WRITE if is_write else Op.READ,
                          lpn=min(lpn, PAGES - npages), npages=npages)
        ftl.serve_request(request)
        optimal.serve_request(request)
        ftl.assert_invariants()
    ftl.flush()
    ftl.check_consistency()
    assert ([_identity(ftl, lpn) for lpn in range(PAGES)]
            == [_identity(optimal, lpn) for lpn in range(PAGES)])


trim_ops = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2),
              st.integers(min_value=0, max_value=PAGES - 1)),
    min_size=1, max_size=100)


@given(sequence=trim_ops)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_tpftl_with_trims_stays_recoverable(sequence):
    """Reads, writes and trims in any order: invariants hold and a
    flash scan reconstructs exactly the live mapping."""
    from repro.recovery import verify_recovery
    ftl = build("tpftl")
    for kind, lpn in sequence:
        if kind == 0:
            ftl.read_page(lpn)
        elif kind == 1:
            ftl.write_page(lpn)
        else:
            from repro.types import Op, Request
            ftl.serve_request(Request(arrival=0.0, op=Op.TRIM,
                                      lpn=lpn, npages=1))
        ftl.assert_invariants()
    ftl.flush()
    ftl.check_consistency()
    verify_recovery(ftl)


@given(sequence=trim_ops)
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_dftl_trim_flush_persists_unmappings(sequence):
    """After a flush, the on-flash table agrees with the live view for
    every LPN, trimmed ones included."""
    from repro.types import Op, Request, UNMAPPED
    ftl = build("dftl")
    trimmed = set()
    for kind, lpn in sequence:
        if kind == 0:
            ftl.read_page(lpn)
        elif kind == 1:
            ftl.write_page(lpn)
            trimmed.discard(lpn)
        else:
            ftl.serve_request(Request(arrival=0.0, op=Op.TRIM,
                                      lpn=lpn, npages=1))
            trimmed.add(lpn)
    ftl.flush()
    for lpn in trimmed:
        assert ftl.flash_table[lpn] == UNMAPPED
    for lpn in range(PAGES):
        assert ftl.lookup_current(lpn) == ftl.flash_table[lpn]
