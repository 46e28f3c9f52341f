"""Property-based tests: every FTL is a correct block device under
arbitrary operation sequences, and TPFTL's structural invariants hold."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import (CacheConfig, SimulationConfig, SSDConfig,
                          TPFTLConfig)
from repro.ftl import make_ftl

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
