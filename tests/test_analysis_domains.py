"""The TP2xx domain/unit pass: lattice, seeding, rules, escapes.

Exercises the abstract-interpretation layer on small in-memory
programs via ``analyze`` (which runs every pass; the snippets here are
crafted to stay clean under the other families so every finding is a
domain finding), plus unit tests for the lattice operators and the
name-seeding heuristics.
"""

import pytest

from conftest import analyze_source
from repro.analysis.flow.domains import (
    BLOCK, BYTES, CONFLICT, LPN, PAGE_OFFSET, PAGES, PPN, TIME_MS,
    TIME_US, UNKNOWN, VPN, _clash, _join, _soft_join, domain_from_name)


def _rules(source):
    return [f.rule for f in analyze_source(source)]


# ----------------------------------------------------------------------
# Lattice operators
# ----------------------------------------------------------------------
def test_join_unknown_is_bottom():
    assert _join(UNKNOWN, LPN) == LPN
    assert _join(LPN, UNKNOWN) == LPN
    assert _join(LPN, LPN) == LPN


def test_join_clash_is_conflict_and_conflict_absorbs():
    assert _join(LPN, PPN) == CONFLICT
    assert _join(CONFLICT, LPN) == CONFLICT


def test_soft_join_demotes_clashes_to_unknown():
    """Expression joins (ternaries, may-callee returns) must not
    manufacture CONFLICT out of honest polymorphism."""
    assert _soft_join(LPN, PPN) == UNKNOWN
    assert _soft_join(LPN, LPN) == LPN
    assert _soft_join(UNKNOWN, TIME_US) == TIME_US


@pytest.mark.parametrize("a,b,category", [
    (TIME_US, TIME_MS, "time"),
    (BYTES, PAGES, "count"),
    (LPN, PPN, "address"),
    (LPN, TIME_US, "mixed"),
    (PAGE_OFFSET, BYTES, "mixed"),
    (PAGE_OFFSET, LPN, None),      # offsets increment addresses
    (LPN, PAGES, None),            # address vs count: bounds checks
    (LPN, UNKNOWN, None),
    (CONFLICT, PPN, None),
    (LPN, LPN, None),
])
def test_clash_categories(a, b, category):
    assert _clash(a, b) == category
    assert _clash(b, a) == category


# ----------------------------------------------------------------------
# Name seeding
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name,expected", [
    ("lpn", LPN), ("victim_lpn", LPN), ("lpns", LPN),
    ("ppn", PPN), ("ptpn", PPN), ("old_ppn", PPN),
    ("vtpn", VPN), ("mvpn", VPN),
    ("lbn", BLOCK), ("block", BLOCK),
    ("offset", PAGE_OFFSET),
    ("service_us", TIME_US), ("arrival", TIME_US),
    ("response_ms", TIME_MS),
    ("nbytes", BYTES), ("budget_bytes", BYTES),
    ("capacity_entries", PAGES), ("npages", PAGES),
    ("UNMAPPED", UNKNOWN),         # constants are domain-neutral
    ("PPN_BYTES", UNKNOWN),
    ("bytes_per_entry", UNKNOWN),  # ratios are unitless
    ("lpn_to_ppn", UNKNOWN),       # two domains -> no single hint
    ("value", UNKNOWN),
])
def test_domain_from_name(name, expected):
    assert domain_from_name(name) == expected


# ----------------------------------------------------------------------
# TP201: cross-domain argument/store flow
# ----------------------------------------------------------------------
_FLASH = (
    "class Flash:\n"
    "    def invalidate(self, ppn):\n"
    "        self.last_dead = ppn\n\n\n")


def test_tp201_lpn_into_ppn_parameter():
    source = _FLASH + (
        "class FTL:\n"
        "    def __init__(self):\n"
        "        self.flash = Flash()\n\n"
        "    def serve(self, lpn):\n"
        "        self.flash.invalidate(lpn)\n")
    assert _rules(source) == ["TP201"]


def test_tp201_interprocedural_return_propagation():
    """flash_table loads yield PPNs; that inferred return domain must
    flow through an unannotated helper into the index position."""
    source = (
        "class FTL:\n"
        "    def __init__(self):\n"
        "        self.flash_table = {}\n\n"
        "    def translate(self, lpn):\n"
        "        found = self.flash_table[lpn]\n"
        "        return found\n\n"
        "    def stamp(self, lpn):\n"
        "        self.flash_table[self.translate(lpn)] = 0\n")
    findings = analyze_source(source)
    assert [f.rule for f in findings] == ["TP201"]
    assert "flash_table" in findings[0].message


def test_tp201_name_hinted_store_clash():
    source = (
        "def alias(lpn):\n"
        "    ppn = lpn\n"
        "    return ppn\n")
    assert _rules(source) == ["TP201"]


def test_polymorphic_parameters_stay_silent():
    """Unpinned params (generic containers) serve several domains;
    inference joins to CONFLICT and must not report."""
    source = (
        "class LRU:\n"
        "    def get(self, key):\n"
        "        return key\n\n\n"
        "class Caches:\n"
        "    def __init__(self):\n"
        "        self.lru = LRU()\n\n"
        "    def by_lpn(self, lpn):\n"
        "        return self.lru.get(lpn)\n\n"
        "    def by_vtpn(self, vtpn):\n"
        "        return self.lru.get(vtpn)\n")
    assert _rules(source) == []


# ----------------------------------------------------------------------
# TP202 / TP203 / TP204: arithmetic and comparisons
# ----------------------------------------------------------------------
def test_tp202_comparison_across_address_domains():
    assert _rules("def same(lpn, ppn):\n"
                  "    return lpn == ppn\n") == ["TP202"]


def test_tp203_time_unit_arithmetic():
    assert _rules("def total(service_us, delay_ms):\n"
                  "    return service_us + delay_ms\n") == ["TP203"]


def test_tp204_bytes_vs_entries_arithmetic():
    assert _rules("def slack(budget_bytes, nentries):\n"
                  "    return budget_bytes - nentries\n") == ["TP204"]


def test_offset_increments_are_transparent():
    """base + offset is pointer arithmetic, not a domain clash, and
    the sum keeps the address domain."""
    source = (
        "def span(first_lpn, offset):\n"
        "    lpn = first_lpn + offset\n"
        "    return lpn\n")
    assert _rules(source) == []


def test_address_vs_count_bounds_check_allowed():
    assert _rules("def in_range(lpn, npages):\n"
                  "    return lpn < npages\n") == []


# ----------------------------------------------------------------------
# Conversion escapes
# ----------------------------------------------------------------------
def test_multiplicative_ops_launder_domains():
    """Scaling is how units convert; * and // always yield UNKNOWN
    and the assignment-target name re-types the result."""
    source = (
        "def capacity(budget_bytes, entry_bytes):\n"
        "    entries = budget_bytes // entry_bytes\n"
        "    return entries\n")
    assert _rules(source) == []


def test_conversion_helper_launders():
    source = _FLASH + (
        "def to_ppn(value):\n"
        "    return value\n\n\n"
        "class FTL:\n"
        "    def __init__(self):\n"
        "        self.flash = Flash()\n\n"
        "    def serve(self, lpn):\n"
        "        self.flash.invalidate(to_ppn(lpn))\n")
    assert _rules(source) == []


def test_allow_pragma_suppresses_domain_findings():
    source = _FLASH + (
        "class FTL:\n"
        "    def __init__(self):\n"
        "        self.flash = Flash()\n\n"
        "    def serve(self, lpn):\n"
        "        self.flash.invalidate(lpn)  # tp: allow=TP201 - xxx\n")
    assert _rules(source) == []
