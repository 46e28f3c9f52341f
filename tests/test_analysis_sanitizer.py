"""FTLSan: full-rate acceptance sweep plus mutation-style corruption tests.

The acceptance half replays a 10k-request mixed read/write/trim workload
with the sanitizer sampling after **every** host page operation and
expects silence.  The mutation half then breaks each invariant on
purpose — by corrupting live FTL state or monkeypatching a buggy policy
in — and asserts that the sanitizer raises :class:`SanitizerError`
carrying exactly the rule code documented for that invariant.
"""

import dataclasses

import pytest

from repro.config import TPFTL_ENTRY_BYTES, SanitizerConfig, TPFTLConfig
from repro.errors import SanitizerError
from repro.experiments.analysis import _build_ops, _sweep_row
from repro.ftl import FTL_NAMES, make_ftl
from repro.types import Op, Request


def _san(ftl):
    """The attached sanitizer, asserted present for the type checker."""
    sanitizer = ftl.sanitizer
    if sanitizer is None:
        raise AssertionError("sanitizer not attached")
    return sanitizer


def _warm(ftl, count, *, trims, seed):
    """Replay a deterministic mixed workload through ``ftl``."""
    for request in _build_ops(count, trims=trims, seed=seed):
        ftl.serve_request(request)


# ----------------------------------------------------------------------
# Acceptance: 10k ops at sampling interval 1, every FTL, no findings
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", FTL_NAMES)
def test_full_rate_10k_ops_clean(name):
    row = _sweep_row(name, 10_000)
    assert row[-1] == "clean"
    assert row[1] >= 10_000  # page ops meet the 10k-op bar
    assert row[3] > 0  # full sweeps actually ran


@pytest.mark.parametrize("name", FTL_NAMES)
def test_after_op_fires_once_per_page_served(sanitized_config, name):
    """``serve_request`` owns the FTLSan call, so every FTL is observed
    once per page, in order, through every entry point."""
    ftl = make_ftl(name, sanitized_config)
    sanitizer = _san(ftl)
    after_op, seen = sanitizer.after_op, []

    def counting(lpn, op):
        seen.append((lpn, op))
        after_op(lpn, op)

    sanitizer.after_op = counting
    ftl.serve_request(Request(arrival=0.0, op=Op.WRITE, lpn=10, npages=4))
    ftl.read_page(11)
    ftl.write_page(12)
    assert seen == [(10, Op.WRITE), (11, Op.WRITE), (12, Op.WRITE),
                    (13, Op.WRITE), (11, Op.READ), (12, Op.WRITE)]
    assert sanitizer.op_seq == sanitizer.checks_run == 6


def test_sanitizer_absent_when_disabled(roomy_config):
    ftl = make_ftl("tpftl", roomy_config)
    assert ftl.sanitizer is None


def test_sanitizer_error_carries_code_and_op():
    error = SanitizerError("SAN005", "crossed the boundary", op_seq=42)
    assert error.code == "SAN005"
    assert "[SAN005 @ op 42]" in str(error)


# ----------------------------------------------------------------------
# SAN001: shadow page map vs. flash state
# ----------------------------------------------------------------------
def test_san001_lost_write(sanitized_config):
    ftl = make_ftl("dftl", sanitized_config)
    ftl.serve_request(Request(arrival=0.0, op=Op.WRITE, lpn=3, npages=1))
    # the mapped page silently dies under the FTL
    ftl.flash.invalidate(ftl.lookup_current(3))
    with pytest.raises(SanitizerError) as excinfo:
        _san(ftl).run_checks(full=True)
    assert excinfo.value.code == "SAN001"


def test_san001_trim_left_mapped(sanitized_config):
    ftl = make_ftl("dftl", sanitized_config)
    ftl.serve_request(Request(arrival=0.0, op=Op.WRITE, lpn=9, npages=1))
    ppn = ftl.lookup_current(9)
    ftl.serve_request(Request(arrival=1.0, op=Op.TRIM, lpn=9, npages=1))
    # resurrect the stale mapping behind the host's back (the cached
    # cell would mask the table, so drop it too)
    ftl.flash_table[9] = ppn
    del ftl.cmt[9]
    with pytest.raises(SanitizerError) as excinfo:
        _san(ftl).run_checks(full=True)
    assert excinfo.value.code == "SAN001"


# ----------------------------------------------------------------------
# SAN002/SAN003/SAN004: TPFTL cache structure, hotness, budget
# ----------------------------------------------------------------------
def _warm_tpftl(config, count=300, seed=7):
    ftl = make_ftl("tpftl", config)
    _warm(ftl, count, trims=True, seed=seed)
    return ftl


def test_san002_miskeyed_entry(sanitized_config):
    ftl = _warm_tpftl(sanitized_config)
    node = next(iter(ftl.page_list))
    lpn, entry = node.entries.popitem()
    node.entries[lpn + 1] = entry
    with pytest.raises(SanitizerError) as excinfo:
        _san(ftl).run_checks()
    assert excinfo.value.code == "SAN002"


def test_san003_hot_sum_drift(sanitized_config):
    ftl = _warm_tpftl(sanitized_config)
    node = next(iter(ftl.page_list))
    node.hot_sum += 5
    with pytest.raises(SanitizerError) as excinfo:
        _san(ftl).run_checks()
    assert excinfo.value.code == "SAN003"


def test_san003_stale_stored_hotness(sanitized_config):
    """The page list is ordered by the stored quotient, so a refresh
    missed after a ``hot_sum`` change must not go unnoticed."""
    ftl = _warm_tpftl(sanitized_config)
    node = next(iter(ftl.page_list))
    entry = next(iter(node.entries.values()))
    node.hot_sum += 5  # a consistent bump that skips the refresh
    entry.hot_seq += 5
    with pytest.raises(SanitizerError) as excinfo:
        _san(ftl).run_checks()
    assert excinfo.value.code == "SAN003"
    assert "stored hotness" in str(excinfo.value)


def test_san004_budget_leak(sanitized_config):
    ftl = _warm_tpftl(sanitized_config)
    # leak one entry's worth of accounting: recount > budget.used
    ftl.budget.release(TPFTL_ENTRY_BYTES)
    with pytest.raises(SanitizerError) as excinfo:
        _san(ftl).run_checks()
    assert excinfo.value.code == "SAN004"


# ----------------------------------------------------------------------
# SAN005: prefetch must stay inside one translation page (§4.5)
# ----------------------------------------------------------------------
def test_san005_plan_crosses_boundary(sanitized_config, monkeypatch):
    ftl = make_ftl("tpftl", sanitized_config)
    # buggy planner: prefetches into a different translation page
    monkeypatch.setattr(ftl, "_plan_prefetch",
                        lambda lpn, vtpn, request: [500])
    with pytest.raises(SanitizerError) as excinfo:
        ftl.serve_request(Request(arrival=0.0, op=Op.READ, lpn=5,
                                  npages=1))
    assert excinfo.value.code == "SAN005"
    assert 5 // ftl.entries_per_page != 500 // ftl.entries_per_page


# ----------------------------------------------------------------------
# SAN006: prefetch-induced eviction confined to one TP node (§4.5)
# ----------------------------------------------------------------------
def test_san006_eviction_spans_nodes(sanitized_config, monkeypatch):
    ftl = make_ftl("tpftl", sanitized_config)
    for lpn in range(384):  # fill the cache well past its budget
        ftl.serve_request(Request(arrival=float(lpn), op=Op.WRITE,
                                  lpn=lpn, npages=1))
    state = {"turn": 0}

    def scattering_make_room(need, result, only_node=None, protect=None):
        # buggy replacement: rotates victims across every TP node,
        # ignoring the single-node confinement rule
        while ftl.budget.used + need > ftl.budget.capacity:
            nodes = [node for node in ftl.page_list if len(node)]
            victim = nodes[state["turn"] % len(nodes)]
            state["turn"] += 1
            if not ftl._evict_one(victim, result, protect=protect):
                return False
        return True

    monkeypatch.setattr(ftl, "_make_room", scattering_make_room)
    with pytest.raises(SanitizerError) as excinfo:
        # miss on an uncached translation page with a 4-page request:
        # the 3-entry prefetch forces evictions while the cache is full
        ftl.serve_request(Request(arrival=1000.0, op=Op.READ, lpn=448,
                                  npages=4))
    assert excinfo.value.code == "SAN006"


# ----------------------------------------------------------------------
# SAN007: clean-first victim selection (§4.4)
# ----------------------------------------------------------------------
def test_san007_dirty_victim_despite_clean(sanitized_config, monkeypatch):
    ftl = make_ftl("tpftl", sanitized_config)

    def lru_only(node, protect=None):
        # buggy policy: plain LRU, ignoring the clean-first rule
        for entry in node.entries.values():
            if entry is not protect:
                return entry
        return None

    monkeypatch.setattr(ftl, "_choose_victim", lru_only)
    with pytest.raises(SanitizerError) as excinfo:
        _warm(ftl, 2_000, trims=True, seed=3)
    assert excinfo.value.code == "SAN007"


# ----------------------------------------------------------------------
# SAN008: batch update leaves the victim's node all-clean (§4.4)
# ----------------------------------------------------------------------
def test_san008_forgotten_batch(sanitized_config, monkeypatch):
    config = dataclasses.replace(sanitized_config,
                                 tpftl=TPFTLConfig(clean_first=False))
    ftl = make_ftl("tpftl", config)

    def lazy_writeback(node, victim, result):
        # buggy writeback: flushes only the victim, leaving its
        # neighbours dirty although batch_update is enabled
        victim.dirty = False
        node.dirty_count -= 1
        ftl.read_translation_page(node.vtpn, "writeback", result)
        ftl.write_translation_page(node.vtpn,
                                   {victim.lpn: victim.ppn}, result)
        _san(ftl).note_writeback(ftl, node, victim)

    monkeypatch.setattr(ftl, "_writeback", lazy_writeback)
    with pytest.raises(SanitizerError) as excinfo:
        _warm(ftl, 2_000, trims=False, seed=5)
    assert excinfo.value.code == "SAN008"


# ----------------------------------------------------------------------
# SAN009: flash page state machine
# ----------------------------------------------------------------------
def test_san009_counter_corruption(sanitized_config):
    ftl = make_ftl("dftl", sanitized_config)
    _warm(ftl, 50, trims=False, seed=13)
    ftl.flash.blocks[0].invalid_count += 1
    with pytest.raises(SanitizerError) as excinfo:
        _san(ftl).run_checks(full=True)
    assert excinfo.value.code == "SAN009"


def test_san009_victim_index_drift(sanitized_config):
    """A block missing from its bucket is never collected; a stale id
    (here: a free block's) would be collected when it should not be."""
    ftl = make_ftl("dftl", sanitized_config)
    _warm(ftl, 50, trims=False, seed=13)
    flash = ftl.flash
    _san(ftl).run_checks(full=True)  # exact as the FTL left it
    dirty = next(block for block in flash.blocks if block.invalid_count)
    bucket = flash.victim_index[dirty.invalid_count]
    bucket.discard(dirty.block_id)
    with pytest.raises(SanitizerError, match="missing") as excinfo:
        _san(ftl).run_checks(full=True)
    assert excinfo.value.code == "SAN009"
    bucket.add(dirty.block_id)
    flash.victim_index[1].add(flash._free[0])
    with pytest.raises(SanitizerError, match="stale") as excinfo:
        _san(ftl).run_checks(full=True)
    assert excinfo.value.code == "SAN009"
