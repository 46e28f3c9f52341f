"""The greedy GC policy, on hand-built blocks and driving an FTL."""

import pytest

from repro.flash.block import Block
from repro.ftl import FTL_NAMES, make_ftl
from repro.gc import GreedyPolicy
from repro.ssd import simulate
from repro.types import BlockKind

from conftest import check_every_selection, make_trace, random_ops


def make_block(block_id, pages=8, valid=0, invalid=0, erase_count=0):
    block = Block(block_id, pages)
    block.kind = BlockKind.DATA
    for i in range(valid + invalid):
        block.program(meta=i, seq=0)
    for i in range(invalid):
        block.invalidate(i)
    block.erase_count = erase_count
    return block


class TestGreedy:
    def test_picks_most_invalid(self):
        blocks = [make_block(0, invalid=2, valid=6),
                  make_block(1, invalid=5, valid=3),
                  make_block(2, invalid=4, valid=4)]
        assert GreedyPolicy().select(blocks).block_id == 1

    def test_skips_fully_valid_blocks(self):
        blocks = [make_block(0, valid=8)]
        assert GreedyPolicy().select(blocks) is None

    def test_empty_candidates(self):
        assert GreedyPolicy().select([]) is None

    def test_tie_breaks_to_lower_erase_count(self):
        blocks = [make_block(0, invalid=3, valid=1, erase_count=9),
                  make_block(1, invalid=3, valid=1, erase_count=2)]
        assert GreedyPolicy().select(blocks).block_id == 1


@pytest.mark.parametrize("policy", [GreedyPolicy()], ids=["greedy"])
def test_policy_collects_under_tpftl_and_keeps_the_mapping(tiny_config,
                                                           policy):
    """Under TPFTL every victim the counting index picks is the policy's
    full-scan pick, GC happens, and the mapping stays consistent."""
    ftl = make_ftl("tpftl", tiny_config)
    checks = check_every_selection(ftl, policy)
    trace = make_trace(random_ops(1500, 512, seed=4, write_ratio=0.8))
    assert simulate(ftl, trace).metrics.gc_data_collections > 0
    assert checks[0] > 0
    ftl.flush()
    ftl.check_consistency()


@pytest.mark.parametrize("name", FTL_NAMES)
def test_index_pick_matches_the_full_scan_under_every_ftl(roomy_config,
                                                          name):
    """The counting index and ``GreedyPolicy``'s full scan agree on every
    pick of a GC-heavy run, whichever FTL's blocks they are choosing
    among (DFTL, S-FTL and TPFTL add translation blocks to the mix)."""
    ftl = make_ftl(name, roomy_config)
    checks = check_every_selection(ftl)
    trace = make_trace(random_ops(1500, 512, seed=4, write_ratio=0.8))
    metrics = simulate(ftl, trace).metrics
    assert metrics.gc_data_collections > 0
    assert checks[0] >= metrics.gc_data_collections
    ftl.flush()
    ftl.check_consistency()
