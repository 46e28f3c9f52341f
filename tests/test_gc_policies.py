"""Unit tests for GC victim policies and the wear leveler."""

import pytest

from repro.flash.block import Block
from repro.ftl import make_ftl
from repro.gc import CostBenefitPolicy, GreedyPolicy, WearLeveler
from repro.ssd import simulate
from repro.types import BlockKind

from conftest import make_trace, random_ops


def make_block(block_id, pages=8, valid=0, invalid=0, erase_count=0,
               last_seq=0):
    block = Block(block_id, pages)
    block.kind = BlockKind.DATA
    for i in range(valid + invalid):
        block.program(meta=i, seq=last_seq)
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


class TestCostBenefit:
    def test_fully_invalid_block_wins_immediately(self):
        blocks = [make_block(0, invalid=2, valid=6, last_seq=100),
                  make_block(1, invalid=8, valid=0, last_seq=100)]
        assert CostBenefitPolicy().select(blocks,
                                          now_seq=200).block_id == 1

    def test_prefers_older_blocks_at_equal_utilisation(self):
        old = make_block(0, invalid=4, valid=4, last_seq=10)
        young = make_block(1, invalid=4, valid=4, last_seq=190)
        assert CostBenefitPolicy().select([old, young],
                                          now_seq=200).block_id == 0

    def test_prefers_lower_utilisation_at_equal_age(self):
        lighter = make_block(0, invalid=6, valid=2, last_seq=100)
        heavier = make_block(1, invalid=2, valid=6, last_seq=100)
        assert CostBenefitPolicy().select([lighter, heavier],
                                          now_seq=200).block_id == 0

    def test_nothing_collectible(self):
        assert CostBenefitPolicy().select([make_block(0, valid=8)]) is None


class TestWearLeveler:
    def test_balanced_pool_nominates_nothing(self):
        blocks = [make_block(i, invalid=1, valid=1, erase_count=5)
                  for i in range(4)]
        assert WearLeveler(threshold=4).nominate(blocks) is None

    def test_nominates_coldest_beyond_threshold(self):
        hot = make_block(0, invalid=1, valid=1, erase_count=40)
        cold = make_block(1, invalid=1, valid=1, erase_count=2)
        mid = make_block(2, invalid=1, valid=1, erase_count=20)
        leveler = WearLeveler(threshold=10)
        assert leveler.nominate([hot, cold, mid]).block_id == 1
        assert leveler.forced_collections == 1

    def test_blank_cold_block_skipped(self):
        hot = make_block(0, invalid=1, valid=1, erase_count=40)
        blank = make_block(1, erase_count=0)  # no content to cycle
        assert WearLeveler(threshold=10).nominate([hot, blank]) is None

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            WearLeveler(threshold=0)



@pytest.mark.parametrize("policy", [GreedyPolicy(), CostBenefitPolicy()],
                         ids=["greedy", "cost-benefit"])
def test_policy_collects_under_tpftl_and_keeps_the_mapping(tiny_config,
                                                           policy):
    """The policies driving a whole FTL, not hand-built blocks."""
    ftl = make_ftl("tpftl", tiny_config, victim_policy=policy)
    trace = make_trace(random_ops(1500, 512, seed=4, write_ratio=0.8))
    assert simulate(ftl, trace).metrics.gc_data_collections > 0
    ftl.flush()
    ftl.check_consistency()
