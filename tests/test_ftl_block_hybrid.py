"""Block-level and hybrid FTL extensions: the §2.1 comparators."""

import pytest

from repro.config import SimulationConfig, SSDConfig
from repro.errors import ConfigError
from repro.ftl import BlockFTL, HybridFTL, OptimalFTL
from repro.types import PageKind


@pytest.fixture
def config() -> SimulationConfig:
    return SimulationConfig(ssd=SSDConfig(
        logical_pages=512, page_size=256, pages_per_block=8))


class TestBlockFTL:
    def test_requires_block_aligned_space(self):
        bad = SimulationConfig(ssd=SSDConfig(
            logical_pages=100, page_size=256, pages_per_block=8))
        with pytest.raises(ConfigError):
            BlockFTL(bad)

    def test_read_costs_one_flash_read(self, config):
        ftl = BlockFTL(config)
        result = ftl.read_page(17)
        assert result.data_reads == 1
        assert result.data_writes == 0

    def test_write_copies_whole_block(self, config):
        """The block-mapping penalty: one page write costs Np programs
        plus Np-1 copy reads plus an erase."""
        ftl = BlockFTL(config)
        result = ftl.write_page(17)
        np = config.ssd.pages_per_block
        assert result.data_writes == np
        assert result.data_reads == np - 1
        assert result.erases == 1

    def test_write_preserves_other_pages_of_block(self, config):
        ftl = BlockFTL(config)
        ftl.write_page(17)
        # every page of the logical block still reads back correctly
        base = (17 // 8) * 8
        for lpn in range(base, base + 8):
            ppn = ftl.flash_table[lpn]
            assert ftl.flash.read(ppn, PageKind.DATA) == lpn

    def test_block_map_moves(self, config):
        ftl = BlockFTL(config)
        before = ftl.block_map[2]
        ftl.write_page(17)  # lbn 2
        assert ftl.block_map[2] != before

    def test_rigid_offsets(self, config):
        ftl = BlockFTL(config)
        ftl.write_page(17)
        ppn = ftl.flash_table[17]
        assert ftl.flash.offset_of(ppn) == 17 % 8

    def test_consistency_after_many_writes(self, config):
        import random
        ftl = BlockFTL(config)
        rng = random.Random(3)
        for _ in range(100):
            ftl.write_page(rng.randrange(512))
        ftl.check_consistency()

    def test_always_hits_ram_table(self, config):
        ftl = BlockFTL(config)
        ftl.read_page(0)
        ftl.write_page(1)
        assert ftl.metrics.hit_ratio == 1.0


class TestHybridFTL:
    def test_write_appends_to_log(self, config):
        ftl = HybridFTL(config)
        result = ftl.write_page(17)
        assert result.data_writes == 1   # no copy-merge yet
        assert 17 in ftl.log_map

    def test_read_prefers_log_version(self, config):
        ftl = HybridFTL(config)
        ftl.write_page(17)
        ppn = ftl.log_map[17]
        assert ftl.flash.read(ppn, PageKind.DATA) == 17

    def test_sequential_rewrite_switch_merges(self, config):
        ftl = HybridFTL(config, log_blocks=2)
        # rewrite logical blocks 3, 4 in perfect order, then one more
        # write: the oldest log block holds exactly block 3's newest
        # pages in offset order -> switch merge
        for lpn in range(24, 40):
            ftl.write_page(lpn)
        ftl.write_page(100)
        assert ftl.merges_switch >= 1
        ftl.check_consistency()

    def test_random_writes_full_merge(self, config):
        import random
        ftl = HybridFTL(config, log_blocks=2)
        rng = random.Random(5)
        for _ in range(80):
            ftl.write_page(rng.randrange(512))
        assert ftl.merges_full >= 1
        ftl.check_consistency()

    def test_full_merge_costs_reads_and_writes(self, config):
        import random
        ftl = HybridFTL(config, log_blocks=2)
        rng = random.Random(5)
        for _ in range(80):
            ftl.write_page(rng.randrange(512))
        assert ftl.metrics.data_writes_migration > 0
        assert ftl.metrics.data_reads_migration > 0

    def test_consistency_under_mixed_ops(self, config):
        import random
        ftl = HybridFTL(config)
        rng = random.Random(9)
        for _ in range(300):
            lpn = rng.randrange(512)
            if rng.random() < 0.7:
                ftl.write_page(lpn)
            else:
                ftl.read_page(lpn)
        ftl.check_consistency()

    def test_log_blocks_validated(self, config):
        with pytest.raises(ConfigError):
            HybridFTL(config, log_blocks=0)

    def test_unaligned_space_rejected(self):
        bad = SimulationConfig(ssd=SSDConfig(
            logical_pages=100, page_size=256, pages_per_block=8))
        with pytest.raises(ConfigError):
            HybridFTL(bad)


class TestHybridVsBlockEfficiency:
    def test_hybrid_writes_less_than_block_ftl(self, config):
        """§2.1 in numbers: log buffering needs fewer flash writes per
        random update than block mapping, page mapping fewer still."""
        import random
        rng = random.Random(13)
        ops = [rng.randrange(512) for _ in range(200)]
        writes = {}
        for ftl in (BlockFTL(config), HybridFTL(config),
                    OptimalFTL(config)):
            for lpn in ops:
                ftl.write_page(lpn)
            writes[ftl.name] = ftl.flash.stats.total_writes
        assert writes["optimal"] < writes["hybrid"] < writes["block"]
