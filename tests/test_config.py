"""Unit tests for configuration objects and the paper's sizing rules."""

import pytest

from repro.config import (CacheConfig, SimulationConfig, SSDConfig,
                          TPFTLConfig)
from repro.errors import ConfigError
from repro.types import WORD_LIMIT


class TestSSDConfigGeometry:
    def test_entries_per_translation_page(self):
        config = SSDConfig(logical_pages=8192, page_size=4096)
        assert config.entries_per_translation_page == 1024

    def test_translation_pages_rounds_up(self):
        config = SSDConfig(logical_pages=1500, page_size=4096)
        assert config.translation_pages == 2

    def test_logical_blocks(self):
        config = SSDConfig(logical_pages=8192, pages_per_block=64)
        assert config.logical_blocks == 128

    def test_physical_exceeds_logical_by_overprovision(self):
        config = SSDConfig(logical_pages=8192, over_provision=0.15)
        assert config.physical_blocks > config.logical_blocks * 1.15

    def test_capacity_bytes(self):
        config = SSDConfig(logical_pages=8192, page_size=4096)
        assert config.capacity_bytes == 32 * 1024 * 1024

    def test_paper_512mb_cache_is_8_5kb(self):
        """§5.1: a 512MB SSD gets an 8.5KB cache (8KB + 512B GTD)."""
        config = SSDConfig(logical_pages=512 * 1024 * 1024 // 4096)
        assert config.block_table_bytes == 8 * 1024
        assert config.gtd_bytes == 512
        assert config.paper_cache_bytes() == 8 * 1024 + 512

    def test_paper_16gb_cache_is_272kb(self):
        """§5.1: a 16GB SSD gets a 272KB cache (256KB + 16KB GTD)."""
        config = SSDConfig(logical_pages=16 * 1024 * 1024 * 1024 // 4096)
        assert config.block_table_bytes == 256 * 1024
        assert config.gtd_bytes == 16 * 1024
        assert config.paper_cache_bytes() == 272 * 1024

    def test_paper_cache_is_1_128_of_full_table(self):
        config = SSDConfig(logical_pages=512 * 1024 * 1024 // 4096)
        ratio = config.paper_cache_bytes() / config.full_table_bytes
        assert ratio == pytest.approx(1 / 128, rel=0.07)

    def test_cache_bytes_for_fraction(self):
        config = SSDConfig(logical_pages=8192)
        assert (config.cache_bytes_for_fraction(1.0)
                == config.full_table_bytes)
        assert (config.cache_bytes_for_fraction(0.5)
                == config.full_table_bytes // 2)

    def test_cache_fraction_bounds(self):
        config = SSDConfig(logical_pages=1024)
        with pytest.raises(ConfigError):
            config.cache_bytes_for_fraction(0.0)
        with pytest.raises(ConfigError):
            config.cache_bytes_for_fraction(1.5)


class TestSSDConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"logical_pages": 0},
        {"logical_pages": -5},
        {"page_size": 0},
        {"page_size": 1022},       # not a multiple of 4
        {"pages_per_block": 0},
        {"over_provision": -0.1},
        {"over_provision": 1.0},
        {"read_us": -1.0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            SSDConfig(**kwargs)

    def test_every_ppn_fits_a_32_bit_word(self):
        """A PPN is a 32-bit word: a device whose physical pages reach
        2**31 is refused before anything is allocated."""
        pages = 3 * 2 ** 29
        assert SSDConfig(logical_pages=pages).physical_pages < WORD_LIMIT
        with pytest.raises(ConfigError, match="32-bit word"):
            SSDConfig(logical_pages=pages, over_provision=0.5)
        with pytest.raises(ConfigError, match="32-bit word"):
            SSDConfig(logical_pages=WORD_LIMIT)


class TestCacheConfig:
    def test_entry_budget_subtracts_gtd(self):
        cache = CacheConfig(budget_bytes=1000)
        assert cache.entry_budget_bytes(gtd_bytes=200) == 800

    def test_budget_smaller_than_gtd_rejected(self):
        cache = CacheConfig(budget_bytes=100)
        with pytest.raises(ConfigError):
            cache.entry_budget_bytes(gtd_bytes=100)

    @pytest.mark.parametrize("kwargs", [
        {"budget_bytes": 0},
        {"budget_bytes": 100, "sftl_dirty_buffer_fraction": 1.0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            CacheConfig(**kwargs)


class TestTPFTLConfig:
    def test_default_is_complete_tpftl(self):
        assert TPFTLConfig().monogram == "rsbc"

    @pytest.mark.parametrize("monogram,expected", [
        ("-", "-"),
        ("", "-"),
        ("b", "b"),
        ("bc", "bc"),
        ("rs", "rs"),
        ("rsbc", "rsbc"),
        ("RSBC", "rsbc"),   # case-insensitive
        ("cb", "bc"),       # canonical ordering
    ])
    def test_monogram_round_trip(self, monogram, expected):
        assert TPFTLConfig.from_monogram(monogram).monogram == expected

    def test_monogram_sets_flags(self):
        config = TPFTLConfig.from_monogram("rc")
        assert config.request_prefetch
        assert not config.selective_prefetch
        assert not config.batch_update
        assert config.clean_first

    def test_unknown_letters_rejected(self):
        with pytest.raises(ConfigError):
            TPFTLConfig.from_monogram("xyz")

    def test_threshold_validated(self):
        with pytest.raises(ConfigError):
            TPFTLConfig(selective_threshold=0)


class TestSimulationConfig:
    def test_channels_default_single(self):
        from repro.config import SimulationConfig
        assert SimulationConfig().channels == 1

    def test_channels_validated(self):
        from repro.config import SimulationConfig
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            SimulationConfig(channels=0)

    def test_default_cache_follows_paper_rule(self):
        sim = SimulationConfig(ssd=SSDConfig(logical_pages=8192))
        resolved = sim.resolved_cache()
        assert resolved.budget_bytes == sim.ssd.paper_cache_bytes()

    def test_explicit_cache_wins(self):
        sim = SimulationConfig(ssd=SSDConfig(logical_pages=8192),
                               cache=CacheConfig(budget_bytes=12345))
        assert sim.resolved_cache().budget_bytes == 12345


class TestNANDProfiles:
    def test_slower_programs_widen_tpftls_gain_over_dftl(self):
        """§3.3 quantified: every translation write TPFTL avoids is
        worth more on slower flash.  SLC is Table 3's timings; TLC is
        typical of its datasheets (75us read, 1.5ms program, 4.5ms
        erase)."""
        from repro.ftl import make_ftl
        from repro.ssd import simulate
        from repro.workloads import financial1
        trace = financial1(logical_pages=4096, num_requests=4_000)
        gain = {}
        for nand, timings in (
                ("slc", dict(read_us=25.0, write_us=200.0,
                             erase_us=1500.0)),
                ("tlc", dict(read_us=75.0, write_us=1500.0,
                             erase_us=4500.0))):
            config = SimulationConfig(
                ssd=SSDConfig(logical_pages=4096, **timings))
            mean = {name: simulate(make_ftl(name, config), trace,
                                   warmup_requests=1_000).response.mean
                    for name in ("dftl", "tpftl")}
            gain[nand] = 1.0 - mean["tpftl"] / mean["dftl"]
        assert gain["tlc"] >= gain["slc"] - 0.03
