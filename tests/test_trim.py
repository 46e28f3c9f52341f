"""TRIM/discard support (extension): unmap, GC benefit, recovery."""

import pytest

from repro.ftl import make_ftl
from repro.recovery import verify_recovery
from repro.types import Op, Request, UNMAPPED

from test_integration import ALL_FTLS, config_for


def trim(ftl, lpn, npages=1):
    return ftl.serve_request(Request(arrival=0.0, op=Op.TRIM, lpn=lpn,
                                     npages=npages))


class TestTrimSemantics:
    @pytest.mark.parametrize("name", ALL_FTLS)
    def test_trim_unmaps(self, name):
        ftl = make_ftl(name, config_for(name))
        trim(ftl, 5)
        assert ftl.lookup_current(5) == UNMAPPED
        assert ftl.metrics.user_page_trims == 1

    @pytest.mark.parametrize("name", ALL_FTLS)
    def test_trim_invalidates_flash_page(self, name):
        ftl = make_ftl(name, config_for(name))
        old_ppn = ftl.flash_table[5]
        trim(ftl, 5)
        block = ftl.flash.block_of(old_ppn)
        assert block.meta(ftl.flash.offset_of(old_ppn)) is None

    @pytest.mark.parametrize("name", ALL_FTLS)
    def test_read_after_trim_served_as_zeroes(self, name):
        ftl = make_ftl(name, config_for(name))
        trim(ftl, 5)
        reads_before = ftl.flash.stats.data_reads
        result = ftl.read_page(5)
        assert result.data_reads == 0
        assert ftl.flash.stats.data_reads == reads_before
        assert ftl.metrics.unmapped_reads == 1

    @pytest.mark.parametrize("name", ALL_FTLS)
    def test_write_after_trim_remaps(self, name):
        ftl = make_ftl(name, config_for(name))
        trim(ftl, 5)
        ftl.write_page(5)
        assert ftl.lookup_current(5) != UNMAPPED
        ftl.read_page(5)  # readable again

    def test_double_trim_is_idempotent(self, tiny_config):
        ftl = make_ftl("tpftl", tiny_config)
        trim(ftl, 5)
        trim(ftl, 5)
        assert ftl.metrics.user_page_trims == 2
        assert ftl.lookup_current(5) == UNMAPPED

    def test_range_trim(self, tiny_config):
        ftl = make_ftl("dftl", tiny_config)
        trim(ftl, 8, npages=4)
        for lpn in range(8, 12):
            assert ftl.lookup_current(lpn) == UNMAPPED


class TestTrimPersistence:
    def test_trim_survives_writeback(self, tiny_config):
        """A trimmed entry evicted from the cache persists UNMAPPED."""
        ftl = make_ftl("dftl", tiny_config)
        trim(ftl, 5)
        ftl.flush()
        assert ftl.flash_table[5] == UNMAPPED

    @pytest.mark.parametrize("name", ALL_FTLS)
    def test_recovery_agrees_after_trims(self, name):
        import random
        ftl = make_ftl(name, config_for(name))
        rng = random.Random(15)
        for _ in range(400):
            lpn = rng.randrange(512)
            roll = rng.random()
            if roll < 0.5:
                ftl.write_page(lpn)
            elif roll < 0.7:
                trim(ftl, lpn)
            else:
                ftl.read_page(lpn)
        ftl.flush()
        ftl.check_consistency()
        verify_recovery(ftl)


class TestTrimHelpsGC:
    def test_trimmed_space_reduces_migrations(self, tiny_config):
        """Trimming cold data before overwriting cuts GC work."""
        import random
        rng = random.Random(8)
        writes = [rng.randrange(256) for _ in range(2000)]

        plain = make_ftl("optimal", tiny_config)
        for lpn in writes:
            plain.write_page(lpn)

        trimming = make_ftl("optimal", tiny_config)
        for lpn in range(256, 512):
            trim(trimming, lpn)  # discard the cold half
        for lpn in writes:
            trimming.write_page(lpn)

        assert (trimming.metrics.data_writes_migration
                < plain.metrics.data_writes_migration)


class TestTrimWorkloads:
    def test_generator_emits_trims(self):
        from repro.workloads import SyntheticSpec, characterize, generate
        spec = SyntheticSpec(name="t", logical_pages=2048,
                             num_requests=3000, write_ratio=0.5,
                             trim_fraction=0.2, seed=3)
        trace = generate(spec)
        stats = characterize(trace)
        assert stats.trim_ratio == pytest.approx(0.2, abs=0.03)

    def test_trim_trace_replays_end_to_end(self, tiny_config):
        from repro.ssd import simulate
        from repro.workloads import SyntheticSpec, generate
        spec = SyntheticSpec(name="t", logical_pages=512,
                             num_requests=1500, write_ratio=0.6,
                             trim_fraction=0.15, seed=4)
        ftl = make_ftl("tpftl", tiny_config)
        result = simulate(ftl, generate(spec))
        assert result.metrics.user_page_trims > 0
        ftl.flush()
        ftl.check_consistency()

    def test_writers_reject_trims(self):
        from repro.errors import WorkloadError
        from repro.types import Trace
        from repro.workloads import spc_lines, msr_lines
        trace = Trace(requests=[
            Request(arrival=0.0, op=Op.TRIM, lpn=0, npages=1)],
            logical_pages=16)
        with pytest.raises(WorkloadError):
            list(spc_lines(trace))
        with pytest.raises(WorkloadError):
            list(msr_lines(trace))

    def test_trim_only_trace_stats(self):
        from repro.workloads import characterize
        from repro.types import Trace
        trace = Trace(requests=[
            Request(arrival=0.0, op=Op.TRIM, lpn=0, npages=4)],
            logical_pages=16)
        stats = characterize(trace)
        assert stats.trim_ratio == 1.0
        assert stats.write_ratio == 0.0
        assert stats.pages_read == 0
