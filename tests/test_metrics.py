"""The metrics layer: counters, response stats, sampler, reports."""

import pytest

from repro.errors import MetricsError
from repro.metrics import (CacheSampler, FTLMetrics, ResponseStats,
                           format_table)
from repro.metrics.report import format_percent


class TestFTLMetrics:
    def test_hit_ratio(self):
        m = FTLMetrics(lookups=10, hits=7)
        assert m.hit_ratio == pytest.approx(0.7)

    def test_hit_ratio_no_lookups_is_one(self):
        assert FTLMetrics().hit_ratio == 1.0

    def test_p_replace_dirty(self):
        m = FTLMetrics(replacements=8, dirty_replacements=2)
        assert m.p_replace_dirty == pytest.approx(0.25)

    def test_p_replace_dirty_no_replacements_is_zero(self):
        assert FTLMetrics().p_replace_dirty == 0.0

    def test_translation_totals(self):
        m = FTLMetrics(trans_reads_load=1, trans_reads_writeback=2,
                       trans_reads_gc=3, trans_reads_migration=4,
                       trans_writes_writeback=5,
                       trans_writes_gc_update=6,
                       trans_writes_migration=7)
        assert m.translation_page_reads == 10
        assert m.translation_page_writes == 18

    def test_write_amplification_definition(self):
        """Eq. 12: (user + Ntw + Ndt + Nmt + Nmd) / user."""
        m = FTLMetrics(user_page_writes=100, trans_writes_writeback=10,
                       trans_writes_gc_update=5,
                       trans_writes_migration=5,
                       data_writes_migration=30)
        assert m.write_amplification == pytest.approx(1.5)

    def test_write_amplification_read_only(self):
        assert FTLMetrics(user_page_reads=10).write_amplification == 1.0

    def test_gc_means(self):
        m = FTLMetrics(gc_data_collections=4, gc_data_valid_migrated=20,
                       gc_translation_collections=2,
                       gc_trans_valid_migrated=5)
        assert m.mean_valid_in_data_victims == 5.0
        assert m.mean_valid_in_trans_victims == 2.5

    def test_write_ratio(self):
        m = FTLMetrics(user_page_reads=3, user_page_writes=7)
        assert m.write_ratio == pytest.approx(0.7)

    def test_summary_keys(self):
        summary = FTLMetrics().summary()
        for key in ("hit_ratio", "p_replace_dirty",
                    "write_amplification", "erases"):
            assert key in summary


class TestResponseStats:
    def record(self, stats, values):
        for value in values:
            stats.record_timing(0.0, 0.0, value)

    def test_streaming_mean(self):
        stats = ResponseStats()
        self.record(stats, [10.0, 20.0, 30.0])
        assert stats.mean == pytest.approx(20.0)
        assert stats.max == 30.0
        assert stats.count == 3

    def test_variance_and_stddev(self):
        stats = ResponseStats()
        self.record(stats, [10.0, 20.0, 30.0])
        assert stats.variance == pytest.approx(100.0)
        assert stats.stddev == pytest.approx(10.0)

    def test_queue_delay_tracked(self):
        stats = ResponseStats()
        stats.record_timing(0.0, 5.0, 10.0)
        stats.record_timing(0.0, 15.0, 20.0)
        assert stats.mean_queue_delay == pytest.approx(10.0)

    def test_service_time_tracked(self):
        stats = ResponseStats()
        stats.record_timing(0.0, 5.0, 10.0)
        stats.record_timing(0.0, 15.0, 30.0)
        assert stats.total_service_time == pytest.approx(20.0)
        assert stats.mean_service_time == pytest.approx(10.0)
        # queue delay + in-service time decompose the response time
        assert (stats.mean_queue_delay + stats.mean_service_time
                == pytest.approx(stats.mean))

    def test_percentile_requires_samples(self):
        stats = ResponseStats()
        self.record(stats, [1.0])
        with pytest.raises(MetricsError):  # keep_samples off: loud, not None
            stats.percentile(50)

    def test_percentile_empty_but_enabled_is_none(self):
        stats = ResponseStats(keep_samples=True)
        assert stats.percentile(50) is None  # sampled, zero requests

    def test_percentile_nearest_rank(self):
        stats = ResponseStats(keep_samples=True)
        self.record(stats, [float(i) for i in range(1, 101)])
        assert stats.percentile(50) == 50.0
        assert stats.percentile(99) == 99.0
        assert stats.percentile(100) == 100.0

    def test_percentile_sorted_cache_invalidated_by_new_samples(self):
        stats = ResponseStats(keep_samples=True)
        self.record(stats, [5.0, 1.0, 3.0])
        assert stats.percentile(100) == 5.0
        self.record(stats, [9.0])  # must invalidate the cached order
        assert stats.percentile(100) == 9.0
        assert stats.percentile(1) == 1.0

    def test_percentile_bounds(self):
        stats = ResponseStats(keep_samples=True)
        self.record(stats, [1.0])
        with pytest.raises(ValueError):
            stats.percentile(101)

    def test_invalidate_covers_same_length_replacement(self):
        """A length-equality heuristic would serve stale percentiles.

        Replacing ``samples`` with a same-length list (as codecs do
        when rebuilding stats) must read the new values, with no call
        to declare the mutation: no sorted order outlives a call.
        """
        stats = ResponseStats(keep_samples=True)
        self.record(stats, [1.0, 2.0, 3.0])
        assert stats.percentile(100) == 3.0
        stats.samples = [7.0, 8.0, 9.0]      # same length, new values
        assert stats.percentile(100) == 9.0
        assert stats.percentile(1) == 7.0


class TestResponseStatsMerge:
    def fill(self, stats, timings):
        for arrival, start, finish in timings:
            stats.record_timing(arrival, start, finish)

    def split_vs_whole(self, keep_samples=True):
        timings = [(float(i), float(i) + i % 7, float(i) + 10 + 3 * i)
                   for i in range(40)]
        whole = ResponseStats(keep_samples=keep_samples)
        self.fill(whole, timings)
        parts = [ResponseStats(keep_samples=keep_samples)
                 for _ in range(3)]
        for index, timing in enumerate(timings):
            self.fill(parts[index % 3], [timing])
        merged = ResponseStats(keep_samples=keep_samples)
        for part in parts:
            merged.merge(part)
        return merged, whole

    def test_merge_reproduces_single_stream_moments(self):
        merged, whole = self.split_vs_whole()
        assert merged.count == whole.count
        assert merged.max == whole.max
        assert merged.mean == pytest.approx(whole.mean, rel=1e-12)
        assert merged.variance == pytest.approx(whole.variance,
                                                rel=1e-9)
        assert merged.total_queue_delay == pytest.approx(
            whole.total_queue_delay)
        assert merged.total_service_time == pytest.approx(
            whole.total_service_time)
        assert sorted(merged.samples) == sorted(whole.samples)
        assert merged.percentile(99) == whole.percentile(99)

    def test_merge_empty_sides(self):
        merged, whole = self.split_vs_whole()
        before = (merged.count, merged.mean, merged.max)
        merged.merge(ResponseStats(keep_samples=True))  # no-op
        assert (merged.count, merged.mean, merged.max) == before
        fresh = ResponseStats(keep_samples=True)
        fresh.merge(whole)  # full copy
        assert fresh.count == whole.count
        assert fresh.mean == whole.mean
        assert fresh.samples == whole.samples
        assert fresh.samples is not whole.samples  # defensive copy

    def test_merge_invalidates_percentile_cache(self):
        stats = ResponseStats(keep_samples=True)
        self.fill(stats, [(0.0, 0.0, 5.0)])
        assert stats.percentile(100) == 5.0  # populate the cache
        other = ResponseStats(keep_samples=True)
        self.fill(other, [(0.0, 0.0, 50.0)])
        stats.merge(other)
        assert stats.percentile(100) == 50.0

    def test_merge_mixed_sampling_fails_loudly(self):
        """Sampled + unsampled merge must not report subset percentiles."""
        sampled = ResponseStats(keep_samples=True)
        self.fill(sampled, [(0.0, 0.0, 5.0)])
        unsampled = ResponseStats()
        self.fill(unsampled, [(0.0, 0.0, 9.0)])
        sampled.merge(unsampled)
        assert sampled.count == 2
        assert sampled.max == 9.0
        assert not sampled.keep_samples
        with pytest.raises(MetricsError):
            sampled.percentile(99)


class TestCacheSampler:
    def test_interval_gating(self):
        sampler = CacheSampler(interval=10)
        assert not sampler.maybe_sample(5, [(1, 0)])
        assert sampler.maybe_sample(10, [(1, 0)])
        assert not sampler.maybe_sample(11, [(1, 0)])
        assert sampler.maybe_sample(20, [(2, 1)])
        assert len(sampler.samples) == 2

    def test_disabled_sampler(self):
        sampler = CacheSampler(interval=0)
        assert not sampler.enabled
        assert not sampler.maybe_sample(100, [(1, 0)])

    def test_sample_aggregates(self):
        sampler = CacheSampler(interval=1)
        sampler.record(1, [(10, 2), (6, 0), (4, 4)])
        sample = sampler.samples[0]
        assert sample.cached_pages == 3
        assert sample.cached_entries == 20
        assert sample.dirty_entries == 6
        assert sample.mean_entries_per_page == pytest.approx(20 / 3)

    def test_dirty_cdf(self):
        sampler = CacheSampler(interval=1)
        sampler.record(1, [(5, 0), (5, 1), (5, 1), (5, 3)])
        cdf = dict(sampler.dirty_cdf())
        assert cdf[0] == pytest.approx(0.25)
        assert cdf[1] == pytest.approx(0.75)
        assert cdf[3] == pytest.approx(1.0)

    def test_fraction_pages_with_dirty_above(self):
        sampler = CacheSampler(interval=1)
        sampler.record(1, [(5, 0), (5, 1), (5, 2), (5, 5)])
        assert sampler.fraction_pages_with_dirty_above(1) == \
            pytest.approx(0.5)

    def test_mean_dirty_per_page(self):
        sampler = CacheSampler(interval=1)
        sampler.record(1, [(5, 2), (5, 4)])
        assert sampler.mean_dirty_per_page() == pytest.approx(3.0)

    def test_series_extraction(self):
        sampler = CacheSampler(interval=1)
        sampler.record(100, [(4, 1)])
        sampler.record(200, [(4, 1), (2, 0)])
        assert sampler.cached_pages_series() == [(100, 1), (200, 2)]
        entries = sampler.entries_per_page_series()
        assert entries[0] == (100, 4.0)
        assert entries[1] == (200, 3.0)


class TestReport:
    def test_aligned_table(self):
        text = format_table(["A", "Metric"], [["x", 1.5], ["yy", 2.25]],
                            precision=2, title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "1.50" in text
        assert "2.25" in text

    def test_none_renders_dash(self):
        text = format_table(["A"], [[None]])
        assert "-" in text

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["A", "B"], [["only-one"]])

    def test_format_percent(self):
        assert format_percent(0.235) == "23.5%"
        assert format_percent(0.2355, precision=2) == "23.55%"


class TestSparkline:
    def test_empty(self):
        from repro.metrics import sparkline
        assert sparkline([]) == ""

    def test_flat_series_mid_height(self):
        from repro.metrics import sparkline
        line = sparkline([5, 5, 5])
        assert len(line) == 3
        assert len(set(line)) == 1

    def test_monotone_series_rises(self):
        from repro.metrics import sparkline
        line = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
        assert line == "▁▂▃▄▅▆▇█"

    def test_downsampling_width(self):
        from repro.metrics import sparkline
        line = sparkline(list(range(100)), width=10)
        assert len(line) == 10
        assert line[0] == "▁"
        assert line[-1] == "█"

    def test_pinned_scale(self):
        from repro.metrics import sparkline
        line = sparkline([5.0], lo=0.0, hi=10.0)
        assert line in ("▄", "▅")  # mid-height either side of rounding

    def test_labelled(self):
        from repro.metrics import labelled_sparkline
        text = labelled_sparkline("x", [1.0, 2.0])
        assert text.startswith("x: ")
        assert "[1..2]" in text

    def test_labelled_empty(self):
        from repro.metrics import labelled_sparkline
        assert "(no data)" in labelled_sparkline("x", [])
