"""The experiment runners produce well-formed, paper-shaped results.

Runs at a micro scale (a few thousand requests) so the whole module
stays fast; the shape assertions here are deliberately loose — the
benchmarks run the real scales and EXPERIMENTS.md records the numbers.
"""

import pytest

from repro.config import TPFTLConfig
from repro.errors import ConfigError, ExperimentError
from repro.experiments import (EXPERIMENTS, ExperimentScale,
                               run_experiment)
from repro.experiments.common import (ABLATION_CONFIGS, WORKLOADS,
                                      build_workload, run_one,
                                      simulation_config)
from repro.experiments.runner import (RunSpec, clear_run_caches,
                                      execute_spec)

MICRO = ExperimentScale(
    name="micro", num_requests=2500, warmup_requests=500,
    financial_pages=4096, msr_pages=8192,
    cache_fractions=(1 / 32, 1.0), sample_interval=500)


@pytest.fixture(scope="module", autouse=True)
def _clean_cache():
    clear_run_caches()
    yield
    clear_run_caches()


class TestCommon:
    def test_build_workload_sizes(self):
        fin = build_workload("financial1", MICRO)
        msr = build_workload("msr-ts", MICRO)
        assert fin.logical_pages == 4096
        assert msr.logical_pages == 8192

    def test_simulation_config_cache_rule(self):
        trace = build_workload("financial1", MICRO)
        config = simulation_config(trace)
        assert (config.resolved_cache().budget_bytes
                == config.ssd.paper_cache_bytes())

    def test_simulation_config_fraction(self):
        trace = build_workload("financial1", MICRO)
        config = simulation_config(trace, cache_fraction=0.5)
        assert (config.resolved_cache().budget_bytes
                == config.ssd.full_table_bytes // 2)

    def test_run_one_produces_metrics(self):
        result = run_one("financial1", "dftl", MICRO)
        assert result.metrics.user_page_accesses > 0
        assert result.response.count > 0

    def test_ablation_cell_variants(self):
        assert TPFTLConfig.from_monogram("bc").monogram == "bc"
        assert RunSpec.for_ablation("bc", MICRO).tpftl.monogram == "bc"
        result = execute_spec(RunSpec.for_ablation("dftl", MICRO))
        assert result.ftl_name == "dftl"
        with pytest.raises(ConfigError):
            RunSpec.for_ablation("zz", MICRO)


class TestRegistry:
    def test_every_paper_artifact_registered(self):
        expected = {"table2", "fig1a", "fig1b", "fig2a", "fig2b",
                    "fig6a", "fig6b", "fig6c", "fig6d", "fig6e",
                    "fig6f", "fig7a", "fig7b", "fig7c", "fig8a",
                    "fig8b", "fig8c", "fig9a", "fig9b", "fig9c",
                    "fig10"}
        assert expected <= set(EXPERIMENTS)
        assert "modelcheck" in EXPERIMENTS  # extension
        assert "faults" in EXPERIMENTS  # extension

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ExperimentError):
            run_experiment("fig99", MICRO)


class TestHeadlineShapes:
    """The paper's directional claims at micro scale."""

    def test_fig6a_tpftl_prd_lowest_demand_based(self):
        result = run_experiment("fig6a", MICRO)
        for workload in WORKLOADS:
            row = result.data[workload]
            assert row["tpftl"] < row["dftl"]
            assert row["tpftl"] <= row["sftl"] + 0.02
            assert row["optimal"] == 0.0

    def test_fig6b_tpftl_beats_dftl(self):
        result = run_experiment("fig6b", MICRO)
        for workload in WORKLOADS:
            row = result.data[workload]
            assert row["tpftl"] > row["dftl"] - 0.02
            assert row["optimal"] == 1.0

    def test_fig6d_tpftl_reduces_translation_writes(self):
        result = run_experiment("fig6d", MICRO)
        for workload in WORKLOADS:
            row = result.data[workload]
            assert row["tpftl"] < row["dftl"]

    def test_fig6e_tpftl_not_slower_than_dftl(self):
        result = run_experiment("fig6e", MICRO)
        for workload in WORKLOADS:
            row = result.data[workload]
            assert row["tpftl"] <= row["dftl"] * 1.02

    def test_fig6f_wa_ordering(self):
        result = run_experiment("fig6f", MICRO)
        for workload in WORKLOADS:
            row = result.data[workload]
            assert row["optimal"] <= row["tpftl"] + 0.05
            assert row["tpftl"] <= row["dftl"] + 0.05

    def test_table2_deviations_positive(self):
        result = run_experiment("table2", MICRO)
        for workload in WORKLOADS:
            assert result.data[workload]["performance"] > 0.0
            # erasure deviation can be ~0 at micro scale on read-heavy
            # workloads (barely any GC in 2.5k requests)
            assert result.data[workload]["erasure"] >= 0.0

    def test_fig7a_tpftl_erases_fewer_blocks(self):
        result = run_experiment("fig7a", MICRO)
        for workload in WORKLOADS:
            assert result.data[workload]["tpftl"] < 1.0  # vs DFTL


class TestObservationFigures:
    def test_fig1a_entries_well_below_page_capacity(self):
        result = run_experiment("fig1a", MICRO)
        # paper observation: a small fraction of each page is cached
        for row in result.rows:
            mean = row[2]
            assert mean < 1024

    def test_fig1b_multi_dirty_pages_exist(self):
        result = run_experiment("fig1b", MICRO)
        for workload, payload in result.data.items():
            assert payload["fraction_pages_multi_dirty"] > 0.0
            assert payload["cdf"]  # non-empty CDF

    def test_fig2a_density_map_rendered(self):
        result = run_experiment("fig2a", MICRO)
        assert result.data["density_map"]
        assert result.data["requests"] == MICRO.num_requests

    def test_fig2b_series_collected(self):
        result = run_experiment("fig2b", MICRO)
        assert len(result.data["series"]) > 0


class TestAblationAndSweeps:
    def test_fig7b_batch_update_cuts_prd(self):
        result = run_experiment("fig7b", MICRO)
        data = result.data
        assert set(data) == set(ABLATION_CONFIGS)
        assert data["b"] < data["-"]
        assert data["rsbc"] < data["dftl"]

    def test_fig7c_prefetching_helps_hit_ratio(self):
        result = run_experiment("fig7c", MICRO)
        data = result.data
        assert data["rs"] >= data["-"] - 0.02

    def test_fig8a_complete_tpftl_beats_dftl(self):
        result = run_experiment("fig8a", MICRO)
        assert result.data["rsbc"] < result.data["dftl"]

    def test_fig8c_prd_vanishes_with_full_cache(self):
        result = run_experiment("fig8c", MICRO)
        for workload in WORKLOADS:
            assert result.data[workload][1.0] == pytest.approx(0.0)

    def test_fig9a_hit_ratio_improves_with_cache(self):
        result = run_experiment("fig9a", MICRO)
        for workload in WORKLOADS:
            series = result.data[workload]
            # at micro scale compulsory (cold) misses keep the full-table
            # cache below the paper's asymptotic 100%
            assert series[1.0] >= 0.7
            assert series[1.0] >= series[1 / 32] - 1e-9

    def test_fig9c_wa_shrinks_with_cache(self):
        result = run_experiment("fig9c", MICRO)
        for workload in WORKLOADS:
            series = result.data[workload]
            assert series[1.0] <= series[1 / 32] + 0.05

    def test_fig10_improvement_bounded(self):
        result = run_experiment("fig10", MICRO)
        for workload in WORKLOADS:
            for improvement in result.data[workload].values():
                assert improvement <= 0.34  # the 8B/6B bound


class TestRendering:
    def test_render_includes_title_and_rows(self):
        result = run_experiment("table2", MICRO)
        text = result.render()
        assert "[table2]" in text
        assert "financial1" in text
        assert "paper:" in text


class TestExtensionExperiments:
    def test_modelcheck_runs(self):
        result = run_experiment("modelcheck", MICRO)
        assert result.rows
        for row in result.rows:
            modeled_wa, measured_wa = row[2], row[3]
            assert modeled_wa >= 1.0
            assert measured_wa >= 1.0

    def test_threshold_sweep_runs(self):
        result = run_experiment("threshold-sweep", MICRO)
        cells = result.data["cells"]
        assert ("msr-ts", 3) in cells
        for payload in cells.values():
            assert 0.0 <= payload["hit_ratio"] <= 1.0
            assert 0.0 <= payload["accuracy"] <= 1.0

    def test_channels_sweep_runs(self):
        result = run_experiment("channels", MICRO)
        assert len(result.rows) == 8  # 2 FTLs x 4 channel counts
        trajectory = result.data["trajectory"]
        assert [t["channels"] for t in trajectory] == [1, 2, 4, 8] * 2
        for record in trajectory:
            assert record["mean_response_us"] > 0.0
            assert 0.0 <= record["gc_time_fraction"] < 1.0
            assert (record["mean_queue_delay_us"]
                    + record["mean_service_us"]
                    == pytest.approx(record["mean_response_us"]))
        # more channels never slow the mean response down
        for ftl_rows in (trajectory[:4], trajectory[4:]):
            means = [t["mean_response_us"] for t in ftl_rows]
            assert means == sorted(means, reverse=True) or \
                all(m <= means[0] for m in means)
        # the 1-channel cell is the paper's model: same digest space as
        # the Fig 6 matrix, so speedups anchor at exactly 1.0
        assert trajectory[0]["speedup_vs_1ch"] == 1.0

    def test_channels_sweep_is_bench_shaped(self):
        result = run_experiment("channels", MICRO)
        assert result.data["bench"] == "channels"
        assert result.data["channel_sweep"] == [1, 2, 4, 8]
        assert result.data["workload"] == "financial1"

    def test_faults_runs(self):
        from repro.ftl import FTL_NAMES
        result = run_experiment("faults", MICRO)
        assert len(result.rows) == len(FTL_NAMES)
        for row in result.rows:
            assert row[-1] in ("healthy", "worn out")
        power = result.data["powerloss"]
        assert set(power) == set(FTL_NAMES)
        for payload in power.values():
            # every cut point in the sweep fired and was verified
            assert payload["cut_points"] >= 50
            assert payload["cuts_fired"] == payload["cut_points"]
